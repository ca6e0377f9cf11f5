package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// UpdateLogName is the update log's file name inside a store directory:
// one record per committed epoch since the document checkpoint the
// catalog names (Catalog.DocSegment at Catalog.DocEpoch). The payload is
// opaque here; the maintenance layer stores the epoch's merged update
// batch in its wire form.
//
// A record is
//
//	epoch    u64 little-endian
//	length   u32 little-endian   byte length of payload
//	crc      u32 little-endian   CRC-32 (IEEE) of epoch ‖ length ‖ payload
//	payload  bytes
//
// with no file header, so an empty (or absent) file is an empty log and
// truncation to zero resets it. The checksum covers the epoch and length
// too: a run of zero bytes left by a torn append is not a valid record.
const UpdateLogName = "updates.xvl"

const logHeaderLen = 16

// LogRecord is one decoded update-log record.
type LogRecord struct {
	Epoch   int64
	Payload []byte
	// Offset is the record's byte position in the log; truncating the log
	// to it drops this record and everything after.
	Offset int64
}

// ErrLogTorn and ErrLogCorrupt classify what follows the valid prefix of
// an update log: an incomplete record (a short write cut the append), or
// a complete frame whose checksum does not match.
var (
	ErrLogTorn    = errors.New("store: update log ends in an incomplete record")
	ErrLogCorrupt = errors.New("store: update log record fails its checksum")
)

// AppendUpdateLog appends one record to dir's update log and flushes it to
// stable storage; when this creates the log, its name is flushed too. The
// caller (the directory's single writer) appends epochs in order and
// writes the catalog only after this returns.
func AppendUpdateLog(dir string, epoch int64, payload []byte) error {
	if epoch < 0 || uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("store: update log record out of range (epoch %d, %d payload bytes)", epoch, len(payload))
	}
	path := filepath.Join(dir, UpdateLogName)
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, fs.ErrNotExist)
	f, err := fsys.openAppend(path)
	if err != nil {
		return err
	}
	// One Write per record: a crash tears at most this frame.
	if err := writeSyncClose(f, appendLogRecord(make([]byte, 0, logHeaderLen+len(payload)), epoch, payload)); err != nil {
		return err
	}
	if created {
		return fsys.syncDir(dir)
	}
	return nil
}

func appendLogRecord(dst []byte, epoch int64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(epoch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(dst[start:]), crc32.IEEETable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// DecodeUpdateLog splits log bytes into their valid prefix of records and
// a verdict on the rest: tail is nil when the records cover data exactly,
// else wraps ErrLogTorn or ErrLogCorrupt and data[valid:] is not a record.
// Nothing after the first bad frame is ever returned.
func DecodeUpdateLog(data []byte) (recs []LogRecord, valid int64, tail error) {
	pos := 0
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < logHeaderLen {
			return recs, int64(pos), fmt.Errorf("%w: %d header byte(s) at offset %d", ErrLogTorn, len(rest), pos)
		}
		epoch := binary.LittleEndian.Uint64(rest)
		n := binary.LittleEndian.Uint32(rest[8:])
		sum := binary.LittleEndian.Uint32(rest[12:])
		if uint64(len(rest)-logHeaderLen) < uint64(n) {
			return recs, int64(pos), fmt.Errorf("%w: record at offset %d declares %d payload byte(s), %d present",
				ErrLogTorn, pos, n, len(rest)-logHeaderLen)
		}
		payload := rest[logHeaderLen : logHeaderLen+int(n)]
		if crc32.Update(crc32.ChecksumIEEE(rest[:12]), crc32.IEEETable, payload) != sum || epoch > math.MaxInt64 {
			return recs, int64(pos), fmt.Errorf("%w: record at offset %d", ErrLogCorrupt, pos)
		}
		recs = append(recs, LogRecord{Epoch: int64(epoch), Payload: payload, Offset: int64(pos)})
		pos += logHeaderLen + int(n)
	}
	return recs, int64(pos), nil
}

// ReadUpdateLog reads dir's update log (absent: empty) and decodes it; see
// DecodeUpdateLog for valid and tail.
func ReadUpdateLog(dir string) (recs []LogRecord, valid int64, tail, err error) {
	data, err := os.ReadFile(filepath.Join(dir, UpdateLogName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil, err
	}
	recs, valid, tail = DecodeUpdateLog(data)
	return recs, valid, tail, nil
}

// UpdateLogSize returns the byte length of dir's update log, 0 when there
// is none.
func UpdateLogSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, UpdateLogName))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// TruncateUpdateLog cuts dir's update log to size bytes and flushes the
// new length; an absent log is left absent.
func TruncateUpdateLog(dir string, size int64) error {
	path := filepath.Join(dir, UpdateLogName)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	f, err := fsys.openAppend(path)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close() //xvlint:errok primary error wins; nothing was written through this handle
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //xvlint:errok primary error wins; nothing was written through this handle
		return err
	}
	return f.Close()
}
