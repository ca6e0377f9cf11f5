package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestUpdateLogAppendReadTruncate(t *testing.T) {
	dir := t.TempDir()
	if recs, valid, tail, err := ReadUpdateLog(dir); err != nil || tail != nil || valid != 0 || len(recs) != 0 {
		t.Fatalf("absent log: %d record(s), valid %d, tail %v, err %v", len(recs), valid, tail, err)
	}
	if err := TruncateUpdateLog(dir, 0); err != nil {
		t.Fatalf("truncating an absent log: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, UpdateLogName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("truncating an absent log created it: %v", err)
	}
	payloads := []string{`{"updates":[]}`, "", "third"}
	for i, p := range payloads {
		if err := AppendUpdateLog(dir, int64(i+1), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	recs, valid, tail, err := ReadUpdateLog(dir)
	if err != nil || tail != nil {
		t.Fatalf("tail %v, err %v", tail, err)
	}
	if valid != UpdateLogSize(dir) || len(recs) != len(payloads) {
		t.Fatalf("%d record(s) over %d of %d bytes", len(recs), valid, UpdateLogSize(dir))
	}
	for i, r := range recs {
		if r.Epoch != int64(i+1) || string(r.Payload) != payloads[i] {
			t.Fatalf("record %d: epoch %d payload %q", i, r.Epoch, r.Payload)
		}
	}
	// Cutting at a record's offset drops it and its successors, nothing else.
	if err := TruncateUpdateLog(dir, recs[2].Offset); err != nil {
		t.Fatal(err)
	}
	if recs, _, tail, _ = ReadUpdateLog(dir); tail != nil || len(recs) != 2 {
		t.Fatalf("after truncation: %d record(s), tail %v", len(recs), tail)
	}
	// An append after a truncation lands right behind the kept prefix.
	if err := AppendUpdateLog(dir, 3, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if recs, _, tail, _ = ReadUpdateLog(dir); tail != nil || len(recs) != 3 || string(recs[2].Payload) != "again" {
		t.Fatalf("after re-append: %d record(s), tail %v", len(recs), tail)
	}
}

func TestUpdateLogTailClassification(t *testing.T) {
	good := appendLogRecord(appendLogRecord(nil, 7, []byte("seven")), 8, []byte("eight"))
	second := int64(logHeaderLen + len("seven"))
	for _, tc := range []struct {
		name  string
		data  []byte
		recs  int
		valid int64
		tail  error
	}{
		{"clean", good, 2, int64(len(good)), nil},
		{"short header", good[:second+5], 1, second, ErrLogTorn},
		{"short payload", good[:len(good)-1], 1, second, ErrLogTorn},
		{"zero fill", append(append([]byte(nil), good...), make([]byte, 64)...), 2, int64(len(good)), ErrLogCorrupt},
		{"bit flip in first payload", flip(good, logHeaderLen+1), 0, 0, ErrLogCorrupt},
		{"bit flip in second epoch", flip(good, int(second)), 1, second, ErrLogCorrupt},
	} {
		recs, valid, tail := DecodeUpdateLog(tc.data)
		if len(recs) != tc.recs || valid != tc.valid || !errors.Is(tail, tc.tail) || (tc.tail == nil) != (tail == nil) {
			t.Errorf("%s: %d record(s), valid %d, tail %v; want %d, %d, %v", tc.name, len(recs), valid, tail, tc.recs, tc.valid, tc.tail)
		}
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 1
	return out
}
