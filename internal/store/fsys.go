package store

import (
	"os"
	"runtime"
)

// fileSystem is the write side of the store directory: exactly the calls
// writeFileAtomic, the update log (append, truncate) and file removal
// make. Reads go straight to the os package. The seam exists so the crash
// tests can count these operations, stop the world after the Nth and
// reconstruct what a power cut would have left on disk (only synced bytes
// under synced names); no production path inspects which implementation
// is installed.
type fileSystem interface {
	// createTemp creates a new uniquely named file in dir for writing.
	createTemp(dir, pattern string) (file, error)
	// openAppend opens path write-only in append mode, creating it empty
	// when absent.
	openAppend(path string) (file, error)
	rename(oldpath, newpath string) error
	remove(path string) error
	// syncDir flushes dir's entries: names created, renamed or removed in
	// it are durable only after it returns.
	syncDir(dir string) error
}

// file is an open file of the seam; *os.File implements it.
type file interface {
	Name() string
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// fsys is the installed file system. Only tests replace it.
var fsys fileSystem = osFS{}

type osFS struct{}

func (osFS) createTemp(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }

func (osFS) openAppend(path string) (file, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (osFS) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) remove(path string) error { return os.Remove(path) }

// syncDir flushes the directory entry created by a rename. Without it a
// crash can lose the file's NAME even though its contents were synced.
// Windows does not support (or need) opening directories for sync.
func (osFS) syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() //xvlint:errok primary error wins; the directory handle is read-only
		return err
	}
	return d.Close()
}

// RemoveFile deletes a superseded store file (a folded delta, an old base
// segment, a replaced document checkpoint). Callers remove only files the
// durable catalog no longer references, so a removal a crash undoes just
// leaves garbage behind.
func RemoveFile(path string) error { return fsys.remove(path) }
