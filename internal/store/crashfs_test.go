package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// CrashFS is the test implementation of the fileSystem seam: it passes
// every operation but the fsyncs through to the real directory (so the
// code under test reads back what it wrote; durability is the model's
// business, not the test machine's disk) while keeping a model of what
// stable storage holds — file contents as of each file's last Sync, under the names the
// directory had at its last syncDir. After Limit operations every further
// one fails with ErrCrashed ("the power went out"); Materialize then
// writes the modelled durable state into a fresh directory for the test
// to reopen. With Tear set, a Write that was the very last operation
// before the cut leaves the first half of its bytes behind, as a short
// write does.
//
// The model is the strict one: nothing unsynced survives. A real disk may
// keep more (any unsynced write or rename may have reached the platter),
// but every such state is one this model produces at a later crash point
// or a superset of garbage files, so enumerating all Limits covers them.
type CrashFS struct {
	Limit int // operations allowed before the crash; < 0: never crash
	Tear  bool
	// Ops counts operations performed; Trace names them in order.
	Ops   int
	Trace []string

	dir     string
	crashed bool
	live    map[string]*inode // current namespace
	durable map[string]*inode // namespace as of the last syncDir
	// tornIno/tornLen describe the last operation when it was a Write.
	tornIno *inode
	tornLen int
}

// ErrCrashed is returned by every operation after the crash point.
var ErrCrashed = errors.New("crashfs: crashed")

type inode struct {
	data   []byte // what a reader sees now
	synced []byte // what stable storage holds
}

// InstallCrashFS swaps the package's file system for a CrashFS over dir
// (whose current files are taken as durable) until restore is called.
// Tests using it must not run in parallel with other tests that write
// stores.
func InstallCrashFS(t testing.TB, dir string, limit int, tear bool) (c *CrashFS, restore func()) {
	t.Helper()
	c = &CrashFS{Limit: limit, Tear: tear, dir: dir, live: map[string]*inode{}, durable: map[string]*inode{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ino := &inode{data: data, synced: data}
		c.live[e.Name()] = ino
		c.durable[e.Name()] = ino
	}
	prev := fsys
	fsys = c
	return c, func() { fsys = prev }
}

// Crashed reports whether the crash point was reached.
func (c *CrashFS) Crashed() bool { return c.crashed }

// Materialize writes the durable state into dst (an empty directory).
func (c *CrashFS) Materialize(t testing.TB, dst string) {
	t.Helper()
	for name, ino := range c.durable {
		if err := os.WriteFile(filepath.Join(dst, name), ino.synced, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// step accounts for one operation, or reports that the crash point has
// been reached (applying the torn write, if any, on first arrival).
func (c *CrashFS) step(op string) error {
	if !c.crashed && c.Limit >= 0 && c.Ops >= c.Limit {
		c.crashed = true
		if c.Tear && c.tornIno != nil {
			c.tornIno.synced = append([]byte(nil), c.tornIno.data[:c.tornLen]...)
		}
	}
	if c.crashed {
		return ErrCrashed
	}
	c.Ops++
	c.Trace = append(c.Trace, op)
	c.tornIno = nil
	return nil
}

func (c *CrashFS) name(path string) string {
	if filepath.Dir(path) != filepath.Clean(c.dir) {
		panic("crashfs: " + path + " is outside " + c.dir)
	}
	return filepath.Base(path)
}

func (c *CrashFS) createTemp(dir, pattern string) (file, error) {
	if err := c.step("createTemp"); err != nil {
		return nil, err
	}
	f, err := osFS{}.createTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	ino := &inode{}
	c.live[c.name(f.Name())] = ino
	return &crashFile{fs: c, real: f, ino: ino}, nil
}

func (c *CrashFS) openAppend(path string) (file, error) {
	if err := c.step("openAppend " + filepath.Base(path)); err != nil {
		return nil, err
	}
	f, err := osFS{}.openAppend(path)
	if err != nil {
		return nil, err
	}
	ino := c.live[c.name(path)]
	if ino == nil {
		ino = &inode{}
		c.live[c.name(path)] = ino
	}
	return &crashFile{fs: c, real: f, ino: ino}, nil
}

func (c *CrashFS) rename(oldpath, newpath string) error {
	if err := c.step("rename → " + filepath.Base(newpath)); err != nil {
		return err
	}
	if err := (osFS{}).rename(oldpath, newpath); err != nil {
		return err
	}
	c.live[c.name(newpath)] = c.live[c.name(oldpath)]
	delete(c.live, c.name(oldpath))
	return nil
}

func (c *CrashFS) remove(path string) error {
	if err := c.step("remove " + filepath.Base(path)); err != nil {
		return err
	}
	if err := (osFS{}).remove(path); err != nil {
		return err
	}
	delete(c.live, c.name(path))
	return nil
}

func (c *CrashFS) syncDir(dir string) error {
	if err := c.step("syncDir"); err != nil {
		return err
	}
	c.durable = make(map[string]*inode, len(c.live))
	for name, ino := range c.live {
		c.durable[name] = ino
	}
	return nil
}

type crashFile struct {
	fs   *CrashFS
	real file
	ino  *inode
}

func (f *crashFile) Name() string { return f.real.Name() }

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write"); err != nil {
		return 0, err
	}
	n, err := f.real.Write(p)
	before := len(f.ino.data)
	f.ino.data = append(f.ino.data[:before:before], p[:n]...)
	f.fs.tornIno, f.fs.tornLen = f.ino, before+n/2
	return n, err
}

func (f *crashFile) Truncate(size int64) error {
	if err := f.fs.step("truncate"); err != nil {
		return err
	}
	if err := f.real.Truncate(size); err != nil {
		return err
	}
	f.ino.data = f.ino.data[:size:size]
	return nil
}

func (f *crashFile) Sync() error {
	if err := f.fs.step("sync"); err != nil {
		return err
	}
	f.ino.synced = append([]byte(nil), f.ino.data...)
	return nil
}

// Close releases the real handle even after the crash, so a crashed run
// leaks no descriptors.
func (f *crashFile) Close() error {
	err := f.fs.step("close")
	if cerr := f.real.Close(); err == nil {
		err = cerr
	}
	return err
}
