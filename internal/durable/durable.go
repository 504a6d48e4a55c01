// Package durable is the one way this tree reaches stable storage, and
// Replace its one whole-file rewrite. The code is written against what a
// power cut may leave (DESIGN §10): bytes written since a file's last Sync
// may be lost, and a create, rename or remove lasts once its directory is
// synced.
package durable

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the file system stable storage goes through.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	MkdirAll(path string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error // makes the creates, renames and removes in dir durable
}

// File is an open file of an FS; an *os.File is one.
type File interface {
	io.ReadWriteSeeker
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
	Name() string
}

// Disk returns the file system stable storage goes to: the real one, save
// under this package's tests, which record what is done to it.
func Disk() FS { return disk }

var disk FS = osFS{}

// osFS is the real file system. A failed open returns a nil *os.File as a
// non-nil File; every caller looks at the error first.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read
	return d.Sync()
}

// Replace rewrites path as what fill writes, so that a crash at any instant
// leaves either the old bytes or the new ones: fill writes a temp file in
// path's directory, which is synced, closed and renamed over path, and then
// the directory is synced.
func Replace(fsys FS, path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = fill(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err == nil {
		return fsys.SyncDir(dir)
	}
	_ = fsys.Remove(tmp.Name()) // the write's error is the one to report
	return fmt.Errorf("durable: writing %s: %w", path, err)
}
