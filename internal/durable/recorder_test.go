package durable_test

import (
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
)

// recorder is an in-memory durable.FS that logs every call that changes
// what a disk holds, so that a test can rebuild each disk a power cut
// after any prefix of the log may leave (crashes). The disk model is
// the one DESIGN §10 states: a file's bytes are durable up to its last
// Sync, and a create, mkdir, rename or remove once its directory has been
// synced. Reads, seeks, stats and closes are not logged.
type recorder struct {
	mu    sync.Mutex
	base  []string          // the directories there at the start, durable
	dirs  map[string]bool   // the live directories
	names map[string]*inode // the live namespace
	log   []op
	temps int
	// fail, when set, sees each call before it takes effect; an error it
	// returns is the call's, and the call is neither made nor logged.
	fail func(op) error
	// synced, when set, runs at the end of each file Sync that took
	// effect, outside the recorder's lock: a test can hold the syncer there,
	// after its fsync began and before it returns.
	synced func()
	// torn makes crashes also cut each file's bytes past its last Sync at
	// every 512-byte boundary: a sector-torn write.
	torn bool
}

type inode struct{ data []byte }

type opKind uint8

const (
	opCreate opKind = iota
	opMkdir
	opRename
	opRemove
	opSyncDir
	opWrite
	opTruncate
	opSync
)

// op is one logged call: path is the name it acts on (a rename's source),
// to a rename's target, off a write's offset or a truncate's size.
type op struct {
	kind     opKind
	path, to string
	ino      *inode
	off      int64
	data     []byte
}

// dir is the directory whose sync makes a namespace op durable.
func (o op) dir() string {
	if o.kind == opRename {
		return filepath.Dir(o.to)
	}
	return filepath.Dir(o.path)
}

// applyTo returns b with the write or truncate o done to it.
func (o op) applyTo(b []byte) []byte {
	end := o.off
	if o.kind == opWrite {
		end += int64(len(o.data))
	}
	if grow := end - int64(len(b)); grow > 0 {
		b = append(b, make([]byte, grow)...)
	}
	if o.kind == opTruncate {
		return b[:o.off]
	}
	copy(b[o.off:], o.data)
	return b
}

func newRecorder(base ...string) *recorder {
	r := &recorder{base: base, dirs: map[string]bool{}, names: map[string]*inode{}}
	for _, d := range base {
		r.dirs[d] = true
	}
	return r
}

// record logs o, unless fail refuses it. r.mu is held.
func (r *recorder) record(o op) error {
	if r.fail != nil {
		if err := r.fail(o); err != nil {
			return err
		}
	}
	r.log = append(r.log, o)
	return nil
}

// calls is the length of the log so far.
func (r *recorder) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (r *recorder) OpenFile(name string, flag int, _ fs.FileMode) (durable.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ino := r.names[name]
	if ino == nil {
		if flag&os.O_CREATE == 0 || !r.dirs[filepath.Dir(name)] {
			return nil, notExist("open", name)
		}
		ino = &inode{}
		if err := r.record(op{kind: opCreate, path: name, ino: ino}); err != nil {
			return nil, err
		}
		r.names[name] = ino
	}
	return &memFile{r: r, ino: ino, name: name}, nil
}

func (r *recorder) ReadFile(name string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ino := r.names[name]; ino != nil {
		return slices.Clone(ino.data), nil
	}
	return nil, notExist("open", name)
}

func (r *recorder) CreateTemp(dir, pattern string) (durable.File, error) {
	r.mu.Lock()
	r.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(r.temps), 1))
	r.mu.Unlock()
	return r.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o600)
}

func (r *recorder) MkdirAll(path string, _ fs.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var missing []string
	for d := path; !r.dirs[d]; d = filepath.Dir(d) {
		if d == filepath.Dir(d) {
			return notExist("mkdir", path)
		}
		missing = append(missing, d)
	}
	for _, d := range slices.Backward(missing) {
		if err := r.record(op{kind: opMkdir, path: d}); err != nil {
			return err
		}
		r.dirs[d] = true
	}
	return nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ino := r.names[oldpath]
	if ino == nil || !r.dirs[filepath.Dir(newpath)] {
		return notExist("rename", oldpath)
	}
	if filepath.Dir(oldpath) != filepath.Dir(newpath) {
		return fmt.Errorf("recorder: rename %s to another directory", oldpath)
	}
	if err := r.record(op{kind: opRename, path: oldpath, to: newpath, ino: ino}); err != nil {
		return err
	}
	delete(r.names, oldpath)
	r.names[newpath] = ino
	return nil
}

func (r *recorder) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] == nil {
		return notExist("remove", name)
	}
	if err := r.record(op{kind: opRemove, path: name}); err != nil {
		return err
	}
	delete(r.names, name)
	return nil
}

func (r *recorder) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirs[dir] {
		return notExist("sync", dir)
	}
	return r.record(op{kind: opSyncDir, path: dir})
}

// memFile is an open file of a recorder.
type memFile struct {
	r    *recorder
	ino  *inode
	name string
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	o := op{kind: opWrite, path: f.name, ino: f.ino, off: f.off, data: slices.Clone(p)}
	if err := f.r.record(o); err != nil {
		return 0, err
	}
	f.ino.data = o.applyTo(f.ino.data)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	return fileInfo{name: filepath.Base(f.name), size: int64(len(f.ino.data))}, nil
}

func (f *memFile) Truncate(size int64) error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	o := op{kind: opTruncate, path: f.name, ino: f.ino, off: size}
	if err := f.r.record(o); err != nil {
		return err
	}
	f.ino.data = o.applyTo(f.ino.data)
	return nil
}

func (f *memFile) Sync() error {
	f.r.mu.Lock()
	err := f.r.record(op{kind: opSync, path: f.name, ino: f.ino})
	synced := f.r.synced
	f.r.mu.Unlock()
	if err == nil && synced != nil {
		synced()
	}
	return err
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

type fileInfo struct {
	name string
	size int64
}

func (fi fileInfo) Name() string       { return fi.name }
func (fi fileInfo) Size() int64        { return fi.size }
func (fi fileInfo) Mode() fs.FileMode  { return 0o600 }
func (fi fileInfo) ModTime() time.Time { return time.Time{} }
func (fi fileInfo) IsDir() bool        { return false }
func (fi fileInfo) Sys() any           { return nil }

// maxUnsynced bounds the calls a cut may leave undecided: every subset of
// them is a disk, so each one doubles the disks to check.
const maxUnsynced = 12

// crashes calls check with each disk a power cut may leave after the first
// n calls of the log, for every n from from to the end of the log, and
// returns how many disks it checked. A disk is a fresh recorder; it holds
// what the synced calls made durable and any subset of the calls that no
// sync has settled yet, namespace and data alike — and with torn set, each
// of those cut short at a sector boundary past a file's synced length.
func (r *recorder) crashes(from int, check func(n int, disk *recorder)) int {
	r.mu.Lock()
	log := slices.Clone(r.log)
	r.mu.Unlock()
	disks := 0
	for n := from; n <= len(log); n++ {
		dirs := map[string]bool{}
		for _, d := range r.base {
			dirs[d] = true
		}
		names := map[string]*inode{}
		data := map[*inode][]byte{} // each file's bytes as of its last Sync
		var open []op               // what no sync has settled yet
		for _, o := range log[:n] {
			switch o.kind {
			case opSyncDir:
				open = slices.DeleteFunc(open, func(p op) bool {
					if p.kind <= opRemove && p.dir() == o.path {
						applyName(p, dirs, names)
						return true
					}
					return false
				})
			case opSync:
				open = slices.DeleteFunc(open, func(p op) bool {
					if p.ino == o.ino && p.kind >= opWrite {
						data[o.ino] = p.applyTo(data[o.ino])
						return true
					}
					return false
				})
			default:
				open = append(open, o)
			}
		}
		if len(open) > maxUnsynced {
			panic(fmt.Sprintf("recorder: %d calls unsettled at a cut, more than %d", len(open), maxUnsynced))
		}
		for kept := 0; kept < 1<<len(open); kept++ {
			d, ns, bytes := maps.Clone(dirs), maps.Clone(names), map[*inode][]byte{}
			for ino, b := range data {
				bytes[ino] = slices.Clone(b)
			}
			for i, o := range open {
				switch {
				case kept&(1<<i) == 0:
				case o.kind >= opWrite:
					bytes[o.ino] = o.applyTo(bytes[o.ino])
				default:
					applyName(o, d, ns)
				}
			}
			check(n, r.disk(d, ns, bytes))
			disks++
			for ino, b := range bytes {
				for cut := (len(data[ino])/sector + 1) * sector; r.torn && cut < len(b); cut += sector {
					torn := maps.Clone(bytes)
					torn[ino] = b[:cut]
					check(n, r.disk(d, ns, torn))
					disks++
				}
			}
		}
	}
	return disks
}

// sector is the unit a torn write is cut at.
const sector = 512

// disk builds the recorder that holds the directories dirs, the names ns
// and each file's bytes.
func (r *recorder) disk(dirs map[string]bool, ns map[string]*inode, bytes map[*inode][]byte) *recorder {
	disk := newRecorder(r.base...)
	for dir := range dirs {
		if reachable(dir, dirs) {
			disk.dirs[dir] = true
		}
	}
	for name, ino := range ns {
		if disk.dirs[filepath.Dir(name)] {
			disk.names[name] = &inode{data: slices.Clone(bytes[ino])}
		}
	}
	return disk
}

// applyName makes the namespace op o durable in dirs and names.
func applyName(o op, dirs map[string]bool, names map[string]*inode) {
	switch o.kind {
	case opCreate:
		names[o.path] = o.ino
	case opMkdir:
		dirs[o.path] = true
	case opRename:
		delete(names, o.path)
		names[o.to] = o.ino
	case opRemove:
		delete(names, o.path)
	}
}

// reachable says whether every directory from dir up to the root is in dirs.
func reachable(dir string, dirs map[string]bool) bool {
	for ; dir != filepath.Dir(dir); dir = filepath.Dir(dir) {
		if !dirs[dir] {
			return false
		}
	}
	return true
}
