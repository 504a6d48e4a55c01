// Package filesys implements the Spring file system of §7/§8: the service
// whose type family (file, cacheable_file, replicated_file,
// reconnectable_file) demonstrates that radically different object
// mechanisms can coexist behind the same application-visible interfaces.
// The interfaces are defined in filesys.idl; gen.go is produced from it by
// cmd/idlgen.
package filesys

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stubs"
)

// Remote error codes raised by file system operations.
const (
	CodeNotFound  uint32 = 1201
	CodeExists    uint32 = 1202
	CodeBadOffset uint32 = 1203
)

// MaxFileSize is the ceiling on a file's length: a write ending past it, or
// starting below zero, is refused with CodeBadOffset instead of sizing an
// allocation from a number the client chose.
const MaxFileSize = 1 << 30

// IsNotFound reports whether err is the file-not-found remote exception.
func IsNotFound(err error) bool { return stubs.CodeOf(err) == CodeNotFound }

// fileState is the underlying state of one file: what the server owns and
// Spring objects point at. When the store has a WAL attached, wal points
// at it and every mutation is logged and group-committed before the
// operation returns.
type fileState struct {
	mu      sync.Mutex
	name    string
	data    []byte
	version uint32
	wal     *WAL
}

func (st *fileState) size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return int64(len(st.data))
}

// read appends the file's bytes in [offset, offset+count) to dst — one copy,
// file to the reply's tail on the serve path — clamping the range to the
// file first, so count never sizes an allocation.
func (st *fileState) read(offset int64, count int32, dst []byte) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if offset < 0 || offset >= int64(len(st.data)) || count <= 0 {
		return dst
	}
	end := min(offset+int64(count), int64(len(st.data)))
	return append(dst, st.data[offset:end]...)
}

// checkRange is the one bounds check on a write, live or replayed.
func checkRange(offset int64, n int) error {
	if offset < 0 || offset > MaxFileSize-int64(n) {
		return &stubs.RemoteError{Code: CodeBadOffset,
			Msg: fmt.Sprintf("filesys: write of %d bytes at offset %d is outside [0, %d]", n, offset, int64(MaxFileSize))}
	}
	return nil
}

// apply copies data into the file at offset — the one copy a written byte
// gets, and the one place a file grows. Capacity doubles, so extending a
// file by sequential writes copies O(n) bytes in total rather than the
// whole file per write. The caller holds st.mu.
func (st *fileState) apply(offset int64, data []byte) error {
	if err := checkRange(offset, len(data)); err != nil {
		return err
	}
	end := int(offset) + len(data)
	if end > cap(st.data) {
		st.data = append(make([]byte, 0, max(end, 2*cap(st.data))), st.data...)
	}
	if end > len(st.data) {
		st.data = st.data[:end] // never written, so still zero: files do not shrink
	}
	copy(st.data[offset:end], data)
	return nil
}

// write applies the bytes in memory and, with a WAL attached, blocks on
// the record's group commit before acknowledging. The apply and the log
// enqueue happen under the file lock — so log order matches apply order —
// and the fsync wait happens outside it. data is borrowed (see FileServer):
// apply copies it and the record references it only until wait returns.
func (st *fileState) write(offset int64, data []byte) (int32, error) {
	st.mu.Lock()
	if err := st.apply(offset, data); err != nil {
		st.mu.Unlock()
		return 0, err
	}
	st.version++
	var p *walPending
	if st.wal != nil {
		p = st.wal.append(walRecord{
			op: walOpWrite, name: st.name,
			offset: offset, version: st.version, data: data,
		})
	}
	st.mu.Unlock()
	if err := p.wait(); err != nil {
		return 0, err
	}
	return int32(len(data)), nil
}

func (st *fileState) ver() uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.version
}

// Store is a server's collection of file state.
type Store struct {
	mu    sync.Mutex
	files map[string]*fileState
	wal   *WAL
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{files: make(map[string]*fileState)}
}

// get looks a file up.
func (s *Store) get(name string) (*fileState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.files[name]
	if !ok {
		return nil, &stubs.RemoteError{Code: CodeNotFound, Msg: fmt.Sprintf("filesys: no such file %q", name)}
	}
	return st, nil
}

// create makes a new empty file, durably when a WAL is attached.
func (s *Store) create(name string) (*fileState, error) {
	s.mu.Lock()
	if _, ok := s.files[name]; ok {
		s.mu.Unlock()
		return nil, &stubs.RemoteError{Code: CodeExists, Msg: fmt.Sprintf("filesys: %q already exists", name)}
	}
	st := &fileState{name: name, wal: s.wal}
	s.files[name] = st
	var p *walPending
	if s.wal != nil {
		p = s.wal.append(walRecord{op: walOpCreate, name: name})
	}
	s.mu.Unlock()
	if err := p.wait(); err != nil {
		return nil, err
	}
	return st, nil
}

// remove deletes a file, durably when a WAL is attached.
func (s *Store) remove(name string) error {
	s.mu.Lock()
	if _, ok := s.files[name]; !ok {
		s.mu.Unlock()
		return &stubs.RemoteError{Code: CodeNotFound, Msg: fmt.Sprintf("filesys: no such file %q", name)}
	}
	delete(s.files, name)
	var p *walPending
	if s.wal != nil {
		p = s.wal.append(walRecord{op: walOpRemove, name: name})
	}
	s.mu.Unlock()
	return p.wait()
}

// AttachWAL binds w to the store: every subsequent mutation is logged and
// group-committed before it is acknowledged. Called by OpenWAL after
// recovery, before the store serves traffic.
func (s *Store) AttachWAL(w *WAL) {
	s.mu.Lock()
	s.wal = w
	for _, st := range s.files {
		st.mu.Lock()
		st.wal = w
		st.mu.Unlock()
	}
	s.mu.Unlock()
}

// list returns the sorted file names.
func (s *Store) list() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fileImpl implements the generated FileServer over one file's state.
type fileImpl struct {
	st *fileState
}

// Size implements FileServer.
func (f fileImpl) Size() (int64, error) { return f.st.size(), nil }

// Read implements FileServer.
func (f fileImpl) Read(offset int64, count int32, dst []byte) ([]byte, error) {
	return f.st.read(offset, count, dst), nil
}

// Write implements FileServer. With a WAL attached the write is
// acknowledged only once its log record is fsynced (group commit).
func (f fileImpl) Write(offset int64, data []byte) (int32, error) {
	return f.st.write(offset, data)
}

// Version implements FileServer.
func (f fileImpl) Version() (uint32, error) { return f.st.ver(), nil }

// Name implements FileServer.
func (f fileImpl) Name() (string, error) { return f.st.name, nil }

// Stat implements FileServer.
func (f fileImpl) Stat() (FileInfo, error) {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	return FileInfo{Name: f.st.name, Size: int64(len(f.st.data)), Version: f.st.version}, nil
}

// cacheableImpl adds the cacheable_file operations.
type cacheableImpl struct {
	fileImpl
}

// Flush implements CacheableFileServer. The store is write-through, so
// flush has nothing to push; it exists so clients can force their local
// cache manager to drop entries (it is in the invalidating op set).
func (cacheableImpl) Flush() error { return nil }

// replicatedImpl adds the replicated_file operations.
type replicatedImpl struct {
	fileImpl
	size func() int
}

// Replicas implements ReplicatedFileServer.
func (r replicatedImpl) Replicas() (int32, error) { return int32(r.size()), nil }
