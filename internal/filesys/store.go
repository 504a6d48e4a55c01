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

// extentSize is the unit a file's storage is allocated in. A file is a table
// of extents, so growing it allocates the extents the write touches and
// never copies or discards what the file already holds.
const extentSize = 64 << 10

// zeroExtent is what a hole reads as.
var zeroExtent [extentSize]byte

// fileState is the underlying state of one file: what the server owns and
// Spring objects point at. When the store has a WAL attached, wal points
// at it and every mutation is logged and group-committed before the
// operation returns.
//
// extents[i] holds the bytes from i*extentSize on and covers the file's
// length. A nil extent is a hole, never written and never allocated, and
// bytes past an extent's own length read as zeros like a hole's: only
// extent 0 of a file that fits in it is ever shorter than extentSize.
type fileState struct {
	mu      sync.Mutex
	name    string
	length  int64
	extents [][]byte
	version uint32
	wal     *WAL
}

func (st *fileState) size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.length
}

// read appends the file's bytes in [offset, offset+count) to dst — one copy,
// file to the reply's tail on the serve path — clamping the range to the
// file first, so count never sizes an allocation.
func (st *fileState) read(offset int64, count int32, dst []byte) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if offset < 0 || offset >= st.length || count <= 0 {
		return dst
	}
	return st.appendRange(dst, offset, min(offset+int64(count), st.length))
}

// appendRange appends the bytes in [off, end), a range inside the file, to
// dst extent by extent. The caller holds st.mu.
func (st *fileState) appendRange(dst []byte, off, end int64) []byte {
	for off < end {
		ext, lo := st.extents[off/extentSize], int(off%extentSize)
		n := int(min(end-off, int64(extentSize-lo)))
		if lo < len(ext) {
			ext = ext[lo:min(lo+n, len(ext))]
		} else {
			ext = nil
		}
		dst = append(dst, ext...)
		if hole := n - len(ext); hole > 0 {
			dst = append(dst, zeroExtent[:hole]...)
		}
		off += int64(n)
	}
	return dst
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
// gets, and the one place a file grows: by the extents the write touches,
// whatever lies between them and the old end staying a hole. Files do not
// shrink. The caller holds st.mu.
func (st *fileState) apply(offset int64, data []byte) error {
	if err := checkRange(offset, len(data)); err != nil {
		return err
	}
	end := offset + int64(len(data))
	if need := int((end + extentSize - 1) / extentSize); need > len(st.extents) {
		st.extents = append(st.extents, make([][]byte, need-len(st.extents))...)
	}
	for off := offset; len(data) > 0; {
		i, lo := int(off/extentSize), int(off%extentSize)
		n := min(len(data), extentSize-lo)
		copy(st.extent(i, lo+n)[lo:], data[:n])
		data = data[n:]
		off += int64(n)
	}
	st.length = max(st.length, end)
	return nil
}

// extent returns extent i allocated to at least n bytes. An extent is
// allocated whole, except that a file within its first extent grows by
// doubling as a plain slice would, so a small file costs what it holds.
func (st *fileState) extent(i, n int) []byte {
	ext := st.extents[i]
	if n <= len(ext) {
		return ext
	}
	size := extentSize
	if len(st.extents) == 1 {
		size = min(extentSize, max(n, 2*len(ext)))
	}
	grown := make([]byte, size)
	copy(grown, ext)
	st.extents[i] = grown
	return grown
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

// bytesHeld returns the bytes of file content the store holds, holes
// counted: what a checkpoint of it would write.
func (s *Store) bytesHeld() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.files {
		n += st.size()
	}
	return n
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
	return FileInfo{Name: f.st.name, Size: f.st.length, Version: f.st.version}, nil
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
