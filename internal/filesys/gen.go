// Code generated by idlgen from internal/filesys/filesys.idl. DO NOT EDIT.

package filesys

import (
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/stubs"
)

// Silence unused-import errors in interface sets that do not
// exercise every helper.
var _ = buffer.New
var _ core.OpNum
var _ = stubs.Call

// FileInfo is the IDL struct file_info.
type FileInfo struct {
	Name    string
	Size    int64
	Version uint32
}

// writeFileInfo marshals v field by field.
func writeFileInfo(b *buffer.Buffer, v FileInfo) error {
	b.WriteString(v.Name)
	b.WriteInt64(v.Size)
	b.WriteUint32(v.Version)
	return nil
}

// readFileInfo unmarshals one FileInfo; with borrow, byte sequences in it alias b
// instead of being copied out.
func readFileInfo(b *buffer.Buffer, borrow bool) (FileInfo, error) {
	var out FileInfo
	err := func() error {
		var err error
		_ = err
		if out.Name, err = b.ReadString(); err != nil {
			return err
		}
		if out.Size, err = b.ReadInt64(); err != nil {
			return err
		}
		if out.Version, err = b.ReadUint32(); err != nil {
			return err
		}
		return nil
	}()
	return out, err
}

// ---------------------------------------------------------------------
// interface spring.file

// FileType is the interface's runtime type identifier.
const FileType core.TypeID = "spring.file"

// Operation numbers (stable name hashes; see idl.OpNumOf).
const (
	FileSizeOp    core.OpNum = 0x23a0d95c
	FileReadOp    core.OpNum = 0xcedfa3c5
	FileWriteOp   core.OpNum = 0xbe269f5c
	FileVersionOp core.OpNum = 0x4671ae97
	FileNameOp    core.OpNum = 0x8d39bde6
	FileStatOp    core.OpNum = 0xd33b3297
)

// FileMT is the method table stubs plug together with a subcontract.
var FileMT = &core.MTable{
	Type:      FileType,
	DefaultSC: 1, // singleton
	Ops:       []string{"size", "read", "write", "version", "name", "stat"},
}

func init() {
	core.MustRegisterType(FileType, core.ObjectType)
	core.MustRegisterMTable(FileMT)
}

// File is the client view of spring.file objects. Opts is the invocation
// context attached to every call made through this view; see With.
type File struct {
	Obj  *core.Object
	Opts []core.CallOption
}

// IsNil reports whether the reference is nil.
func (c File) IsNil() bool { return c.Obj == nil }

// With returns a view of the same object whose calls carry the given
// invocation-context options (core.WithDeadline, core.WithCancel,
// core.WithTrace) in addition to any already attached.
func (c File) With(opts ...core.CallOption) File {
	c.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)
	return c
}

// NarrowFile narrows an object to spring.file, failing if the dynamic type
// does not support it.
func NarrowFile(obj *core.Object) (File, bool) {
	if obj == nil || !obj.Is(FileType) {
		return File{}, false
	}
	return File{Obj: obj}, true
}

// Size invokes the size operation.
func (c File) Size() (int64, error) {
	var ret0 int64 = 0
	err := stubs.Call(c.Obj, FileSizeOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			if ret0, err = b.ReadInt64(); err != nil {
				return err
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Read invokes the read operation.
func (c File) Read(offset int64, count int32) ([]byte, error) {
	var ret0 []byte = nil
	err := stubs.Call(c.Obj, FileReadOp,
		func(b *buffer.Buffer) error {
			b.WriteInt64(offset)
			b.WriteInt32(count)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			p1, err := b.ReadBytes()
			if err != nil {
				return err
			}
			ret0 = append([]byte(nil), p1...)
			return nil
		}, c.Opts...)
	return ret0, err
}

// Write invokes the write operation.
func (c File) Write(offset int64, data []byte) (int32, error) {
	var ret0 int32 = 0
	err := stubs.Call(c.Obj, FileWriteOp,
		func(b *buffer.Buffer) error {
			b.WriteInt64(offset)
			b.WriteBytes(data)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			if ret0, err = b.ReadInt32(); err != nil {
				return err
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Version invokes the version operation.
func (c File) Version() (uint32, error) {
	var ret0 uint32 = 0
	err := stubs.Call(c.Obj, FileVersionOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			if ret0, err = b.ReadUint32(); err != nil {
				return err
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Name invokes the name operation.
func (c File) Name() (string, error) {
	var ret0 string = ""
	err := stubs.Call(c.Obj, FileNameOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			if ret0, err = b.ReadString(); err != nil {
				return err
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Stat invokes the stat operation.
func (c File) Stat() (FileInfo, error) {
	var ret0 FileInfo = FileInfo{}
	err := stubs.Call(c.Obj, FileStatOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			s2, err := readFileInfo(b, false)
			if err != nil {
				return err
			}
			ret0 = s2
			return nil
		}, c.Opts...)
	return ret0, err
}

// FileServer is the server application interface for spring.file.
// []byte arguments, struct fields included, are borrowed: they alias the
// request until the method returns, so it copies what it keeps. A []byte
// return value is appended to dst, the reply's own tail, and returned.
type FileServer interface {
	Size() (int64, error)
	Read(offset int64, count int32, dst []byte) ([]byte, error)
	Write(offset int64, data []byte) (int32, error)
	Version() (uint32, error)
	Name() (string, error)
	Stat() (FileInfo, error)
}

// NewFileSkeleton dispatches incoming calls into impl. env is the
// server's environment (used to unmarshal object-typed arguments).
func NewFileSkeleton(env *core.Env, impl FileServer) stubs.Skeleton {
	_ = env
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case 0x23a0d95c: // size
			r0, err := impl.Size()
			if err != nil {
				return err
			}
			results.WriteInt64(r0)
			return nil
		case 0xcedfa3c5: // read
			var a0 int64 = 0
			var a1 int32 = 0
			{
				var err error
				_ = err
				if a0, err = args.ReadInt64(); err != nil {
					return err
				}
				if a1, err = args.ReadInt32(); err != nil {
					return err
				}
			}
			r0, err := impl.Read(a0, a1, results.ReserveBytes())
			if err != nil {
				return err
			}
			results.CommitBytes(r0)
			return nil
		case 0xbe269f5c: // write
			var a0 int64 = 0
			var a1 []byte = nil
			{
				var err error
				_ = err
				if a0, err = args.ReadInt64(); err != nil {
					return err
				}
				p3, err := args.ReadBytes()
				if err != nil {
					return err
				}
				a1 = p3
			}
			r0, err := impl.Write(a0, a1)
			if err != nil {
				return err
			}
			results.WriteInt32(r0)
			return nil
		case 0x4671ae97: // version
			r0, err := impl.Version()
			if err != nil {
				return err
			}
			results.WriteUint32(r0)
			return nil
		case 0x8d39bde6: // name
			r0, err := impl.Name()
			if err != nil {
				return err
			}
			results.WriteString(r0)
			return nil
		case 0xd33b3297: // stat
			r0, err := impl.Stat()
			if err != nil {
				return err
			}
			if err := writeFileInfo(results, r0); err != nil {
				return err
			}
			return nil
		default:
			return stubs.ErrBadOp
		}
	})
}

// ---------------------------------------------------------------------
// interface spring.cacheable_file

// CacheableFileType is the interface's runtime type identifier.
const CacheableFileType core.TypeID = "spring.cacheable_file"

// Operation numbers (stable name hashes; see idl.OpNumOf).
const (
	CacheableFileFlushOp core.OpNum = 0xb2f3fe9d
)

// CacheableFileMT is the method table stubs plug together with a subcontract.
var CacheableFileMT = &core.MTable{
	Type:      CacheableFileType,
	DefaultSC: 1, // singleton
	Ops:       []string{"size", "read", "write", "version", "name", "stat", "flush"},
}

func init() {
	core.MustRegisterType(CacheableFileType, FileType)
	core.MustRegisterMTable(CacheableFileMT)
}

// CacheableFile is the client view of spring.cacheable_file objects. Opts is the invocation
// context attached to every call made through this view; see With.
type CacheableFile struct {
	Obj  *core.Object
	Opts []core.CallOption
}

// IsNil reports whether the reference is nil.
func (c CacheableFile) IsNil() bool { return c.Obj == nil }

// With returns a view of the same object whose calls carry the given
// invocation-context options (core.WithDeadline, core.WithCancel,
// core.WithTrace) in addition to any already attached.
func (c CacheableFile) With(opts ...core.CallOption) CacheableFile {
	c.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)
	return c
}

// AsFile widens the reference to its spring.file base interface.
func (c CacheableFile) AsFile() File { return File{Obj: c.Obj, Opts: c.Opts} }

// NarrowCacheableFile narrows an object to spring.cacheable_file, failing if the dynamic type
// does not support it.
func NarrowCacheableFile(obj *core.Object) (CacheableFile, bool) {
	if obj == nil || !obj.Is(CacheableFileType) {
		return CacheableFile{}, false
	}
	return CacheableFile{Obj: obj}, true
}

// Size invokes the size operation through the File view.
func (c CacheableFile) Size() (int64, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Size()
}

// Read invokes the read operation through the File view.
func (c CacheableFile) Read(offset int64, count int32) ([]byte, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Read(offset, count)
}

// Write invokes the write operation through the File view.
func (c CacheableFile) Write(offset int64, data []byte) (int32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Write(offset, data)
}

// Version invokes the version operation through the File view.
func (c CacheableFile) Version() (uint32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Version()
}

// Name invokes the name operation through the File view.
func (c CacheableFile) Name() (string, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Name()
}

// Stat invokes the stat operation through the File view.
func (c CacheableFile) Stat() (FileInfo, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Stat()
}

// Flush invokes the flush operation.
func (c CacheableFile) Flush() error {
	err := stubs.Call(c.Obj, CacheableFileFlushOp,
		nil,
		nil, c.Opts...)
	return err
}

// CacheableFileServer is the server application interface for spring.cacheable_file.
// []byte arguments, struct fields included, are borrowed: they alias the
// request until the method returns, so it copies what it keeps. A []byte
// return value is appended to dst, the reply's own tail, and returned.
type CacheableFileServer interface {
	FileServer
	Flush() error
}

// NewCacheableFileSkeleton dispatches incoming calls into impl. env is the
// server's environment (used to unmarshal object-typed arguments).
func NewCacheableFileSkeleton(env *core.Env, impl CacheableFileServer) stubs.Skeleton {
	_ = env
	fileSkel := NewFileSkeleton(env, impl)
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case 0xb2f3fe9d: // flush
			err := impl.Flush()
			if err != nil {
				return err
			}
			return nil
		case FileSizeOp, FileReadOp, FileWriteOp, FileVersionOp, FileNameOp, FileStatOp: // from spring.file
			return fileSkel.Dispatch(op, args, results)
		default:
			return stubs.ErrBadOp
		}
	})
}

// ---------------------------------------------------------------------
// interface spring.replicated_file

// ReplicatedFileType is the interface's runtime type identifier.
const ReplicatedFileType core.TypeID = "spring.replicated_file"

// Operation numbers (stable name hashes; see idl.OpNumOf).
const (
	ReplicatedFileReplicasOp core.OpNum = 0x1bb8553c
)

// ReplicatedFileMT is the method table stubs plug together with a subcontract.
var ReplicatedFileMT = &core.MTable{
	Type:      ReplicatedFileType,
	DefaultSC: 1, // singleton
	Ops:       []string{"size", "read", "write", "version", "name", "stat", "replicas"},
}

func init() {
	core.MustRegisterType(ReplicatedFileType, FileType)
	core.MustRegisterMTable(ReplicatedFileMT)
}

// ReplicatedFile is the client view of spring.replicated_file objects. Opts is the invocation
// context attached to every call made through this view; see With.
type ReplicatedFile struct {
	Obj  *core.Object
	Opts []core.CallOption
}

// IsNil reports whether the reference is nil.
func (c ReplicatedFile) IsNil() bool { return c.Obj == nil }

// With returns a view of the same object whose calls carry the given
// invocation-context options (core.WithDeadline, core.WithCancel,
// core.WithTrace) in addition to any already attached.
func (c ReplicatedFile) With(opts ...core.CallOption) ReplicatedFile {
	c.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)
	return c
}

// AsFile widens the reference to its spring.file base interface.
func (c ReplicatedFile) AsFile() File { return File{Obj: c.Obj, Opts: c.Opts} }

// NarrowReplicatedFile narrows an object to spring.replicated_file, failing if the dynamic type
// does not support it.
func NarrowReplicatedFile(obj *core.Object) (ReplicatedFile, bool) {
	if obj == nil || !obj.Is(ReplicatedFileType) {
		return ReplicatedFile{}, false
	}
	return ReplicatedFile{Obj: obj}, true
}

// Size invokes the size operation through the File view.
func (c ReplicatedFile) Size() (int64, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Size()
}

// Read invokes the read operation through the File view.
func (c ReplicatedFile) Read(offset int64, count int32) ([]byte, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Read(offset, count)
}

// Write invokes the write operation through the File view.
func (c ReplicatedFile) Write(offset int64, data []byte) (int32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Write(offset, data)
}

// Version invokes the version operation through the File view.
func (c ReplicatedFile) Version() (uint32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Version()
}

// Name invokes the name operation through the File view.
func (c ReplicatedFile) Name() (string, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Name()
}

// Stat invokes the stat operation through the File view.
func (c ReplicatedFile) Stat() (FileInfo, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Stat()
}

// Replicas invokes the replicas operation.
func (c ReplicatedFile) Replicas() (int32, error) {
	var ret0 int32 = 0
	err := stubs.Call(c.Obj, ReplicatedFileReplicasOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			if ret0, err = b.ReadInt32(); err != nil {
				return err
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// ReplicatedFileServer is the server application interface for spring.replicated_file.
// []byte arguments, struct fields included, are borrowed: they alias the
// request until the method returns, so it copies what it keeps. A []byte
// return value is appended to dst, the reply's own tail, and returned.
type ReplicatedFileServer interface {
	FileServer
	Replicas() (int32, error)
}

// NewReplicatedFileSkeleton dispatches incoming calls into impl. env is the
// server's environment (used to unmarshal object-typed arguments).
func NewReplicatedFileSkeleton(env *core.Env, impl ReplicatedFileServer) stubs.Skeleton {
	_ = env
	fileSkel := NewFileSkeleton(env, impl)
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case 0x1bb8553c: // replicas
			r0, err := impl.Replicas()
			if err != nil {
				return err
			}
			results.WriteInt32(r0)
			return nil
		case FileSizeOp, FileReadOp, FileWriteOp, FileVersionOp, FileNameOp, FileStatOp: // from spring.file
			return fileSkel.Dispatch(op, args, results)
		default:
			return stubs.ErrBadOp
		}
	})
}

// ---------------------------------------------------------------------
// interface spring.reconnectable_file

// ReconnectableFileType is the interface's runtime type identifier.
const ReconnectableFileType core.TypeID = "spring.reconnectable_file"

// Operation numbers (stable name hashes; see idl.OpNumOf).
const ()

// ReconnectableFileMT is the method table stubs plug together with a subcontract.
var ReconnectableFileMT = &core.MTable{
	Type:      ReconnectableFileType,
	DefaultSC: 1, // singleton
	Ops:       []string{"size", "read", "write", "version", "name", "stat"},
}

func init() {
	core.MustRegisterType(ReconnectableFileType, FileType)
	core.MustRegisterMTable(ReconnectableFileMT)
}

// ReconnectableFile is the client view of spring.reconnectable_file objects. Opts is the invocation
// context attached to every call made through this view; see With.
type ReconnectableFile struct {
	Obj  *core.Object
	Opts []core.CallOption
}

// IsNil reports whether the reference is nil.
func (c ReconnectableFile) IsNil() bool { return c.Obj == nil }

// With returns a view of the same object whose calls carry the given
// invocation-context options (core.WithDeadline, core.WithCancel,
// core.WithTrace) in addition to any already attached.
func (c ReconnectableFile) With(opts ...core.CallOption) ReconnectableFile {
	c.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)
	return c
}

// AsFile widens the reference to its spring.file base interface.
func (c ReconnectableFile) AsFile() File { return File{Obj: c.Obj, Opts: c.Opts} }

// NarrowReconnectableFile narrows an object to spring.reconnectable_file, failing if the dynamic type
// does not support it.
func NarrowReconnectableFile(obj *core.Object) (ReconnectableFile, bool) {
	if obj == nil || !obj.Is(ReconnectableFileType) {
		return ReconnectableFile{}, false
	}
	return ReconnectableFile{Obj: obj}, true
}

// Size invokes the size operation through the File view.
func (c ReconnectableFile) Size() (int64, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Size()
}

// Read invokes the read operation through the File view.
func (c ReconnectableFile) Read(offset int64, count int32) ([]byte, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Read(offset, count)
}

// Write invokes the write operation through the File view.
func (c ReconnectableFile) Write(offset int64, data []byte) (int32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Write(offset, data)
}

// Version invokes the version operation through the File view.
func (c ReconnectableFile) Version() (uint32, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Version()
}

// Name invokes the name operation through the File view.
func (c ReconnectableFile) Name() (string, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Name()
}

// Stat invokes the stat operation through the File view.
func (c ReconnectableFile) Stat() (FileInfo, error) {
	return File{Obj: c.Obj, Opts: c.Opts}.Stat()
}

// ReconnectableFileServer is the server application interface for spring.reconnectable_file.
// []byte arguments, struct fields included, are borrowed: they alias the
// request until the method returns, so it copies what it keeps. A []byte
// return value is appended to dst, the reply's own tail, and returned.
type ReconnectableFileServer interface {
	FileServer
}

// NewReconnectableFileSkeleton dispatches incoming calls into impl. env is the
// server's environment (used to unmarshal object-typed arguments).
func NewReconnectableFileSkeleton(env *core.Env, impl ReconnectableFileServer) stubs.Skeleton {
	_ = env
	fileSkel := NewFileSkeleton(env, impl)
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case FileSizeOp, FileReadOp, FileWriteOp, FileVersionOp, FileNameOp, FileStatOp: // from spring.file
			return fileSkel.Dispatch(op, args, results)
		default:
			return stubs.ErrBadOp
		}
	})
}

// ---------------------------------------------------------------------
// interface spring.file_system

// FileSystemType is the interface's runtime type identifier.
const FileSystemType core.TypeID = "spring.file_system"

// Operation numbers (stable name hashes; see idl.OpNumOf).
const (
	FileSystemOpenOp   core.OpNum = 0xd35ec4c9
	FileSystemCreateOp core.OpNum = 0x26bb595d
	FileSystemRemoveOp core.OpNum = 0xdb9215fd
	FileSystemListOp   core.OpNum = 0xcfb5881
)

// FileSystemMT is the method table stubs plug together with a subcontract.
var FileSystemMT = &core.MTable{
	Type:      FileSystemType,
	DefaultSC: 1, // singleton
	Ops:       []string{"open", "create", "remove", "list"},
}

func init() {
	core.MustRegisterType(FileSystemType, core.ObjectType)
	core.MustRegisterMTable(FileSystemMT)
}

// FileSystem is the client view of spring.file_system objects. Opts is the invocation
// context attached to every call made through this view; see With.
type FileSystem struct {
	Obj  *core.Object
	Opts []core.CallOption
}

// IsNil reports whether the reference is nil.
func (c FileSystem) IsNil() bool { return c.Obj == nil }

// With returns a view of the same object whose calls carry the given
// invocation-context options (core.WithDeadline, core.WithCancel,
// core.WithTrace) in addition to any already attached.
func (c FileSystem) With(opts ...core.CallOption) FileSystem {
	c.Opts = append(c.Opts[:len(c.Opts):len(c.Opts)], opts...)
	return c
}

// NarrowFileSystem narrows an object to spring.file_system, failing if the dynamic type
// does not support it.
func NarrowFileSystem(obj *core.Object) (FileSystem, bool) {
	if obj == nil || !obj.Is(FileSystemType) {
		return FileSystem{}, false
	}
	return FileSystem{Obj: obj}, true
}

// Open invokes the open operation.
func (c FileSystem) Open(name string) (File, error) {
	var ret0 File = File{}
	err := stubs.Call(c.Obj, FileSystemOpenOp,
		func(b *buffer.Buffer) error {
			b.WriteString(name)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			o4, err := core.Unmarshal(c.Obj.Env, FileMT, b)
			if err != nil {
				return err
			}
			ret0 = File{Obj: o4}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Create invokes the create operation.
func (c FileSystem) Create(name string) (File, error) {
	var ret0 File = File{}
	err := stubs.Call(c.Obj, FileSystemCreateOp,
		func(b *buffer.Buffer) error {
			b.WriteString(name)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			o5, err := core.Unmarshal(c.Obj.Env, FileMT, b)
			if err != nil {
				return err
			}
			ret0 = File{Obj: o5}
			return nil
		}, c.Opts...)
	return ret0, err
}

// Remove invokes the remove operation.
func (c FileSystem) Remove(name string) error {
	err := stubs.Call(c.Obj, FileSystemRemoveOp,
		func(b *buffer.Buffer) error {
			b.WriteString(name)
			return nil
		},
		nil, c.Opts...)
	return err
}

// List invokes the list operation.
func (c FileSystem) List() ([]string, error) {
	var ret0 []string = nil
	err := stubs.Call(c.Obj, FileSystemListOp,
		nil,
		func(b *buffer.Buffer) error {
			var err error
			_ = err
			n6, err := b.ReadCount(false)
			if err != nil {
				return err
			}
			ret0 = make([]string, n6)
			for i7 := range ret0 {
				if ret0[i7], err = b.ReadString(); err != nil {
					return err
				}
			}
			return nil
		}, c.Opts...)
	return ret0, err
}

// FileSystemServer is the server application interface for spring.file_system.
// []byte arguments, struct fields included, are borrowed: they alias the
// request until the method returns, so it copies what it keeps. A []byte
// return value is appended to dst, the reply's own tail, and returned.
type FileSystemServer interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	Remove(name string) error
	List() ([]string, error)
}

// NewFileSystemSkeleton dispatches incoming calls into impl. env is the
// server's environment (used to unmarshal object-typed arguments).
func NewFileSystemSkeleton(env *core.Env, impl FileSystemServer) stubs.Skeleton {
	_ = env
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case 0xd35ec4c9: // open
			var a0 string = ""
			{
				var err error
				_ = err
				if a0, err = args.ReadString(); err != nil {
					return err
				}
			}
			r0, err := impl.Open(a0)
			if err != nil {
				return err
			}
			if err := r0.Obj.Marshal(results); err != nil {
				return err
			}
			return nil
		case 0x26bb595d: // create
			var a0 string = ""
			{
				var err error
				_ = err
				if a0, err = args.ReadString(); err != nil {
					return err
				}
			}
			r0, err := impl.Create(a0)
			if err != nil {
				return err
			}
			if err := r0.Obj.Marshal(results); err != nil {
				return err
			}
			return nil
		case 0xdb9215fd: // remove
			var a0 string = ""
			{
				var err error
				_ = err
				if a0, err = args.ReadString(); err != nil {
					return err
				}
			}
			err := impl.Remove(a0)
			if err != nil {
				return err
			}
			return nil
		case 0xcfb5881: // list
			r0, err := impl.List()
			if err != nil {
				return err
			}
			results.WriteUvarint(uint64(len(r0)))
			for _, e8 := range r0 {
				results.WriteString(e8)
			}
			return nil
		default:
			return stubs.ErrBadOp
		}
	})
}
