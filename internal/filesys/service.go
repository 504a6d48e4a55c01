package filesys

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/stubs"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
	"repro/internal/subcontracts/simplex"
	"repro/internal/subcontracts/singleton"
)

// CacheableOps and InvalidatingOps classify the cacheable_file interface
// for the cache manager: reads are cacheable, mutations (and flush)
// invalidate.
var (
	CacheableOps    = cache.NewOpSet(FileSizeOp, FileReadOp, FileVersionOp, FileNameOp, FileStatOp)
	InvalidatingOps = cache.NewOpSet(FileWriteOp, CacheableFileFlushOp)
)

// exporter fabricates a Spring object for one file's state. The choice of
// exporter — and with it the subcontract and dynamic type — is the only
// thing distinguishing the service flavors.
type exporter func(st *fileState) (*core.Object, error)

// Service is a file server: a Store exported as a spring.file_system
// object, handing out file objects built by its exporter.
type Service struct {
	env    *core.Env
	store  *Store
	export exporter
	self   *core.Object
	door   *kernel.Door
}

// newService wires a service with the given exporter and exports its
// file_system object with the simplex subcontract.
func newService(env *core.Env, store *Store, export exporter) *Service {
	s := &Service{env: env, store: store, export: export}
	s.self = simplex.Export(env, FileSystemMT, NewFileSystemSkeleton(env, s), nil)
	return s
}

// NewService creates a plain file server in env: file objects use the
// simplex subcontract (one kernel door per file object, §7).
func NewService(env *core.Env) *Service {
	return NewServiceWithStore(env, NewStore())
}

// NewServiceWithStore is NewService over an externally owned store — the
// hook for stable storage (a store recovered through OpenWAL).
func NewServiceWithStore(env *core.Env, store *Store) *Service {
	return newService(env, store, func(st *fileState) (*core.Object, error) {
		return simplex.Export(env, FileMT, serveFile(st, NewFileSkeleton(env, fileImpl{st: st})), nil), nil
	})
}

// NewCachingService creates a file server whose files are
// cacheable_file objects using the caching subcontract (§8.2): clients on
// other machines invoke through their machine-local cache manager, named
// manager in their local naming context.
func NewCachingService(env *core.Env, manager string) *Service {
	return NewCachingServiceWithStore(env, NewStore(), manager)
}

// NewCachingServiceWithStore is NewCachingService over an externally
// owned (typically WAL-recovered) store.
func NewCachingServiceWithStore(env *core.Env, store *Store, manager string) *Service {
	return newService(env, store, func(st *fileState) (*core.Object, error) {
		skel := serveFile(st, NewCacheableFileSkeleton(env, cacheableImpl{fileImpl{st: st}}))
		obj, _ := caching.Export(env, CacheableFileMT, skel, manager, CacheableOps, InvalidatingOps, nil)
		return obj, nil
	})
}

// serveFile is every exporter's dispatch of a file's calls: write is served
// with its request in hand, which fileState.write hands back before its
// fsync wait; every other operation goes to skel.
func serveFile(st *fileState, skel stubs.Skeleton) stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		if op != FileWriteOp {
			return skel.Dispatch(op, args, results)
		}
		offset, err := args.ReadInt64()
		if err != nil {
			return err
		}
		data, err := args.ReadBytes()
		if err != nil {
			return err
		}
		n, err := st.write(offset, data, args)
		if err != nil {
			return err
		}
		results.WriteInt32(n)
		return nil
	})
}

// ReplicatedService is a file service maintained by a set of conspiring
// replica server domains (§5): every file object carries one door per
// replica, and the replicas share the underlying store ("the servers are
// required to perform their own state synchronization").
type ReplicatedService struct {
	*Service
	mu         sync.Mutex
	replicas   []*core.Env
	groups     map[string]*replicon.Group
	members    map[string][]*replicon.Member
	memberHook func(file string, i int, ref kernel.Ref)
}

// NewReplicatedService creates a file server replicated across the given
// server domains. front is the domain exporting the file_system object.
func NewReplicatedService(front *core.Env, replicas []*core.Env) *ReplicatedService {
	return NewReplicatedServiceWithStore(front, replicas, NewStore())
}

// NewReplicatedServiceWithStore is NewReplicatedService over an
// externally owned (typically WAL-recovered) store.
func NewReplicatedServiceWithStore(front *core.Env, replicas []*core.Env, store *Store) *ReplicatedService {
	rs := &ReplicatedService{
		replicas: replicas,
		groups:   make(map[string]*replicon.Group),
		members:  make(map[string][]*replicon.Member),
	}
	rs.Service = newService(front, store, func(st *fileState) (*core.Object, error) {
		g := rs.groupFor(st)
		return g.Export(front, ReplicatedFileMT), nil
	})
	return rs
}

// SetMemberHook registers fn, called once per member door as replica
// groups are built — the hook netd durability uses to label member doors
// ("replica:<file>#<i>") so a restarted server rebinds the same export
// keys. The ref passed to fn stays owned by the group; fn must not
// release it.
func (rs *ReplicatedService) SetMemberHook(fn func(file string, i int, ref kernel.Ref)) {
	rs.mu.Lock()
	rs.memberHook = fn
	rs.mu.Unlock()
}

// MemberRef returns a duplicate of the door reference for replica i of
// the named file, building the group if the file exists but its group was
// not yet demanded (a restarted server rebinding persisted member
// labels). The caller owns the returned reference.
func (rs *ReplicatedService) MemberRef(file string, i int) (kernel.Ref, bool) {
	st, err := rs.store.get(file)
	if err != nil {
		return kernel.Ref{}, false
	}
	rs.groupFor(st)
	rs.mu.Lock()
	members := rs.members[file]
	rs.mu.Unlock()
	if i < 0 || i >= len(members) || members[i] == nil {
		return kernel.Ref{}, false
	}
	return members[i].Ref(), true
}

// groupFor lazily builds the replica group serving one file's state.
func (rs *ReplicatedService) groupFor(st *fileState) *replicon.Group {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if g, ok := rs.groups[st.name]; ok {
		return g
	}
	g := replicon.NewGroup()
	impl := replicatedImpl{fileImpl: fileImpl{st: st}, size: g.Size}
	var members []*replicon.Member
	for i, env := range rs.replicas {
		skel := serveFile(st, NewReplicatedFileSkeleton(env, impl))
		m := g.Join(env, fmt.Sprintf("%s#%d", st.name, i), skel)
		members = append(members, m)
		if rs.memberHook != nil {
			rs.memberHook(st.name, i, m.SharedRef())
		}
	}
	rs.groups[st.name] = g
	rs.members[st.name] = members
	return g
}

// CrashReplica simulates the crash of replica index i for the named file:
// its door is revoked and it leaves the group.
func (rs *ReplicatedService) CrashReplica(name string, i int) error {
	rs.mu.Lock()
	members := rs.members[name]
	rs.mu.Unlock()
	if i < 0 || i >= len(members) || members[i] == nil {
		return fmt.Errorf("filesys: no replica %d for %q", i, name)
	}
	members[i].Crash()
	rs.mu.Lock()
	rs.members[name][i] = nil
	rs.mu.Unlock()
	return nil
}

// ReconnectableService is a file service whose files survive server
// crashes (§8.3): each file object is bound under a stable name in a
// naming context, and clients re-resolve after a crash. The store plays
// the role of stable storage.
type ReconnectableService struct {
	*Service
	ctx naming.Context

	mu    sync.Mutex
	doors map[string]*kernel.Door
}

// NewReconnectableService creates the service. ctx is the naming context
// clients re-resolve in (they must carry the same context in their
// environment's reconnectable.ContextVar slot).
func NewReconnectableService(env *core.Env, ctx naming.Context) *ReconnectableService {
	return NewReconnectableServiceWithStore(env, ctx, NewStore())
}

// NewReconnectableServiceWithStore is NewReconnectableService over an
// externally owned (typically WAL-recovered) store; call Restart to
// rebind the recovered files into the naming context.
func NewReconnectableServiceWithStore(env *core.Env, ctx naming.Context, store *Store) *ReconnectableService {
	rs := &ReconnectableService{ctx: ctx, doors: make(map[string]*kernel.Door)}
	rs.Service = newService(env, store, func(st *fileState) (*core.Object, error) {
		return rs.exportFile(st)
	})
	return rs
}

// bindName is the stable name a file is re-resolved under.
func bindName(file string) string { return "files:" + file }

func (rs *ReconnectableService) exportFile(st *fileState) (*core.Object, error) {
	skel := serveFile(st, NewReconnectableFileSkeleton(rs.env, fileImpl{st: st}))
	obj, door, err := reconnectable.Export(rs.env, ReconnectableFileMT, skel, bindName(st.name), rs.ctx)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	rs.doors[st.name] = door
	rs.mu.Unlock()
	return obj, nil
}

// Crash simulates a whole-server crash: every file door is revoked. The
// store — the stable storage — survives.
func (rs *ReconnectableService) Crash() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, d := range rs.doors {
		d.Revoke()
	}
	rs.doors = make(map[string]*kernel.Door)
}

// Restart re-exports and rebinds every file, as a restarted server
// recovering from stable storage would.
func (rs *ReconnectableService) Restart() error {
	for _, name := range rs.store.list() {
		st, err := rs.store.get(name)
		if err != nil {
			return err
		}
		obj, err := rs.exportFile(st)
		if err != nil {
			return err
		}
		// Export bound a fresh plain object; the returned wrapper is not
		// needed here.
		if err := obj.Consume(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// FileSystemServer implementation (shared by all flavors).

var _ FileSystemServer = (*Service)(nil)

// Object returns the service's file_system object (Copy before passing
// on).
func (s *Service) Object() *core.Object { return s.self }

// Env returns the service's environment.
func (s *Service) Env() *core.Env { return s.env }

// Open implements FileSystemServer.
func (s *Service) Open(name string) (File, error) {
	st, err := s.store.get(name)
	if err != nil {
		return File{}, err
	}
	obj, err := s.export(st)
	if err != nil {
		return File{}, err
	}
	return File{Obj: obj}, nil
}

// Create implements FileSystemServer.
func (s *Service) Create(name string) (File, error) {
	st, err := s.store.create(name)
	if err != nil {
		return File{}, err
	}
	obj, err := s.export(st)
	if err != nil {
		return File{}, err
	}
	return File{Obj: obj}, nil
}

// Remove implements FileSystemServer.
func (s *Service) Remove(name string) error { return s.store.remove(name) }

// List implements FileSystemServer.
func (s *Service) List() ([]string, error) { return s.store.list(), nil }

// Ensure the default subcontract library set needed by the service
// flavors is easy to link (convenience for examples and tests).
func RegisterAll(r *core.Registry) error {
	for _, reg := range []func(*core.Registry) error{
		singleton.Register, simplex.Register, replicon.Register,
		caching.Register, reconnectable.Register,
	} {
		if err := reg(r); err != nil {
			return err
		}
	}
	return nil
}
