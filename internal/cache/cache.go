// Package cache implements the machine-local cache manager used by the
// caching subcontract (§8.2), originally developed for the Spring file
// system.
//
// A cache manager accepts registrations of server doors (D1) and hands
// back cache doors (D2). All invocations on a cacheable object then go to
// the cache manager on the local machine, which serves cacheable
// operations from its cache and forwards everything else to the server,
// invalidating affected entries on mutating operations.
//
// Which operations are cacheable and which invalidate is the exporting
// server's knowledge; it travels with the object as two operation sets,
// so the manager itself stays generic (the consistency protocol between
// machines remains the exporting service's business, as in the Spring
// file system).
//
// The manager is built for many callers hammering it at once (E16):
//
//   - Entries are indexed by kernel door identity in one map under one
//     lock, which only registration takes: a cache door's procedure holds
//     its entry, so no call looks the index up.
//   - Each entry's reply cache is a bounded LRU with a fixed 64 MiB
//     budget; storing past the budget evicts least-recently-used replies
//     (gauges cache.evictions / cache.bytes_live).
//   - Concurrent misses for one key coalesce into a single server call;
//     the waiters share the leader's reply (counted in the caching
//     subcontract's scstats block as coalesced).
//   - Hits are served from pooled buffers and counted with atomics; the
//     hit path takes only the entry lock for the LRU touch and allocates
//     at most the reply buffer.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

// ManagerType is the cache manager interface's type identifier.
const ManagerType core.TypeID = "spring.cache_manager"

// Manager operation numbers.
const (
	opRegister core.OpNum = iota
	opStats
)

// ManagerMT is the cache manager method table.
var ManagerMT = &core.MTable{
	Type:      ManagerType,
	DefaultSC: singleton.SCID,
	Ops:       []string{"register", "stats"},
}

func init() {
	core.MustRegisterType(ManagerType, core.ObjectType)
	core.MustRegisterMTable(ManagerMT)
}

// scStats mirrors the manager's hit/miss counters into the caching
// subcontract's scstats block: the manager is the only layer that knows
// whether an invocation was served locally.
var scStats = scstats.For("caching")

// Named gauges for the manager's resource state, shared by every manager
// in the process (the scstats registry is process-wide).
var (
	gEvictions = scstats.CounterFor("cache.evictions")
	gBytesLive = scstats.GaugeFor("cache.bytes_live")

	// hMissFill times the leader's backing fetch on a cache miss — the
	// server round trip that fills the entry. Hits and coalesced
	// followers never touch it, so the histogram prices exactly the
	// cold path. Exposed as cache_miss_fill_seconds.
	hMissFill = scstats.HistFor("cache.miss_fill")
)

// Trace names: hits and coalesced waits are instantaneous events; a miss
// is a real span wrapping the leader's server call, so a traced cacheable
// call shows exactly which leg paid the server round trip.
var (
	spanHit       = trace.Name("cache.hit")
	spanMiss      = trace.Name("cache.miss")
	spanCoalesced = trace.Name("cache.coalesced")
)

// replyBudget bounds the bytes (keys + payloads + bookkeeping) the reply
// cache of one entry may hold; storing past it evicts the
// least-recently-used replies.
const replyBudget = 64 << 20

// replyOverhead approximates the bookkeeping bytes charged per cached
// reply on top of its key and payload (node, map slot, list links).
const replyOverhead = 96

// Stats counts cache activity, for the E6/E16 experiments. BytesLive is
// an instantaneous level; everything else is a monotonic count.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Forwards  uint64 // non-cacheable operations passed through
	Invalidns uint64 // invalidations triggered by mutating operations

	CoalescedMisses uint64 // misses that shared another caller's server call
	Evictions       uint64 // replies evicted by the LRU byte budget
	BytesLive       int64  // bytes currently held across all reply caches
}

// reply is one cached reply: an LRU list node owning an immutable byte
// snapshot. size charges key + payload + overhead against the budget.
type reply struct {
	key        string
	data       []byte
	size       int64
	prev, next *reply
}

// flight is one in-progress miss. Followers wait on done and then share
// data/err; data is nil when the leader's reply was uncacheable (it
// carried door references), in which case followers issue their own call.
// done is created under entry.mu by the first follower, so an uncontended
// miss never allocates a channel.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// entry is the per-server-door cache state.
type entry struct {
	m   *Manager
	ref kernel.Ref // reference to the server door (for identity + calls)
	h   kernel.Handle

	mu      sync.Mutex
	replies map[string]*reply  // (opnum||args) → LRU node
	flights map[string]*flight // (opnum||args) → in-progress miss
	head    *reply             // most recently used
	tail    *reply             // least recently used
	bytes   int64              // sum of reply sizes
	gen     uint64             // bumped by invalidation; stale flights don't store
	free    *reply             // evicted nodes kept for reuse (via next)
	nfree   int
	flfree  []*flight // completed follower-free flights kept for reuse
}

// maxFreeReplies caps the per-entry free list of evicted LRU nodes; in
// eviction steady state (one evict per store) reuse makes a store
// node-allocation-free.
const maxFreeReplies = 32

// Manager is a cache manager server.
type Manager struct {
	env    *core.Env
	budget int64 // replyBudget; a test lowers it

	mu      sync.Mutex        // guards entries
	entries map[uint64]*entry // door id → entry

	hits      atomic.Uint64
	misses    atomic.Uint64
	forwards  atomic.Uint64
	invalidns atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	bytesLive atomic.Int64

	self *core.Object
	door *kernel.Door
}

// NewManager creates a cache manager served from env's domain, exported
// with the singleton subcontract.
func NewManager(env *core.Env) *Manager {
	m := &Manager{env: env, budget: replyBudget, entries: make(map[uint64]*entry)}
	m.self, m.door = singleton.Export(env, ManagerMT, m.skeleton(), nil)
	return m
}

// Object returns the manager's own object (Copy before passing on).
func (m *Manager) Object() *core.Object { return m.self }

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Hits:            m.hits.Load(),
		Misses:          m.misses.Load(),
		Forwards:        m.forwards.Load(),
		Invalidns:       m.invalidns.Load(),
		CoalescedMisses: m.coalesced.Load(),
		Evictions:       m.evictions.Load(),
		BytesLive:       m.bytesLive.Load(),
	}
}

// EntryCount reports the number of distinct server doors registered
// (entries are deduplicated by door identity).
func (m *Manager) EntryCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// lookup finds (or creates) the entry for a server door reference, keyed
// by the door's kernel-wide identity. The manager deduplicates by door
// identity, so every client of one remote object on this machine shares
// one cache.
func (m *Manager) lookup(ref kernel.Ref) *entry {
	id := ref.DoorID()
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[id]; ok {
		ref.Release()
		return e
	}
	e := &entry{
		m:       m,
		ref:     ref,
		h:       m.env.Domain.AdoptRef(ref.Dup()),
		replies: make(map[string]*reply),
	}
	m.entries[id] = e
	return e
}

// register wires a cache door (D2) in front of a server door (D1).
func (m *Manager) register(d1 kernel.Ref, cacheable, invalidate OpSet) kernel.Ref {
	e := m.lookup(d1)
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		return m.serve(e, cacheable, invalidate, req, info)
	}
	h, _ := m.env.Domain.CreateDoorInfo(proc, nil)
	ref, err := m.env.Domain.RefOf(h)
	if err != nil {
		panic(err) // the handle was created on the previous line
	}
	_ = m.env.Domain.DeleteDoor(h)
	return ref
}

// serve handles one invocation arriving at a cache door. The caller's
// invocation context rides along on forwarded calls, so a deadline set by
// the client still bounds the server leg of a cache miss.
func (m *Manager) serve(e *entry, cacheable, invalidate OpSet, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	op, err := req.PeekUint32()
	if err != nil {
		return nil, fmt.Errorf("cache: truncated call: %w", err)
	}
	switch {
	case cacheable.Has(op) && req.DoorCount() == 0:
		return m.serveCacheable(e, req, info)
	case invalidate.Has(op):
		m.invalidns.Add(1)
		m.forwards.Add(1)
		e.invalidate()
		return m.env.Domain.CallInfo(e.h, req, info)
	default:
		m.forwards.Add(1)
		return m.env.Domain.CallInfo(e.h, req, info)
	}
}

// serveCacheable serves one cacheable, door-free call: from the reply
// cache on a hit, by riding an in-flight miss for the same key when one
// exists, and by calling the server (and publishing the reply) otherwise.
func (m *Manager) serveCacheable(e *entry, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	key := req.Bytes() // (opnum||args): the full marshalled call

	e.mu.Lock()
	if n := e.replies[string(key)]; n != nil { // no-alloc map probe
		e.touchLocked(n)
		data := n.data
		e.mu.Unlock()
		m.hits.Add(1)
		scStats.Hits.Add(1)
		trace.Event(info, spanHit)
		return replyBuffer(data), nil
	}
	if fl := e.flights[string(key)]; fl != nil {
		if fl.done == nil {
			fl.done = make(chan struct{})
		}
		done := fl.done
		e.mu.Unlock()
		return m.followFlight(e, fl, done, req, info)
	}
	var fl *flight
	if n := len(e.flfree); n != 0 {
		fl = e.flfree[n-1]
		e.flfree = e.flfree[:n-1]
	} else {
		fl = &flight{}
	}
	if e.flights == nil {
		e.flights = make(map[string]*flight)
	}
	owned := string(key)
	e.flights[owned] = fl
	gen := e.gen
	e.mu.Unlock()

	m.misses.Add(1)
	scStats.Misses.Add(1)
	sp := trace.Begin(info, spanMiss)
	fillStart := hMissFill.Start()
	rep, err := m.env.Domain.CallInfo(e.h, req, info)
	hMissFill.ObserveSince(fillStart, info.ExemplarTrace())
	sp.End(info, err)

	// Only door-free replies are cacheable: a door reference is a
	// capability that cannot be replayed.
	var data []byte
	if err == nil && rep.DoorCount() == 0 {
		data = append([]byte(nil), rep.Bytes()...)
	}
	fl.data, fl.err = data, err
	e.mu.Lock()
	delete(e.flights, owned)
	if data != nil && e.gen == gen {
		e.storeLocked(owned, data)
	}
	done := fl.done
	if done == nil && len(e.flfree) < maxFreeReplies {
		// No follower ever attached (attaching happens under e.mu before
		// the delete above), so the leader is the flight's sole owner and
		// the next miss can reuse it.
		fl.data, fl.err = nil, nil
		e.flfree = append(e.flfree, fl)
	}
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
	return rep, err
}

// followFlight waits for an in-flight miss for the same key and shares
// its outcome. A follower whose wait outlives its own context ends with
// that context's error, like any door call. A shared reply observed
// across an invalidation is still linearizable: the follower's read began
// before the invalidating write completed.
func (m *Manager) followFlight(e *entry, fl *flight, done <-chan struct{}, req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
	m.coalesced.Add(1)
	scStats.Coalesced.Add(1)
	trace.Event(info, spanCoalesced)
	if err := waitFlight(done, info); err != nil {
		return nil, err
	}
	if fl.err != nil {
		return nil, fl.err
	}
	if fl.data == nil {
		// The leader's reply carried doors and could not be shared;
		// fall back to a server call of our own.
		m.misses.Add(1)
		scStats.Misses.Add(1)
		return m.env.Domain.CallInfo(e.h, req, info)
	}
	return replyBuffer(fl.data), nil
}

// waitFlight blocks until the flight completes, bounded by the waiter's
// own invocation context.
func waitFlight(done <-chan struct{}, info *kernel.Info) error {
	if info == nil || (info.Cancel == nil && info.Deadline.IsZero()) {
		<-done
		return nil
	}
	var deadline <-chan time.Time
	if d, ok := info.Remaining(); ok {
		if d <= 0 {
			return kernel.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-done:
		return nil
	case <-info.Cancel:
		return kernel.ErrCancelled
	case <-deadline:
		return kernel.ErrDeadlineExceeded
	}
}

// replyBuffer copies an immutable cached snapshot into a pooled buffer
// the caller may consume (and recycle) freely.
func replyBuffer(data []byte) *buffer.Buffer {
	out := buffer.Get(len(data)) // holds the snapshot and nothing else: the stub layer reads it and puts it back
	out.WriteRaw(data)
	return out
}

// touchLocked moves n to the most-recently-used position.
func (e *entry) touchLocked(n *reply) {
	if e.head == n {
		return
	}
	// Unlink.
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if e.tail == n {
		e.tail = n.prev
	}
	// Push front.
	n.prev = nil
	n.next = e.head
	if e.head != nil {
		e.head.prev = n
	}
	e.head = n
	if e.tail == nil {
		e.tail = n
	}
}

// storeLocked inserts a reply under key, charging the budget and evicting
// from the LRU tail until the entry fits. A reply larger than the whole
// budget is not cached at all. Counters are updated once per store, not
// once per eviction.
func (e *entry) storeLocked(key string, data []byte) {
	budget := e.m.budget
	size := int64(len(key)) + int64(len(data)) + replyOverhead
	if size > budget {
		return
	}
	delta := size
	if old := e.replies[key]; old != nil {
		e.unlinkLocked(old)
		delta -= old.size
		e.poolLocked(old)
	}
	n := e.free
	if n != nil {
		e.free = n.next
		e.nfree--
		n.next = nil
	} else {
		n = &reply{}
	}
	n.key, n.data, n.size = key, data, size
	e.replies[key] = n
	n.next = e.head
	if e.head != nil {
		e.head.prev = n
	}
	e.head = n
	if e.tail == nil {
		e.tail = n
	}
	evicted := 0
	for e.bytes+delta > budget && e.tail != nil && e.tail != n {
		v := e.tail
		e.unlinkLocked(v)
		delete(e.replies, v.key)
		delta -= v.size
		e.poolLocked(v)
		evicted++
	}
	e.addBytes(delta)
	if evicted != 0 {
		e.m.evictions.Add(uint64(evicted))
		gEvictions.Add(int64(evicted))
	}
}

// unlinkLocked removes n from the list; byte accounting and the map slot
// are the caller's business.
func (e *entry) unlinkLocked(n *reply) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if e.head == n {
		e.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if e.tail == n {
		e.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// poolLocked returns an unlinked node to the entry's free list so the
// next store can reuse it.
func (e *entry) poolLocked(n *reply) {
	if e.nfree >= maxFreeReplies {
		return
	}
	n.key, n.data = "", nil
	n.next = e.free
	e.free = n
	e.nfree++
}

// addBytes moves the entry's byte charge and the process-wide level.
func (e *entry) addBytes(d int64) {
	e.bytes += d
	e.m.bytesLive.Add(d)
	gBytesLive.Add(d)
}

// invalidate clears the reply cache and bumps the generation so that
// in-flight misses started before the invalidation cannot store stale
// replies after it.
func (e *entry) invalidate() {
	e.mu.Lock()
	e.gen++
	if len(e.replies) != 0 {
		e.addBytes(-e.bytes)
		clear(e.replies)
		e.head, e.tail = nil, nil
	}
	e.mu.Unlock()
}

// skeleton serves the manager's own Spring interface.
func (m *Manager) skeleton() stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		switch op {
		case opRegister:
			slot, err := args.ReadDoor()
			if err != nil {
				return err
			}
			d1, ok := slot.(kernel.Ref)
			if !ok {
				return fmt.Errorf("cache: register: %T is not a door", slot)
			}
			cacheable, err := ReadOpSet(args)
			if err != nil {
				return err
			}
			invalidate, err := ReadOpSet(args)
			if err != nil {
				return err
			}
			results.WriteDoor(m.register(d1, cacheable, invalidate))
			return nil
		case opStats:
			s := m.Stats()
			results.WriteUint64(s.Hits)
			results.WriteUint64(s.Misses)
			results.WriteUint64(s.Forwards)
			results.WriteUint64(s.Invalidns)
			results.WriteUint64(s.CoalescedMisses)
			results.WriteUint64(s.Evictions)
			results.WriteInt64(s.BytesLive)
			return nil
		default:
			return stubs.ErrBadOp
		}
	})
}

// Client is the client view of a cache manager.
type Client struct {
	Obj *core.Object
}

// Register presents a server door to the manager and receives a cache
// door. The caller keeps ownership of d1 (a copy is sent).
func (c Client) Register(d1 kernel.Handle, cacheable, invalidate OpSet) (kernel.Handle, error) {
	var d2 kernel.Handle
	err := stubs.Call(c.Obj, opRegister,
		func(b *buffer.Buffer) error {
			if err := c.Obj.Env.Domain.CopyToBuffer(d1, b); err != nil {
				return err
			}
			cacheable.MarshalTo(b)
			invalidate.MarshalTo(b)
			return nil
		},
		func(b *buffer.Buffer) error {
			var err error
			d2, err = c.Obj.Env.Domain.AdoptFromBuffer(b)
			return err
		})
	return d2, err
}

// RemoteStats fetches the manager's counters through its Spring interface.
func (c Client) RemoteStats() (Stats, error) {
	var s Stats
	err := stubs.Call(c.Obj, opStats, nil, func(b *buffer.Buffer) error {
		var err error
		if s.Hits, err = b.ReadUint64(); err != nil {
			return err
		}
		if s.Misses, err = b.ReadUint64(); err != nil {
			return err
		}
		if s.Forwards, err = b.ReadUint64(); err != nil {
			return err
		}
		if s.Invalidns, err = b.ReadUint64(); err != nil {
			return err
		}
		if s.CoalescedMisses, err = b.ReadUint64(); err != nil {
			return err
		}
		if s.Evictions, err = b.ReadUint64(); err != nil {
			return err
		}
		s.BytesLive, err = b.ReadInt64()
		return err
	})
	return s, err
}
