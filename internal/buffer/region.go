package buffer

import "sync"

// Regions are the bulk hand-off primitive behind the shared-memory
// transport tier and the shm subcontract: a payload window passed between
// domains (and, through netd's same-machine transport, between kernels in
// one process) by reference instead of being copied through a byte
// stream. A Region owns its bytes until Release; the receiving side
// aliases them through a Buffer that adopted the region (Buffer.Adopt).

// Region is one bulk payload window.
type Region struct {
	// Data is the payload. The producer must not touch it again after
	// handing the region off; the consumer may alias it until Release.
	Data []byte

	release func()
	once    sync.Once
}

// NewRegion wraps data as a region. release, if non-nil, runs exactly
// once when the region is released (recycling into a pool, unmapping);
// nil leaves reclamation to the collector.
func NewRegion(data []byte, release func()) *Region {
	return &Region{Data: data, release: release}
}

// Release returns the region to its owner. It is idempotent; the bytes
// must not be used afterwards.
func (r *Region) Release() {
	if r == nil || r.release == nil {
		return
	}
	r.once.Do(r.release)
}

// RegionPool recycles fixed-capacity buffers used as shared regions. The
// shm subcontract draws its invoke_preamble regions from one; sizing is
// fixed so a pooled region never reallocates mid-marshal (reallocation
// would defeat the point of marshalling in place).
type RegionPool struct {
	size int
	pool sync.Pool
}

// NewRegionPool creates a pool of regions with capacity size each.
func NewRegionPool(size int) *RegionPool {
	p := &RegionPool{size: size}
	p.pool.New = func() any { return New(size) }
	return p
}

// Size reports the capacity of the pool's regions.
func (p *RegionPool) Size() int { return p.size }

// Get returns an empty region buffer of the pool's capacity. Release it
// with Put, which returns it to this pool.
func (p *RegionPool) Get() *Buffer {
	b := p.pool.Get().(*Buffer)
	b.home = &p.pool
	return b
}
