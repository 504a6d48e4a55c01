package buffer

import "sync"

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
