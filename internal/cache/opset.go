package cache

import (
	"repro/internal/buffer"
	"repro/internal/core"
)

// OpSet is a set of operation numbers used to classify an interface's
// operations as cacheable or invalidating. Generated stubs derive
// operation numbers from name hashes, so the set is explicit rather than
// a small-integer bitmask.
type OpSet map[uint32]struct{}

// NewOpSet builds a set from operation numbers.
func NewOpSet(ops ...core.OpNum) OpSet {
	s := make(OpSet, len(ops))
	for _, op := range ops {
		s[uint32(op)] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s OpSet) Has(op uint32) bool {
	_, ok := s[op]
	return ok
}

// MarshalTo writes the set into buf (sorted order is not required; sets
// are small and compared only by membership).
func (s OpSet) MarshalTo(buf *buffer.Buffer) {
	buf.WriteUvarint(uint64(len(s)))
	for op := range s {
		buf.WriteUint32(op)
	}
}

// ReadOpSet consumes a set from buf.
func ReadOpSet(buf *buffer.Buffer) (OpSet, error) {
	n, err := buf.ReadCount(false)
	if err != nil {
		return nil, err
	}
	s := make(OpSet, n)
	for i := 0; i < n; i++ {
		op, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		s[op] = struct{}{}
	}
	return s, nil
}
