package filesys

import (
	"errors"
	"go/format"
	"os"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/stubs"
)

// TestGeneratedCodeInSync guards against drift between filesys.idl and
// the checked-in gen.go: if this fails, regenerate with
//
//	go run ./cmd/idlgen -package filesys -o internal/filesys/gen.go internal/filesys/filesys.idl
func TestGeneratedCodeInSync(t *testing.T) {
	src, err := os.ReadFile("filesys.idl")
	if err != nil {
		t.Fatal(err)
	}
	f, err := idl.Parse("internal/filesys/filesys.idl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	code, err := idl.Generate(f, "filesys")
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := format.Source([]byte(code))
	if err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile("gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(pretty) != string(current) {
		t.Fatal("gen.go is stale; regenerate with cmd/idlgen (see test comment)")
	}
}

// TestDerivedSkeletonRouting dispatches straight into a subtype's
// skeleton: an inherited operation reaches the base skeleton it delegates
// to, the subtype's own operation its own case, and a sibling subtype's
// operation or an unknown number is refused.
func TestDerivedSkeletonRouting(t *testing.T) {
	st := mustCreate(t, NewStore(), "derived")
	mustWrite(t, st, 0, []byte("inherited"))
	skel := NewCacheableFileSkeleton(nil, cacheableImpl{fileImpl{st: st}})
	dispatch := func(op core.OpNum, args func(*buffer.Buffer)) (*buffer.Buffer, error) {
		req, reply := buffer.New(16), buffer.New(16)
		args(req)
		return reply, skel.Dispatch(op, req, reply)
	}
	none := func(*buffer.Buffer) {}

	reply, err := dispatch(FileReadOp, func(b *buffer.Buffer) { b.WriteInt64(0); b.WriteInt32(64) })
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got, err := reply.ReadBytes(); err != nil || string(got) != "inherited" {
		t.Fatalf("read returned %q, %v", got, err)
	}
	if _, err := dispatch(CacheableFileFlushOp, none); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, op := range []core.OpNum{ReplicatedFileReplicasOp, 0x12345678} {
		if _, err := dispatch(op, none); !errors.Is(err, stubs.ErrBadOp) {
			t.Errorf("op %#x: err = %v, want stubs.ErrBadOp", op, err)
		}
	}
}
