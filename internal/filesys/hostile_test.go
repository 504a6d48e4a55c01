package filesys

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// TestListRefusesHugeCount: a List reply that declares 2^40 names is
// refused by the generated decoder, not sized by it.
func TestListRefusesHugeCount(t *testing.T) {
	k := kernel.New("m1")
	srv, cli := env(t, k, "hostile"), env(t, k, "client")
	obj, _ := singleton.Export(srv, FileSystemMT, stubs.SkeletonFunc(func(_ core.OpNum, _, results *buffer.Buffer) error {
		results.WriteUvarint(1 << 40)
		return nil
	}), nil)
	remote, err := sctest.Transfer(obj, cli, FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (FileSystem{Obj: remote}).List(); !errors.Is(err, buffer.ErrBadCount) {
		t.Fatalf("List = %v, want ErrBadCount", err)
	}
}
