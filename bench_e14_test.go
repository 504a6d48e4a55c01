package repro_test

import (
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E14 — invocation-context threading overhead on the minimal-call path.
//
// Every call now carries a kernel.Info (deadline, cancellation channel,
// trace identifier) from the stub through the subcontract and the door to
// the server skeleton, and every subcontract meters itself through
// scstats. E14 measures what that costs on the E1 minimal call:
//
//   - "bare":     the context-free call — E1's singleton echo as it is
//     after the redesign, i.e. the price every existing caller pays for
//     the context plumbing plus metrics.
//   - "deadline": the same call with a fresh deadline computed per call
//     (the realistic per-request pattern: one clock read to set it, plus
//     the fail-fast and door-layer expiry checks).
//   - "full":     deadline + cancellation channel + trace identifier, the
//     heaviest context a caller can attach.
//
// The acceptance budget is ≤30 ns/op of "bare" over the pre-redesign
// figure (EXPERIMENTS E14), and the option variants are expected to stay
// within a few clock reads of "bare".

// E14Call runs the singleton echo with the given context mode.
func E14Call(mode string, payload int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		remote, err := sctest.Transfer(obj, w.cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		p := make([]byte, payload)
		marshal := func(bf *buffer.Buffer) error { bf.WriteBytes(p); return nil }
		unmarshal := func(bf *buffer.Buffer) error { _, err := bf.ReadBytes(); return err }
		cancel := make(chan struct{})
		defer close(cancel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			switch mode {
			case "bare":
				err = stubs.Call(remote, 0, marshal, unmarshal)
			case "deadline":
				err = stubs.Call(remote, 0, marshal, unmarshal,
					core.WithTimeout(time.Minute))
			case "full":
				err = stubs.Call(remote, 0, marshal, unmarshal,
					core.WithTimeout(time.Minute), core.WithCancel(cancel),
					core.WithTrace(uint64(i)+1))
			default:
				b.Fatalf("unknown mode %q", mode)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
