package repro_test

import (
	"testing"

	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// E17 — distributed-tracing overhead on the minimal call.
//
// Every invocation now passes the tracing hooks (trace.MaybeHead at
// NewCall, trace.Begin/End in the subcontract, the skeleton, and the
// door layers). E17 measures what those hooks cost on the E14 singleton
// echo, in three modes:
//
//   - "off":       head sampling disabled (the default). MaybeHead is one
//     atomic load; every Begin/End is a nil-check no-op. This is the tax
//     every untraced caller pays, and the acceptance budget: ≤30 ns and
//     +0 allocs over the E14 "bare" figure.
//   - "unsampled": head sampling enabled at a rate that never picks the
//     measured calls (1 in 2^30). Adds the sampling counter to every
//     call — the realistic production setting between traces.
//   - "sampled":   every call traced (1 in 1). Each call records its full
//     span set (invoke, send-side, skeleton) into the lock-free ring: the
//     worst-case per-call recording cost.
//
// Parallelism ∈ {1, 64} shows whether the span ring's sharded claim
// scales; the recorder must not serialize the E16-style parallel path.

// e17Sampling maps an E17 mode to its trace.SetSampling argument.
func e17Sampling(b *testing.B, mode string) int {
	switch mode {
	case "off":
		return 0
	case "unsampled":
		return 1 << 30
	case "sampled":
		return 1
	default:
		b.Fatalf("unknown E17 mode %q", mode)
		return 0
	}
}

// E17TracedCall runs the E14 singleton echo with the given tracing mode
// under parallelism concurrent callers.
func E17TracedCall(mode string, parallelism int) func(*testing.B) {
	return func(b *testing.B) {
		w := newWorld(b)
		obj, _ := singleton.Export(w.srv, echoMT, echoSkeleton(), nil)
		remote, err := sctest.Transfer(obj, w.cli, echoMT)
		if err != nil {
			b.Fatal(err)
		}
		if err := callEcho(remote, nil); err != nil { // warm, and install the recorder lazily
			b.Fatal(err)
		}
		trace.SetSampling(e17Sampling(b, mode))
		defer trace.SetSampling(0)
		b.ReportAllocs()
		e16Split(b, parallelism, func(n int) error {
			for i := 0; i < n; i++ {
				if err := callEcho(remote, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
}
