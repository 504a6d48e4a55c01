package repro_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E20 — server-side dispatch. E15 measured what the data path sustains;
// E20 measures what the *serve side* does with the frames once they
// arrive. Since E25 a call that is not run inline gets a goroutine of its
// own, so two execution modes remain over the same loopback workload:
//
//   - Serve_Inline: the default — adaptive inline promotion moves
//     non-blocking handlers onto the reader goroutine, everything else is
//     spawned.
//   - Serve_Spawn: promotion off (InlineThreshold < 0) — every call pays
//     one goroutine start, behind the same admission counters.
//
// The sweep is parallelism ∈ {1, 8, 64} at 0-byte payload (the dispatch
// cost dominates exactly when there is no payload to amortize it), plus a
// Blocking cell whose handler parks ~100µs (never promoted, so sixty-four
// callers are sixty-four goroutines blocked in the server at once), plus
// an Overload cell: offered load at 4× the admission bound, reporting
// goodput with the shed-and-retry cost folded in (a shed is a full
// round trip answered O(1) on the reader — the bench proves refusal is
// cheap and goodput holds at the bound).

// e20Setup builds the E15 loopback pair with an explicit server-side
// dispatch configuration and skeleton.
func e20Setup(dc netd.DispatchConfig, skel func() stubs.Skeleton) func(*testing.B) *core.Object {
	return func(b *testing.B) *core.Object {
		b.Helper()
		ka := kernel.New("e20-server")
		sa, err := netd.Start(ka.NewDomain("server-netd"), "127.0.0.1:0", netd.With(netd.Config{Dispatch: dc}))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sa.Close() })
		envA, err := sctest.NewEnv(ka, "server-app", singleton.Register)
		if err != nil {
			b.Fatal(err)
		}
		obj, _ := singleton.Export(envA, echoMT, skel(), nil)
		sa.PublishRoot("echo", obj)

		kb := kernel.New("e20-client")
		sb, err := netd.Start(kb.NewDomain("client-netd"), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sb.Close() })
		envB, err := sctest.NewEnv(kb, "client-app", singleton.Register)
		if err != nil {
			b.Fatal(err)
		}
		remote, err := sb.ImportRootObject(envB, sa.Addr(), "echo", echoMT)
		if err != nil {
			b.Fatal(err)
		}
		return remote
	}
}

// E20Serve is the inline-eligible sweep: echo handlers under the two
// dispatch modes. mode is "inline" or "spawn".
func E20Serve(mode string, parallelism, payload int) func(*testing.B) {
	var dc netd.DispatchConfig // "inline": the defaults
	if mode == "spawn" {
		dc.InlineThreshold = -1 // nothing is promoted; every call is spawned
	}
	return throughputBench(e20Setup(dc, echoSkeleton), parallelism, payload)
}

// blockingSkeleton parks each call for roughly d — long past any inline
// threshold, so the adaptive state never promotes it and every call runs
// on its own goroutine.
func blockingSkeleton(d time.Duration) func() stubs.Skeleton {
	return func() stubs.Skeleton {
		return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
			time.Sleep(d)
			p, err := args.ReadBytes()
			if err != nil {
				return err
			}
			results.WriteBytes(p)
			return nil
		})
	}
}

// E20Blocking is the blocking-handler cell: ~100µs handlers under the
// default configuration. The figure to watch is time per call against the
// handler's own 100µs ÷ parallelism: the callers' waits overlap only if
// all of them are inside the server at once.
func E20Blocking(parallelism int) func(*testing.B) {
	return throughputBench(e20Setup(netd.DispatchConfig{}, blockingSkeleton(100*time.Microsecond)), parallelism, 0)
}

// E20Overload offers load at `factor` times the admission bound and
// reports goodput plus the shed rate. Shed calls retry immediately, so
// every worker is always either in a successful call or bouncing off
// admission — the pathological client the bound exists to survive.
func E20Overload(factor int) func(*testing.B) {
	const bound = 64
	return func(b *testing.B) {
		setup := e20Setup(netd.DispatchConfig{
			MaxInflight:     bound,
			MaxPerPeer:      -1, // the single benchmark conn IS the load
			InlineThreshold: -1, // every admitted call is spawned
		}, blockingSkeleton(20*time.Microsecond))
		remote := setup(b)
		if err := callEcho(remote, nil); err != nil {
			b.Fatal(err)
		}
		callers := bound * factor
		var sheds atomic.Int64
		var failed atomic.Value
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per, rem := b.N/callers, b.N%callers
		for g := 0; g < callers; g++ {
			n := per
			if g < rem {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					for {
						err := callEcho(remote, nil)
						if err == nil {
							break
						}
						if errors.Is(err, kernel.ErrOverload) {
							sheds.Add(1)
							continue // immediate retry: worst-case pressure
						}
						failed.Store(err)
						return
					}
				}
			}(n)
		}
		wg.Wait()
		b.StopTimer()
		if err := failed.Load(); err != nil {
			b.Fatal(err)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "calls/s")
			b.ReportMetric(float64(sheds.Load())/secs, "sheds/s")
		}
	}
}
