package bench

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E15 — pipelined throughput of the network door servers over loopback
// TCP. Where E1/E14 measure the latency of one call on an idle system,
// E15 measures what the netd data path sustains when many callers
// pipeline calls over the single pooled connection to a peer: the costs
// under test are the per-call allocations, the per-frame write syscalls
// (coalesced into batched flushes by the connection's writer goroutine),
// and the contention on the request/reply demultiplexer.
//
// Knobs: parallelism ∈ {1, 8, 64} concurrent callers × payload ∈
// {0, 1 KiB, 64 KiB} echoed bytes. Reported: ns/op (per call), calls/s,
// MB/s (for the payload sweeps), and allocs/op across both machines —
// the benchmark runs client and server in one process, so allocs/op is
// the whole-system figure, not the client hot path alone (the strict
// client-path bound is enforced by TestAllocs* in internal/netd).

// e15Setup builds two machines connected over loopback TCP — the server
// stock, the client started with clientOpts — and returns a client-side
// proxy for an echo object exported on the server machine.
func e15Setup(b *testing.B, clientOpts ...netd.Option) *core.Object {
	b.Helper()
	ka := kernel.New("e15-server")
	sa, err := netd.Start(ka.NewDomain("server-netd"), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sa.Close() })
	envA, err := sctest.NewEnv(ka, "server-app", singleton.Register)
	if err != nil {
		b.Fatal(err)
	}
	obj, _ := singleton.Export(envA, echoMT, echoSkeleton(), nil)
	sa.PublishRoot("echo", obj)

	kb := kernel.New("e15-client")
	sb, err := netd.Start(kb.NewDomain("client-netd"), "127.0.0.1:0", clientOpts...)
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

// E15Throughput echoes payload bytes through the wire with the given
// number of concurrent callers, splitting b.N across them.
func E15Throughput(parallelism, payload int) func(*testing.B) {
	return throughputBench(func(b *testing.B) *core.Object { return e15Setup(b) }, parallelism, payload)
}

// throughputBench is the body shared by the E15 (loopback TCP) and E18
// (same-machine tier) sweeps: echo payload bytes with parallelism
// concurrent callers, splitting b.N across them. setup builds the pair
// of machines and returns the client-side proxy.
func throughputBench(setup func(*testing.B) *core.Object, parallelism, payload int) func(*testing.B) {
	return func(b *testing.B) {
		remote := setup(b)
		p := make([]byte, payload)
		if err := callEcho(remote, p); err != nil { // warm the conn + pools
			b.Fatal(err)
		}
		if payload > 0 {
			b.SetBytes(int64(payload))
		}
		var failed atomic.Value
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per, rem := b.N/parallelism, b.N%parallelism
		for g := 0; g < parallelism; g++ {
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
					if err := callEcho(remote, p); err != nil {
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
		}
	}
}
