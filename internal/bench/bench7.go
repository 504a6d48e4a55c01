package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// ---------------------------------------------------------------------
// E18 — the same-machine transport tier, measured against the E15
// loopback-TCP baseline with the identical workload. The same frame
// stream runs over a unix domain socket, every payload in its frame, so
// the cells measure what the socket family alone changes — in one
// process, the path bulk_mixed_c8 runs between two. The sweep mirrors E15
// — parallelism ∈ {1, 8, 64} × payload ∈ {0, 1 KiB, 64 KiB} — so every
// cell has a TCP twin in BENCH_netd.json, and the 64 KiB cells are the
// baseline a mapped-region tier would have to beat across a process
// boundary (EXPERIMENTS E29).

// e18Setup builds two machines joined by the same-machine transport:
// unix-socket listeners on both sides.
func e18Setup(b *testing.B) *core.Object {
	b.Helper()
	ka := kernel.New("e18-server")
	sa, err := netd.Start(ka.NewDomain("server-netd"), "unix:"+b.TempDir()+"/s.sock",
		netd.WithTransport(netd.SameMachine()))
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

	kb := kernel.New("e18-client")
	sb, err := netd.Start(kb.NewDomain("client-netd"), "unix:"+b.TempDir()+"/c.sock",
		netd.WithTransport(netd.SameMachine()))
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

// E18SameMachine is E15Throughput over the same-machine tier.
func E18SameMachine(parallelism, payload int) func(*testing.B) {
	return throughputBench(e18Setup, parallelism, payload)
}
