package netd

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/kernel"
	"repro/internal/scstats"
	"repro/internal/sctest"
	"repro/internal/stubs"
	"repro/internal/subcontracts/singleton"
)

// Tests for serve-side dispatch (E20, E25): bounded admission under
// overload, and resource reclamation when a connection dies with calls
// blocked in their handlers.

// gatedSkel is a skeleton that parks every call on gate, signalling
// entered first (non-blocking: once the test has seen what it was
// waiting for, later entries must not hang on a full buffer).
func gatedSkel(entered chan struct{}, gate chan struct{}) stubs.Skeleton {
	return stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		if entered != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		<-gate
		return nil
	})
}

func TestOverloadShedsRetryable(t *testing.T) {
	// E20 acceptance: past the configured in-flight bound the server
	// refuses calls at admission — an immediate, retryable overload reply
	// on the reader goroutine. No goroutine started for a refused call, and
	// full recovery once the backlog drains.
	const maxInflight = 4
	cfgA := quickCfg()
	// The one connection's half of the server bound is maxInflight.
	cfgA.MaxInflight = 2 * maxInflight
	// Promotion off: every admitted call gets a goroutine of its own, so
	// the goroutines the server may add are exactly the in-flight bound.
	cfgA.InlineThreshold = -1
	a := newMachineCfg(t, "A", cfgA)
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second // admitted calls wait for the gate
	b := newMachineCfg(t, "B", cfgB)

	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	obj, _ := singleton.Export(a.env, stressEchoMT, gatedSkel(entered, gate), nil)
	a.srv.PublishRoot("gated", obj)
	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "gated", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the admission window: four calls go in and block in the handler.
	// The goroutine baseline is taken first, so what the server adds for
	// them counts against the bound like anything the storm below adds.
	shed0 := scstats.GaugeFor("dispatch.shed").Value()
	ng0 := runtime.NumGoroutine()
	var admitted sync.WaitGroup
	admittedErrs := make([]error, maxInflight)
	for i := 0; i < maxInflight; i++ {
		admitted.Add(1)
		go func(i int) {
			defer admitted.Done()
			admittedErrs[i] = stubs.Call(remote, 0, nil, nil)
		}(i)
	}
	<-entered
	waitFor(t, 2*time.Second, "admission window full", func() bool {
		return a.srv.inflight.Load() == maxInflight && gServeInflight.Value() >= maxInflight
	})

	// Every further call must shed instantly, without spawning anything:
	// through a 200-call overload storm the server has added one goroutine
	// per admitted call and none per refused one.
	for i := 0; i < 200; i++ {
		err := stubs.Call(remote, 0, nil, nil)
		if err == nil {
			t.Fatal("call beyond the in-flight bound succeeded, want overload")
		}
		if !errors.Is(err, kernel.ErrOverload) {
			t.Fatalf("call beyond the in-flight bound = %v, want kernel.ErrOverload", err)
		}
		if !core.Retryable(err) {
			t.Fatalf("overload error %v is not Retryable; backoff-and-retry policies would give up", err)
		}
	}
	// (Less the test's own four callers, still parked in stubs.Call.)
	if ng := runtime.NumGoroutine() - maxInflight; ng > ng0+maxInflight {
		t.Fatalf("goroutines grew from %d to %d during the overload storm, want at most the bound = %d more (shedding is O(1) on the reader)",
			ng0, ng, maxInflight)
	}
	if d := scstats.GaugeFor("dispatch.shed").Value() - shed0; d < 200 {
		t.Fatalf("dispatch.shed moved by %d during 200 refused calls, want >= 200", d)
	}
	// Recovery: release the gate, the backlog drains, and new calls are
	// admitted again.
	close(gate)
	admitted.Wait()
	for i, err := range admittedErrs {
		if err != nil {
			t.Fatalf("admitted call %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "in-flight count drained", func() bool {
		return a.srv.inflight.Load() == 0
	})
	if err := stubs.Call(remote, 0, nil, nil); err != nil {
		t.Fatalf("call after the backlog drained: %v", err)
	}
}

func TestPerConnectionBoundLeavesRoom(t *testing.T) {
	// One connection may hold at most half of MaxInflight: a peer whose
	// calls fill its half is shed with a retryable overload, while the
	// server still has room, and another peer's calls are admitted and
	// answered as before.
	const half = 4
	cfgA := quickCfg()
	cfgA.MaxInflight = 2 * half
	cfgA.InlineThreshold = -1 // every admitted call holds its slot on a goroutine
	a := newMachineCfg(t, "A", cfgA)
	cfgPeer := quickCfg()
	cfgPeer.CallTimeout = 30 * time.Second // admitted calls wait for the gate
	hot := newMachineCfg(t, "B", cfgPeer)
	cold := newMachineCfg(t, "C", cfgPeer)

	entered := make(chan struct{}, 2*half)
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	gated, _ := singleton.Export(a.env, stressEchoMT, gatedSkel(entered, gate), nil)
	a.srv.PublishRoot("gated", gated)
	echo, _ := singleton.Export(a.env, stressEchoMT, echoSkel(), nil)
	a.srv.PublishRoot("echo", echo)
	remoteHot, err := hot.srv.ImportRootObject(hot.env, a.srv.Addr(), "gated", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	remoteCold, err := cold.srv.ImportRootObject(cold.env, a.srv.Addr(), "echo", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}

	var admitted sync.WaitGroup
	admittedErrs := make([]error, half)
	for i := 0; i < half; i++ {
		admitted.Add(1)
		go func(i int) {
			defer admitted.Done()
			admittedErrs[i] = stubs.Call(remoteHot, 0, nil, nil)
		}(i)
	}
	for i := 0; i < half; i++ {
		<-entered
	}

	if err := stubs.Call(remoteHot, 0, nil, nil); !errors.Is(err, kernel.ErrOverload) {
		t.Fatalf("a call past the connection's half = %v, want kernel.ErrOverload", err)
	}
	if n := a.srv.inflight.Load(); n != half {
		t.Fatalf("server in-flight = %d with one connection full, want %d", n, half)
	}
	for i := 0; i < 2*half; i++ {
		if err := echoBytes(remoteCold, []byte("cold")); err != nil {
			t.Fatalf("call %d from the other peer while the first is full: %v", i, err)
		}
	}

	close(gate)
	admitted.Wait()
	for i, err := range admittedErrs {
		if err != nil {
			t.Fatalf("admitted call %d: %v", i, err)
		}
	}
}

func TestConnDeathReclaimsBlockedCalls(t *testing.T) {
	// A connection that dies with a thousand calls blocked in their
	// handlers must not strand anything: the handlers' replies go nowhere,
	// every request and admission slot is given back, and the exported door
	// is reclaimed once the peer's lease lapses.
	const blocked = 1000
	cfgA := quickCfg()
	cfgA.MaxInflight = 4 * blocked // the one connection's half is 2 * blocked
	cfgA.InlineThreshold = -1      // nothing runs on the reader: it must stay free to notice the death
	a := newMachineCfg(t, "A", cfgA)

	fn := faultnet.New()
	cfgB := quickCfg()
	cfgB.CallTimeout = 30 * time.Second
	cfgB.Transport = FuncTransport{DialFunc: fn.Dialer(nil)}
	b := newMachineCfg(t, "B", cfgB)

	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	gatedObj, _ := singleton.Export(a.env, stressEchoMT, gatedSkel(nil, gate), nil)
	a.srv.PublishRoot("gated", gatedObj)

	// A separate counter export tracks door reclamation end to end: B
	// holds the only reference once the root is dropped, so its lease
	// lapsing after the kill must fire unreferenced.
	_, ctrObj, unref := exportCounter(t, a, "counter")

	remote, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "gated", stressEchoMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ImportRootObject(b.env, a.srv.Addr(), "counter", sctest.CounterMT); err != nil {
		t.Fatal(err)
	}
	dropRoot(t, a, "counter", ctrObj)

	var done sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < blocked; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if err := stubs.Call(remote, 0, nil, nil); err != nil {
				failed.Add(1)
			}
		}()
	}
	waitFor(t, 10*time.Second, "every call blocked in its handler", func() bool {
		return a.srv.inflight.Load() == blocked
	})

	// Kill the transport under all of them.
	fn.CloseAll()
	donech := make(chan struct{})
	go func() { done.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(20 * time.Second):
		t.Fatal("blocked calls did not terminate after their connection died")
	}
	if failed.Load() != blocked {
		t.Fatalf("%d of %d calls failed when their connection died, want all", failed.Load(), blocked)
	}
	waitFor(t, 5*time.Second, "exporter noticed the dead connection", func() bool {
		a.srv.mu.Lock()
		defer a.srv.mu.Unlock()
		return len(a.srv.allConns) == 0
	})

	// Let the handlers return; their replies go into the void, and every
	// one must release its admission slot and its request (the suite's
	// quiescence audit checks the buffers).
	close(gate)
	waitFor(t, 10*time.Second, "admission slots released", func() bool {
		return a.srv.inflight.Load() == 0
	})
	// The peer never comes back: its lease lapses and the dropped-root
	// counter door must be reclaimed.
	select {
	case <-unref:
	case <-time.After(10 * time.Second):
		t.Fatal("exported door not reclaimed after its holder died with calls blocked in the server")
	}
}
