package scstats

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestForInternsOnce(t *testing.T) {
	Reset()
	a := For("interntest")
	b := For("interntest")
	if a != b {
		t.Fatalf("For returned distinct blocks for the same name")
	}
	if a.Name() != "interntest" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestBeginEndAlwaysOn(t *testing.T) {
	Reset()
	s := For("beginend")
	const n = 16
	for i := 0; i < n; i++ {
		start := s.Begin()
		if start == 0 {
			t.Fatalf("call %d: not measured", i)
		}
		s.End(start, nil)
	}
	sn := s.snapshot()
	if sn.Calls != n {
		t.Fatalf("Calls = %d, want %d", sn.Calls, n)
	}
	if sn.Lat.Count != n {
		t.Fatalf("Lat.Count = %d, want %d (every call recorded)", sn.Lat.Count, n)
	}
	if sn.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", sn.Errors)
	}
}

func TestEndCallPerOp(t *testing.T) {
	Reset()
	s := For("perop")
	s.EndCall(s.Begin(), 3, 0, nil)
	s.EndCall(s.Begin(), 3, 0, nil)
	s.EndCall(s.Begin(), 7, 0, nil)
	s.End(s.Begin(), nil) // unkeyed
	// An op past the table bound lands in the shared overflow slot.
	s.EndCall(s.Begin(), maxOps+41, 0, nil)

	sn := s.snapshot()
	if sn.Lat.Count != 5 {
		t.Fatalf("aggregate samples = %d, want 5", sn.Lat.Count)
	}
	got := map[uint32]uint64{}
	overflow := uint64(0)
	for _, op := range sn.Ops {
		if op.Overflow {
			overflow = op.Lat.Count
			continue
		}
		got[op.Op] = op.Lat.Count
	}
	if got[3] != 2 || got[7] != 1 {
		t.Fatalf("per-op counts = %v, want op3=2 op7=1", got)
	}
	if overflow != 1 {
		t.Fatalf("overflow count = %d, want 1", overflow)
	}
}

func TestFirstCallIsMeasured(t *testing.T) {
	Reset()
	s := For("firstcall")
	start := s.Begin()
	if start == 0 {
		t.Fatalf("first call not measured")
	}
	s.End(start, nil)
	if sn := s.snapshot(); sn.Lat.Count != 1 {
		t.Fatalf("Lat.Count = %d, want 1", sn.Lat.Count)
	}
}

func TestErrorClassification(t *testing.T) {
	Reset()
	s := For("classify")
	wrap := func(err error) error { return errors.Join(errors.New("layer"), err) }
	s.End(0, kernel.ErrDeadlineExceeded)
	s.End(0, wrap(kernel.ErrCancelled))
	s.End(0, errors.New("boom"))
	sn := s.snapshot()
	if sn.Errors != 3 || sn.DeadlineExceeded != 1 || sn.Cancelled != 1 {
		t.Fatalf("errors=%d deadline=%d cancelled=%d, want 3/1/1",
			sn.Errors, sn.DeadlineExceeded, sn.Cancelled)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.End(s.Begin(), errors.New("x"))
	s.EndCall(0, 1, 0, nil)
	s.Error(nil)
	s.RecordLatency(time.Second)
}

func TestConcurrentRecording(t *testing.T) {
	Reset()
	s := For("race")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.End(s.Begin(), nil)
			}
		}()
	}
	wg.Wait()
	if got := s.Calls.Load(); got != 8000 {
		t.Fatalf("Calls = %d, want 8000", got)
	}
	if sn := s.snapshot(); sn.Lat.Count != 8000 {
		t.Fatalf("Lat.Count = %d, want 8000", sn.Lat.Count)
	}
}

func TestGauges(t *testing.T) {
	Reset()
	g := GaugeFor("test.live_things")
	if g != GaugeFor("test.live_things") {
		t.Fatal("GaugeFor interned two blocks for one name")
	}
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	// A count keeps the kind it was interned with, whoever reads it later.
	if CounterFor("test.things_done") != GaugeFor("test.things_done") {
		t.Fatal("CounterFor and GaugeFor interned two blocks for one name")
	}
	found := false
	for _, sn := range AllGauges() {
		if sn.Name == "test.live_things" {
			found = true
			if sn.Value != 7 || sn.Counter {
				t.Fatalf("snapshot = %+v, want a level of 7", sn)
			}
		}
		if sn.Name == "test.things_done" && !sn.Counter {
			t.Fatalf("snapshot = %+v, want a count", sn)
		}
	}
	if !found {
		t.Fatal("gauge missing from snapshots")
	}
	var nilG *Gauge
	nilG.Add(1)
	nilG.Set(1)
	_ = nilG.Value()
}

// snapshot is s as AllSnapshots reports it.
func (s *Stats) snapshot() Snapshot {
	for _, sn := range AllSnapshots() {
		if sn.Name == s.name {
			return sn
		}
	}
	return Snapshot{}
}

// TestTakeCarriesEveryCounter: every exported counter of a Stats and of a
// PeerStats moves, each by its own amount, and Take reports each under its
// own name — so a counter added to either block that walk does not carry,
// or carries into the wrong field, fails here.
func TestTakeCarriesEveryCounter(t *testing.T) {
	bump := func(block any) map[string]uint64 {
		moved := map[string]uint64{}
		v := reflect.ValueOf(block).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				if c, ok := v.Field(i).Addr().Interface().(*atomic.Uint64); ok {
					moved[f.Name] = c.Add(uint64(i + 1))
				}
			}
		}
		return moved
	}
	check := func(snap any, moved map[string]uint64) {
		v := reflect.ValueOf(snap)
		for name, want := range moved {
			if f := v.FieldByName(name); !f.IsValid() || f.Uint() != want {
				t.Errorf("%T.%s: Take reports %v, want %d", snap, name, f, want)
			}
		}
	}
	sc, peer := For("take-test"), PeerFor("take-test:1")
	defer peer.Release()
	scMoved, peerMoved := bump(sc), bump(peer)
	if len(scMoved) < 10 || len(peerMoved) < 2 {
		t.Fatalf("bumped %d Stats and %d PeerStats counters, want ≥ 10 and ≥ 2", len(scMoved), len(peerMoved))
	}
	got := Take()
	for _, sn := range got.Subcontracts {
		if sn.Name == "take-test" {
			check(sn, scMoved)
			scMoved = nil
		}
	}
	for _, p := range got.Peers {
		if p.Addr == "take-test:1" {
			check(p, peerMoved)
			peerMoved = nil
		}
	}
	if scMoved != nil || peerMoved != nil {
		t.Fatal("Take lists no row for the subcontract or the peer under test")
	}
}
