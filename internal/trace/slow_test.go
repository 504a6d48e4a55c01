package trace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

// clearThreshold returns slow-root copying to its off state (the
// threshold is configuration and survives Reset, so tests must unset what
// they set).
func clearThreshold() { SetSlowDefault(0) }

// sampledCall runs one head-sampled call tree: a root span with the given
// name, children zero-duration child spans and an event, ending with an
// error. It returns the trace ID.
func sampledCall(root NameID, children int) uint64 {
	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, root)
	childName := Name("slow.child")
	for i := 0; i < children; i++ {
		c := Begin(info, childName)
		c.End(info, nil)
	}
	Event(info, Name("slow.event"))
	sp.End(info, errors.New("deadline blown"))
	return info.Trace
}

// TestTailCommitOverThreshold: a head-sampled root that meets the slow
// threshold is copied to the slow ring with its full span tree, events
// and error text included, retrievable via SlowRoots/SlowCollect/SlowTree.
func TestTailCommitOverThreshold(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond) // every root is "slow"
	t.Cleanup(clearThreshold)

	id := sampledCall(Name("slow.commit_root"), 2)
	spans := SlowCollect(id)
	if len(spans) != 4 {
		t.Fatalf("SlowCollect: %d spans, want 4 (root + 2 children + event): %+v", len(spans), spans)
	}
	var sawEvent bool
	for _, sd := range spans {
		if sd.Name == "slow.event" && sd.Duration == 0 {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Errorf("event span missing from the slow tree: %+v", spans)
	}
	roots := SlowRoots(0)
	if len(roots) != 1 || roots[0].TraceID != id || roots[0].Name != "slow.commit_root" {
		t.Fatalf("SlowRoots = %+v, want one root for trace %016x", roots, id)
	}
	if roots[0].Err != "deadline blown" {
		t.Errorf("slow root error = %q, want the call's error text", roots[0].Err)
	}
	trees := SlowTree(id)
	if len(trees) != 1 || len(trees[0].Children) != 3 {
		t.Fatalf("SlowTree: want one root with 3 children, got %+v", trees)
	}
}

// TestTailSampledSlowCopied: a head-sampled (non-speculative) root that
// runs past its threshold is copied from the main ring into the slow
// ring, and the main ring keeps its copy.
func TestTailSampledSlowCopied(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Millisecond)
	t.Cleanup(clearThreshold)

	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, Name("slow.sampled_root"))
	c := Begin(info, Name("slow.sampled_child"))
	c.End(info, nil)
	time.Sleep(3 * time.Millisecond)
	sp.End(info, nil)

	if spans := Collect(info.Trace); len(spans) != 2 {
		t.Fatalf("main ring has %d spans, want 2", len(spans))
	}
	slow := SlowCollect(info.Trace)
	if len(slow) != 2 {
		t.Fatalf("SlowCollect: %d spans, want the full sampled tree (2)", len(slow))
	}
}

// TestTailSampledFastNotCopied: a sampled root under the threshold stays
// out of the slow ring.
func TestTailSampledFastNotCopied(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Hour)
	t.Cleanup(clearThreshold)

	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, Name("slow.sampled_fast"))
	sp.End(info, nil)
	if slow := SlowCollect(info.Trace); len(slow) != 0 {
		t.Errorf("fast sampled root copied to slow ring: %+v", slow)
	}
}

// TestTailConcurrent copies slow roots from several goroutines while a
// reader lists the slow ring, under the race detector, and every root the
// listing shows last has its whole tree.
func TestTailConcurrent(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond)
	t.Cleanup(clearThreshold)

	root := Name("slow.conc_root")
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			SlowRoots(16)
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				sampledCall(root, 3)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// The newest roots' spans fit the slow ring many times over, so each
	// listed root must have been copied with its whole tree.
	roots := SlowRoots(50)
	if len(roots) != 50 {
		t.Fatalf("%d slow roots listed after 800 slow calls, want 50", len(roots))
	}
	for _, r := range roots {
		if spans := SlowCollect(r.TraceID); len(spans) != 5 {
			t.Errorf("trace %016x: %d slow-ring spans, want 5 (root + 3 children + event): %+v", r.TraceID, len(spans), spans)
		}
	}
}

// threeSpanRoot runs one head-sampled call of three spans: a root, a
// child and an event.
func threeSpanRoot(root, child, event NameID) {
	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, root)
	c := Begin(info, child)
	c.End(info, nil)
	Event(info, event)
	sp.End(info, nil)
}

// fillRing writes a lap of the main ring's worth of unrelated spans.
func fillRing() {
	for i := 0; i < defaultCapacity; i++ {
		threeSpanRoot(Name("fill.root"), Name("fill.child"), Name("fill.event"))
	}
}

// TestSlowRootAllocs: copying a slow root to the slow ring allocates
// nothing beyond what recording the same root under the threshold does —
// it copies slot to slot, without building spans, even on a full ring.
func TestSlowRootAllocs(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	t.Cleanup(clearThreshold)
	fillRing()
	root, child, event := Name("slow.allocs_root"), Name("slow.allocs_child"), Name("slow.allocs_event")
	run := func() { threeSpanRoot(root, child, event) }
	SetSlowDefault(time.Hour)
	fast := testing.AllocsPerRun(200, run)
	SetSlowDefault(time.Nanosecond)
	slow := testing.AllocsPerRun(200, run)
	if slow > fast {
		t.Errorf("a slow root allocates %.1f objects, the same root under the threshold %.1f", slow, fast)
	}
	if roots := SlowRoots(0); len(roots) == 0 || SlowCollect(roots[0].TraceID) == nil {
		t.Error("the slow roots were not copied")
	}
}

// BenchmarkSlowRoot records a three-span root on a full main ring under
// the slow threshold (fast) and over it (slow), where the root is copied
// to the slow ring.
func BenchmarkSlowRoot(b *testing.B) {
	Reset()
	b.Cleanup(Reset)
	b.Cleanup(clearThreshold)
	fillRing()
	root, child, event := Name("slow.bench_root"), Name("slow.bench_child"), Name("slow.bench_event")
	for _, bc := range []struct {
		name string
		thr  time.Duration
	}{{"fast", time.Hour}, {"slow", time.Nanosecond}} {
		b.Run(bc.name, func(b *testing.B) {
			SetSlowDefault(bc.thr)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				threeSpanRoot(root, child, event)
			}
		})
	}
}
