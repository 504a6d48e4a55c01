package trace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

// clearThresholds returns tail capture to its off state (the threshold is
// configuration and survives Reset, so tests must unset what they set).
func clearThresholds(t *testing.T) {
	t.Helper()
	SetSlowDefault(0)
	if TailEnabled() {
		t.Fatal("tail capture still enabled after clearing thresholds")
	}
}

// specCall runs one speculative (tail-armed) call tree: a root span with
// the given name, children zero-duration child spans, and an optional
// sleep so the root's duration crosses a real threshold. It returns the
// armed trace ID (0 when arming was declined).
func specCall(t *testing.T, root NameID, children int, hold time.Duration) uint64 {
	t.Helper()
	id := TailArm()
	if id == 0 {
		return 0
	}
	info := &kernel.Info{Trace: id, Spec: true}
	sp := Begin(info, root)
	childName := Name("tail.child")
	for i := 0; i < children; i++ {
		c := Begin(info, childName)
		c.End(info, nil)
	}
	if hold > 0 {
		time.Sleep(hold)
	}
	sp.End(info, errors.New("deadline blown"))
	return id
}

// TestTailCommitOverThreshold is the tentpole's conformance shape inside
// the trace package: with head sampling off, a speculative call whose
// root meets the slow threshold is committed to the slow ring with its
// full span tree, retrievable via SlowRoots/SlowCollect/SlowTree.
func TestTailCommitOverThreshold(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSampling(0)
	SetSlowDefault(time.Nanosecond) // every settled root is "slow"
	t.Cleanup(func() { clearThresholds(t) })

	rootName := Name("tail.commit_root")
	id := specCall(t, rootName, 2, 0)
	if id == 0 {
		t.Fatal("TailArm declined with empty shards")
	}

	if got := specPending(); got != 0 {
		t.Errorf("specPending() = %d after root settled, want 0", got)
	}
	spans := SlowCollect(id)
	if len(spans) != 3 {
		t.Fatalf("SlowCollect: %d spans, want 3 (root + 2 children): %+v", len(spans), spans)
	}
	roots := SlowRoots(0)
	if len(roots) != 1 || roots[0].TraceID != id || roots[0].Name != "tail.commit_root" {
		t.Fatalf("SlowRoots = %+v, want one root for trace %016x", roots, id)
	}
	if roots[0].Err != "deadline blown" {
		t.Errorf("slow root error = %q, want the call's error text", roots[0].Err)
	}
	trees := SlowTree(id)
	if len(trees) != 1 || len(trees[0].Children) != 2 {
		t.Fatalf("SlowTree: want one root with 2 children, got %+v", trees)
	}
	st := TailStats()
	if st.Armed != 1 || st.Committed != 1 || st.Abandoned != 0 {
		t.Errorf("TailStats = %+v, want Armed=1 Committed=1 Abandoned=0", st)
	}
}

// TestTailAbandonUnderThreshold: a speculative call that settles fast
// leaves nothing behind — no slow spans, no pinned buffer, just an
// Abandoned tick.
func TestTailAbandonUnderThreshold(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Hour)
	t.Cleanup(func() { clearThresholds(t) })

	id := specCall(t, Name("tail.fast_root"), 2, 0)
	if id == 0 {
		t.Fatal("TailArm declined with empty shards")
	}
	if got := specPending(); got != 0 {
		t.Errorf("specPending() = %d, want 0 (buffer returned to pool)", got)
	}
	if spans := SlowCollect(id); len(spans) != 0 {
		t.Errorf("SlowCollect returned %d spans for an abandoned trace", len(spans))
	}
	if roots := SlowRoots(0); len(roots) != 0 {
		t.Errorf("SlowRoots = %+v, want empty", roots)
	}
	st := TailStats()
	if st.Armed != 1 || st.Committed != 0 || st.Abandoned != 1 {
		t.Errorf("TailStats = %+v, want Armed=1 Abandoned=1", st)
	}
}

// TestTailSampledSlowCopied: a head-sampled (non-speculative) root that
// runs past its threshold is copied from the main ring into the slow
// ring, so /traces/slow is complete regardless of sampling.
func TestTailSampledSlowCopied(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Millisecond)
	t.Cleanup(func() { clearThresholds(t) })

	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, Name("tail.sampled_root"))
	c := Begin(info, Name("tail.sampled_child"))
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
	if st := TailStats(); st.Armed != 0 {
		t.Errorf("sampled-slow copy should not tick Armed: %+v", st)
	}
}

// TestTailSampledFastNotCopied: a sampled root under the threshold stays
// out of the slow ring.
func TestTailSampledFastNotCopied(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Hour)
	t.Cleanup(func() { clearThresholds(t) })

	info := &kernel.Info{Trace: NewTraceID()}
	sp := Begin(info, Name("tail.sampled_fast"))
	sp.End(info, nil)
	if slow := SlowCollect(info.Trace); len(slow) != 0 {
		t.Errorf("fast sampled root copied to slow ring: %+v", slow)
	}
}

// TestTailBufferTruncation: a speculative tree deeper than the buffer cap
// keeps its earliest spans and still settles cleanly.
func TestTailBufferTruncation(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond)
	t.Cleanup(func() { clearThresholds(t) })

	id := specCall(t, Name("tail.deep_root"), specBufCap+40, 0)
	if id == 0 {
		t.Fatal("TailArm declined")
	}
	spans := SlowCollect(id)
	if len(spans) != specBufCap {
		t.Errorf("truncated commit: %d spans, want cap %d", len(spans), specBufCap)
	}
	if specPending() != 0 {
		t.Error("truncated trace left a pending buffer")
	}
}

// TestTailArmRequiresThreshold: with no threshold configured TailArm is a
// refusal, and TailEnabled is the one-atomic gate the call path checks.
func TestTailArmRequiresThreshold(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	clearThresholds(t)
	if TailEnabled() {
		t.Fatal("TailEnabled with no thresholds")
	}
	if id := TailArm(); id != 0 {
		t.Fatalf("TailArm = %016x with tail capture off, want 0", id)
	}
}

// TestTailDeclineWhenSaturated: arming far past the shard caps declines
// (rather than growing without bound), and the armed population stays
// bounded by the configured capacity.
func TestTailDeclineWhenSaturated(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond)
	t.Cleanup(func() { clearThresholds(t) })

	total := specNShards * specShardCap
	for i := 0; i < 3*total; i++ {
		TailArm() // never settled: buffers stay armed
	}
	if got := specPending(); got > total {
		t.Errorf("specPending() = %d, want ≤ capacity %d", got, total)
	}
	if st := TailStats(); st.Declined == 0 {
		t.Error("no arms declined after saturating every shard")
	}
}

// TestTailConcurrent exercises arm/emit/settle against readers under the
// race detector.
func TestTailConcurrent(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond)
	t.Cleanup(func() { clearThresholds(t) })

	root := Name("tail.conc_root")
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
			TailStats()
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				specCall(t, root, 3, 0)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := specPending(); got != 0 {
		t.Errorf("specPending() = %d after all calls settled", got)
	}
	st := TailStats()
	if st.Committed == 0 {
		t.Errorf("no commits under concurrency: %+v", st)
	}
	if st.Armed != st.Committed+st.Abandoned+0 {
		t.Errorf("arm accounting leaks: %+v", st)
	}
}

// TestTailEventRoutesToSpecBuffer: Events on a speculative context land
// in the committed tree.
func TestTailEventRoutesToSpecBuffer(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetSlowDefault(time.Nanosecond)
	t.Cleanup(func() { clearThresholds(t) })

	id := TailArm()
	if id == 0 {
		t.Fatal("TailArm declined")
	}
	info := &kernel.Info{Trace: id, Spec: true}
	sp := Begin(info, Name("tail.event_root"))
	Event(info, Name("tail.event"))
	sp.End(info, nil)

	spans := SlowCollect(id)
	if len(spans) != 2 {
		t.Fatalf("SlowCollect: %d spans, want root + event", len(spans))
	}
	var sawEvent bool
	for _, sd := range spans {
		if sd.Name == "tail.event" && sd.Duration == 0 {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Errorf("event span missing from committed tree: %+v", spans)
	}
}
