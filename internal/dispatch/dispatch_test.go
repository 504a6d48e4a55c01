package dispatch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// With one worker the engine degenerates to the old executor: strict
// priority order, FIFO within a level.
func TestPriorityOrderSingleWorker(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := e.Submit(0, func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	add := func(prio int32, tag int) {
		wg.Add(1)
		if err := e.Submit(prio, func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 10)
	add(3, 30)
	add(2, 20)
	add(3, 31) // same level as 30: FIFO after it
	close(block)
	wg.Wait()

	want := []int{30, 31, 20, 10}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// Equal priorities queued behind a higher one keep their submission order
// and run after every higher level.
func TestPriorityOrder(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	release := make(chan struct{})
	hold(t, e, 1, release)

	var mu sync.Mutex
	var order []int32
	var wg sync.WaitGroup
	wg.Add(4)
	for _, p := range []int32{1, 2, 1, 10} {
		if err := e.Submit(p, func() {
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []int32{10, 2, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// hold submits n items that each occupy a worker until release is closed,
// and returns once all n are running.
func hold(t *testing.T, e *Engine, n int, release chan struct{}) {
	t.Helper()
	var held sync.WaitGroup
	held.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit(0, func() { held.Done(); <-release }); err != nil {
			t.Fatal(err)
		}
	}
	held.Wait()
}

// Priority order is global, not per worker: with every worker busy and a
// queue of rising priorities, the first worker to come free runs the
// queue highest first.
func TestPriorityOrderAcrossWorkers(t *testing.T) {
	const workers, n = 4, 8
	e := New(Config{Workers: workers})
	defer e.Close()
	one, rest := make(chan struct{}), make(chan struct{})
	hold(t, e, 1, one)
	hold(t, e, workers-1, rest)
	defer close(rest)

	var mu sync.Mutex
	var order []int32
	var wg sync.WaitGroup
	wg.Add(n)
	for p := int32(1); p <= n; p++ {
		if err := e.Submit(p, func() {
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(one)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i, p := range order {
		if p != n-int32(i) {
			t.Fatalf("ran %v, want priorities %d down to 1", order, n)
		}
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	release := make(chan struct{})
	hold(t, e, 1, release)

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(5)
	for i := 0; i < 5; i++ {
		if err := e.Submit(3, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestRunWaits(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	done := false
	if err := e.Run(5, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Run returned before fn finished")
	}
}

// Close must run everything already queued — behind a running item, too —
// before returning.
func TestCloseDrains(t *testing.T) {
	e := New(Config{Workers: 2})
	var ran atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})
	_ = e.Submit(0, func() { close(started); <-block; ran.Add(1) })
	<-started
	for i := 0; i < 50; i++ {
		if err := e.Submit(int32(i%3), func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	e.Close()
	if got := ran.Load(); got != 51 {
		t.Fatalf("Close drained %d of 51 tasks", got)
	}
}

// Close drains a burst submitted to idle workers, with nothing holding them.
func TestCloseDrainsBurst(t *testing.T) {
	e := New(Config{Workers: 2})
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if err := e.Submit(1, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("drained %d of 50", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	if err := e.Submit(0, func() {}); err != ErrClosed {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
	if err := e.Run(0, func() {}); err != ErrClosed {
		t.Fatalf("Run after close = %v, want ErrClosed", err)
	}
}

// Run's completion channel is pooled: the steady-state allocation cost is
// the Submit closure pair, not a fresh channel per call.
func TestRunAllocs(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	if err := e.Run(0, func() {}); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Run(1, func() {}); err != nil {
			t.Fatal(err)
		}
	})
	// Two closures (the user fn wrapper in Run, its capture) and the
	// queue item's amortized slot; a fresh channel per Run would add
	// one more.
	if allocs > 3 {
		t.Fatalf("Run allocates %.1f objects/op, want ≤ 3 (done channel must be pooled)", allocs)
	}
}

// A queued item costs no allocation once the heap has grown: the typed
// sifts do not box it, and waking a worker allocates nothing.
func TestSubmitAllocs(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ran := make(chan struct{}, 1)
	fn := func() { ran <- struct{}{} }
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.Submit(1, fn); err != nil {
			t.Fatal(err)
		}
		<-ran
	})
	if allocs != 0 {
		t.Fatalf("Submit+run allocates %.2f objects/op, want 0", allocs)
	}
}

func TestQueued(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	release := make(chan struct{})
	defer close(release)
	hold(t, e, 1, release)
	for i := 0; i < 3; i++ {
		if err := e.Submit(0, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if q := e.Queued(); q != 3 {
		t.Fatalf("Queued = %d, want 3", q)
	}
}

// Many producers against many workers, each producer pausing now and then
// so workers go idle and wait: every item runs, so no wake-up is lost.
// (Run with -race in tier-2.)
func TestNoLostWakeup(t *testing.T) {
	e := New(Config{Workers: 8})
	defer e.Close()
	const producers = 16
	const per = 2000
	var ran atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Submit(int32(i%4), func() {
					if ran.Add(1) == producers*per {
						close(done)
					}
				}); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(time.Microsecond) // let workers go idle
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("lost wakeup: %d/%d ran", ran.Load(), producers*per)
	}
}

// BenchmarkSubmitRun prices one queued item's round trip through an idle
// GOMAXPROCS-worker engine: Submit, a worker wakes and runs it, the
// submitter sees it done. P8 runs 8×GOMAXPROCS submitters at once.
func BenchmarkSubmitRun(b *testing.B) {
	// submitter returns one submitter's round trip, its closure made once.
	submitter := func(b *testing.B, e *Engine) func() {
		ran := make(chan struct{}, 1)
		fn := func() { ran <- struct{}{} }
		return func() {
			if err := e.Submit(0, fn); err != nil {
				b.Fatal(err)
			}
			<-ran
		}
	}
	b.Run("P1", func(b *testing.B) {
		e := New(Config{})
		defer e.Close()
		roundTrip := submitter(b, e)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
	})
	b.Run("P8", func(b *testing.B) {
		e := New(Config{})
		defer e.Close()
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			roundTrip := submitter(b, e)
			for pb.Next() {
				roundTrip()
			}
		})
	})
}

func TestInlineStateAdapts(t *testing.T) {
	var st InlineState
	th := 100 * time.Microsecond
	if st.Eligible() {
		t.Fatal("zero state must not be eligible")
	}
	for i := 0; i < PromoteStreak-1; i++ {
		st.Observe(th/2, th)
		if st.Eligible() {
			t.Fatalf("promoted after %d observations, want %d", i+1, PromoteStreak)
		}
	}
	st.Observe(th/2, th)
	if !st.Eligible() {
		t.Fatal("not promoted after a full fast streak")
	}
	st.Observe(th/2, th) // promoted observations are no-ops
	if !st.Eligible() {
		t.Fatal("lost promotion on a fast call")
	}
	st.Observe(2*th, th)
	if st.Eligible() {
		t.Fatal("not demoted by a slow call")
	}
	// A slow call mid-streak resets it.
	st.Observe(th/2, th)
	st.Observe(2*th, th)
	for i := 0; i < PromoteStreak-1; i++ {
		st.Observe(th/2, th)
	}
	if st.Eligible() {
		t.Fatal("streak survived a slow call")
	}
	var nilState *InlineState
	if nilState.Eligible() {
		t.Fatal("nil state eligible")
	}
	nilState.Observe(time.Millisecond, th) // must not panic
}
