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

// A burst submitted while one worker is blocked must be stolen and run
// by the others: the pool keeps working when shards are imbalanced.
func TestWorkStealing(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()

	// Tie down three of the four workers; the queued burst (spread
	// round-robin over all shards, including the blocked workers') must
	// still complete promptly through the one free worker stealing.
	gate := make(chan struct{})
	var held sync.WaitGroup
	for i := 0; i < 3; i++ {
		held.Add(1)
		if err := e.Submit(0, func() { held.Done(); <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	held.Wait()

	const n = 100
	var ran atomic.Int64
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		if err := e.Submit(0, func() {
			if ran.Add(1) == n {
				close(done)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One free worker must drain all shards by stealing.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("burst not drained: %d/%d ran with 3 workers blocked", ran.Load(), n)
	}
	close(gate)
}

// Close must run everything already queued before returning.
func TestCloseDrains(t *testing.T) {
	e := New(Config{Workers: 2})
	var ran atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})
	_ = e.Submit(0, func() { close(started); <-block; ran.Add(1) })
	<-started
	for i := 0; i < 50; i++ {
		if err := e.Submit(0, func() { ran.Add(1) }); err != nil {
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
	if err := e.Submit(0, func() {}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// Hammer the park/wake protocol: many producers, many workers, nothing
// lost, no deadlock. (Run with -race in tier-2.)
func TestParkWakeStress(t *testing.T) {
	e := New(Config{Workers: 8})
	defer e.Close()
	const producers = 16
	const per = 2000
	var ran atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
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
					time.Sleep(time.Microsecond) // let workers park
				}
			}
		}(p)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("lost wakeup: %d/%d ran", ran.Load(), producers*per)
	}
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
	st.Promote()
	if !st.Eligible() {
		t.Fatal("explicit Promote did not take")
	}
	var nilState *InlineState
	if nilState.Eligible() {
		t.Fatal("nil state eligible")
	}
	nilState.Observe(time.Millisecond, th) // must not panic
	nilState.Promote()
}
