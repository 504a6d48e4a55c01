package priority

import (
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
)

func TestPriorityPropagates(t *testing.T) {
	k := kernel.New("m1")
	srv, err := sctest.NewEnv(k, "server", Register)
	if err != nil {
		t.Fatal(err)
	}
	exec := dispatch.New(dispatch.Config{Workers: 1})
	defer exec.Close()

	var mu sync.Mutex
	var order []int64 // the delta argument doubles as an id

	skel := stubs.SkeletonFunc(func(op core.OpNum, args, results *buffer.Buffer) error {
		delta, err := args.ReadInt64()
		if err != nil {
			return err
		}
		mu.Lock()
		order = append(order, delta)
		mu.Unlock()
		results.WriteInt64(delta)
		return nil
	})
	obj, _ := Export(srv, sctest.CounterMT, skel, exec, nil)

	// Separate client domains with different priorities.
	mkClient := func(name string, prio int32) *core.Object {
		env, err := sctest.NewEnv(k, name, Register)
		if err != nil {
			t.Fatal(err)
		}
		SetPriority(env, prio)
		remote, err := sctest.TransferCopy(obj, env, sctest.CounterMT)
		if err != nil {
			t.Fatal(err)
		}
		return remote
	}
	low := mkClient("low", 1)
	high := mkClient("high", 9)

	// Block the single worker so queued calls sort by priority.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := exec.Submit(0, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	var wg sync.WaitGroup
	call := func(o *core.Object, id int64) {
		defer wg.Done()
		if _, err := sctest.Add(o, id); err != nil {
			t.Error(err)
		}
	}
	// Low-priority calls first (they enqueue), then the high one.
	wg.Add(3)
	issued := make(chan struct{}, 3)
	go func() { issued <- struct{}{}; call(low, 100) }()
	go func() { issued <- struct{}{}; call(low, 101) }()
	<-issued
	<-issued
	// Wait until both low calls are actually queued in the executor.
	for exec.Queued() < 2 {
	}
	go func() { issued <- struct{}{}; call(high, 900) }()
	<-issued
	for exec.Queued() < 3 {
	}
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 900 {
		t.Fatalf("execution order = %v, want high-priority call (900) first", order)
	}
}

func TestDefaultPriorityZero(t *testing.T) {
	k := kernel.New("m1")
	env, err := sctest.NewEnv(k, "e", Register)
	if err != nil {
		t.Fatal(err)
	}
	if p := CurrentPriority(env); p != 0 {
		t.Fatalf("default priority = %d", p)
	}
	SetPriority(env, 7)
	if p := CurrentPriority(env); p != 7 {
		t.Fatalf("priority = %d", p)
	}
}

func TestMarshalKeepsPriorityVector(t *testing.T) {
	k := kernel.New("m1")
	srv, err := sctest.NewEnv(k, "server", Register)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := sctest.NewEnv(k, "client", Register)
	if err != nil {
		t.Fatal(err)
	}
	exec := dispatch.New(dispatch.Config{Workers: 2})
	defer exec.Close()
	ctr := &sctest.Counter{}
	obj, _ := Export(srv, sctest.CounterMT, ctr.Skeleton(), exec, nil)
	remote, err := sctest.Transfer(obj, cli, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if remote.SC.Name() != "priority" {
		t.Fatalf("subcontract = %q", remote.SC.Name())
	}
	cp, err := remote.Copy()
	if err != nil {
		t.Fatal(err)
	}
	if cp.SC.Name() != "priority" {
		t.Fatalf("copy lost the priority vector: %q", cp.SC.Name())
	}
	if v, err := sctest.Add(cp, 2); err != nil || v != 2 {
		t.Fatalf("Add = %d, %v", v, err)
	}
}
