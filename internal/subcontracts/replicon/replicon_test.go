package replicon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/stubs"
)

// sharedCounter builds a group of n replicas that conspire to maintain one
// counter (the servers "perform their own state synchronization" — here by
// sharing the state object, as co-operating Spring servers may).
func sharedCounter(t *testing.T, k *kernel.Kernel, n int) (*Group, *sctest.Counter, []*Member, []*core.Env) {
	t.Helper()
	g := NewGroup()
	ctr := &sctest.Counter{}
	members := make([]*Member, n)
	envs := make([]*core.Env, n)
	for i := 0; i < n; i++ {
		env, err := sctest.NewEnv(k, "replica", Register)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
		members[i] = g.Join(env, env.Domain.Name(), ctr.Skeleton())
	}
	return g, ctr, members, envs
}

func client(t *testing.T, k *kernel.Kernel) *core.Env {
	t.Helper()
	env, err := sctest.NewEnv(k, "client", Register)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestInvokeFirstReplica(t *testing.T) {
	k := kernel.New("m1")
	g, ctr, _, _ := sharedCounter(t, k, 3)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)

	if v, err := sctest.Add(obj, 10); err != nil || v != 10 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	if ctr.Value() != 10 {
		t.Fatalf("server state = %d", ctr.Value())
	}
	if n, _ := Replicas(obj); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
}

func TestFailoverOnCrash(t *testing.T) {
	k := kernel.New("m1")
	g, _, members, _ := sharedCounter(t, k, 3)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)

	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}
	// Kill the replica the client is talking to (the first). The next
	// invocation must transparently fail over.
	members[0].Crash()
	if v, err := sctest.Add(obj, 1); err != nil || v != 2 {
		t.Fatalf("Add after crash = %d, %v; failover failed", v, err)
	}
	// The reply from the surviving replica piggybacked the new set.
	if n, _ := Replicas(obj); n != 2 {
		t.Fatalf("replicas after update = %d, want 2", n)
	}
	if e, _ := Epoch(obj); e != g.Epoch() {
		t.Fatalf("epoch = %d, want %d", e, g.Epoch())
	}
}

func TestAllReplicasDead(t *testing.T) {
	k := kernel.New("m1")
	g, _, members, _ := sharedCounter(t, k, 2)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)
	for _, m := range members {
		m.Crash()
	}
	if _, err := sctest.Get(obj); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("Get with all dead = %v, want ErrNoReplicas", err)
	}
}

func TestJoinPropagatesToClient(t *testing.T) {
	k := kernel.New("m1")
	g, ctr, _, _ := sharedCounter(t, k, 1)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)
	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}

	// A new replica joins; the next reply updates the client's set.
	env, err := sctest.NewEnv(k, "late-replica", Register)
	if err != nil {
		t.Fatal(err)
	}
	g.Join(env, "late", ctr.Skeleton())
	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}
	if n, _ := Replicas(obj); n != 2 {
		t.Fatalf("replicas after join = %d, want 2", n)
	}
}

func TestRemoteExceptionNotRetried(t *testing.T) {
	k := kernel.New("m1")
	g, ctr, _, _ := sharedCounter(t, k, 3)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)

	if err := sctest.Boom(obj); !stubs.IsRemote(err) {
		t.Fatalf("Boom = %v, want remote exception", err)
	}
	// A remote exception is not a communications error: exactly one
	// replica saw the call, and the set is intact.
	if ctr.Calls() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on remote exception)", ctr.Calls())
	}
	if n, _ := Replicas(obj); n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
}

func TestMarshalUnmarshalReplicaSet(t *testing.T) {
	k := kernel.New("m1")
	g, _, _, _ := sharedCounter(t, k, 3)
	cliA := client(t, k)
	cliB := client(t, k)
	obj := g.Export(cliA, sctest.CounterMT)

	moved, err := sctest.Transfer(obj, cliB, sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Consumed() {
		t.Fatal("marshal did not consume")
	}
	if n, _ := Replicas(moved); n != 3 {
		t.Fatalf("replicas after transfer = %d, want 3", n)
	}
	if v, err := sctest.Add(moved, 5); err != nil || v != 5 {
		t.Fatalf("Add via moved object = %d, %v", v, err)
	}
}

func TestCopyIndependentSets(t *testing.T) {
	k := kernel.New("m1")
	g, _, members, _ := sharedCounter(t, k, 2)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)
	cp, err := obj.Copy()
	if err != nil {
		t.Fatal(err)
	}
	members[0].Crash()
	// Both objects fail over independently.
	if _, err := sctest.Add(obj, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(cp, 1); err != nil {
		t.Fatal(err)
	}
	if err := obj.Consume(); err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(cp, 1); err != nil {
		t.Fatalf("copy dead after original consumed: %v", err)
	}
}

func TestConsumeReleasesAll(t *testing.T) {
	k := kernel.New("m1")
	g, _, _, _ := sharedCounter(t, k, 3)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)
	before := cli.Domain.HandleCount()
	if before == 0 {
		t.Fatal("expected replica handles in client domain")
	}
	if err := obj.Consume(); err != nil {
		t.Fatal(err)
	}
	if got := cli.Domain.HandleCount(); got != before-3 {
		t.Fatalf("handles after consume = %d, want %d", got, before-3)
	}
	if _, err := sctest.Get(obj); !errors.Is(err, core.ErrConsumed) {
		t.Fatalf("Get after consume = %v", err)
	}
}

func TestSingletonReceiverDiscoversReplicon(t *testing.T) {
	// A domain linked with replicon receives a replicon object through
	// the generic unmarshal path even though the counter type defaults to
	// singleton — the §6.1 compatible-subcontract protocol.
	k := kernel.New("m1")
	g, _, _, _ := sharedCounter(t, k, 2)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)

	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.Unmarshal(cli, sctest.CounterMT, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SC.ID() != SCID {
		t.Fatalf("subcontract = %d, want replicon", got.SC.ID())
	}
}

func TestConcurrentInvokeDuringCrash(t *testing.T) {
	k := kernel.New("m1")
	g, _, members, _ := sharedCounter(t, k, 3)
	cli := client(t, k)
	obj := g.Export(cli, sctest.CounterMT)

	var wg sync.WaitGroup
	const calls = 50
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sctest.Add(obj, 1); err != nil {
				errCh <- err
			}
		}()
		if i == 10 {
			members[0].Crash()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent invoke failed: %v", err)
	}
}

// flakyReplica is a single member door that fails its first `failures`
// calls with failure, then serves the counter normally — the shape of a
// server riding out a restart (a retryable communications failure) or a
// burst of load (kernel.ErrOverload).
func flakyReplica(t *testing.T, k *kernel.Kernel, ctr *sctest.Counter, failures int, failure error) (*core.Env, kernel.Handle) {
	t.Helper()
	env, err := sctest.NewEnv(k, "flaky-replica", Register)
	if err != nil {
		t.Fatal(err)
	}
	skel := ctr.Skeleton()
	var remaining atomic.Int32
	remaining.Store(int32(failures))
	proc := func(req *buffer.Buffer, info *kernel.Info) (*buffer.Buffer, error) {
		if remaining.Add(-1) >= 0 {
			// Fail before consuming req: in-kernel retries reuse the same
			// args buffer, as a wire transport re-serializes per attempt.
			return nil, fmt.Errorf("injected: %w", failure)
		}
		if _, err := req.ReadUint32(); err != nil { // epoch control
			return nil, err
		}
		reply := buffer.New(64)
		reply.WriteByte(0) // no replica-set update
		if err := stubs.ServeCallInfo(skel, req, reply, info); err != nil {
			return nil, err
		}
		return reply, nil
	}
	h, _ := env.Domain.CreateDoorInfo(proc, nil)
	return env, h
}

// replicated is a client object over the given replica doors, in order.
func replicated(t *testing.T, cli *core.Env, replicas ...kernel.Ref) *core.Object {
	t.Helper()
	var hs []kernel.Handle
	for _, ref := range replicas {
		hs = append(hs, cli.Domain.AdoptRef(ref))
	}
	return core.NewObject(cli, sctest.CounterMT, SC, &Rep{hs: hs})
}

func refOf(t *testing.T, env *core.Env, h kernel.Handle) kernel.Ref {
	t.Helper()
	ref, err := env.Domain.RefOf(h)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

var outage = fmt.Errorf("%w: outage", kernel.ErrCommFailure)

// TestPolicyRetainsLastReplica: a retryable failure on the last remaining
// replica does not empty the set — the handle is retained and retried
// until the replica comes back.
func TestPolicyRetainsLastReplica(t *testing.T) {
	k := kernel.New("m1")
	ctr := &sctest.Counter{}
	env, h := flakyReplica(t, k, ctr, 5, outage)
	obj := replicated(t, client(t, k), refOf(t, env, h))

	if v, err := sctest.Add(obj, 7); err != nil || v != 7 {
		t.Fatalf("Add through outage = %d, %v", v, err)
	}
	if n, _ := Replicas(obj); n != 1 {
		t.Fatalf("replica set after retries = %d, want 1 (retained)", n)
	}
}

// TestPolicyBoundsRetries: when the outage outlasts maxRounds the call
// returns the retryable error — but the replica is still retained, so a
// later call (after recovery) succeeds without any re-resolution.
func TestPolicyBoundsRetries(t *testing.T) {
	k := kernel.New("m1")
	ctr := &sctest.Counter{}
	env, h := flakyReplica(t, k, ctr, maxRounds+7, outage)
	obj := replicated(t, client(t, k), refOf(t, env, h))

	if _, err := sctest.Add(obj, 1); !core.Retryable(err) {
		t.Fatalf("exhausted retries = %v, want a retryable error", err)
	}
	if n, _ := Replicas(obj); n != 1 {
		t.Fatalf("replica dropped despite the round limit: %d", n)
	}
	// maxRounds of the injected failures were consumed; the next call
	// burns the remaining 7 inside its own rounds and succeeds.
	if v, err := sctest.Add(obj, 2); err != nil || v != 2 {
		t.Fatalf("Add after recovery = %d, %v", v, err)
	}
}

// TestRevokedLastReplicaEmptiesSet: a door that is gone is dropped even
// when it is the last, and the set empties to ErrNoReplicas.
func TestRevokedLastReplicaEmptiesSet(t *testing.T) {
	k := kernel.New("m1")
	srv := client(t, k)
	h, door := srv.Domain.CreateDoor(func(*buffer.Buffer) (*buffer.Buffer, error) { return nil, nil }, nil)
	obj := replicated(t, client(t, k), refOf(t, srv, h))
	door.Revoke()

	if _, err := sctest.Add(obj, 1); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("Add on a revoked last replica = %v, want ErrNoReplicas", err)
	}
	if n, _ := Replicas(obj); n != 0 {
		t.Fatalf("replica set = %d, want 0", n)
	}
}

// TestShedKeepsReplica: a replica that shed a call (kernel.ErrOverload)
// never ran it and is alive, so it stays in the set while others remain;
// the call is retried after the pause.
func TestShedKeepsReplica(t *testing.T) {
	k := kernel.New("m1")
	ctr := &sctest.Counter{}
	env0, h0 := flakyReplica(t, k, ctr, 1, kernel.ErrOverload)
	env1, h1 := flakyReplica(t, k, ctr, 0, nil)
	obj := replicated(t, client(t, k), refOf(t, env0, h0), refOf(t, env1, h1))

	if v, err := sctest.Add(obj, 3); err != nil || v != 3 {
		t.Fatalf("Add through a shed call = %d, %v", v, err)
	}
	if n, _ := Replicas(obj); n != 2 {
		t.Fatalf("replica set after a shed call = %d, want 2", n)
	}
}

// TestUnmarshalRefusesHugeReplicaCount: a reference of a few bytes that
// declares 2^40 replicas is refused before anything is sized by the count.
func TestUnmarshalRefusesHugeReplicaCount(t *testing.T) {
	cli := client(t, kernel.New("m1"))
	buf := buffer.New(64)
	core.WriteHeader(buf, SCID, sctest.CounterMT.Type)
	buf.WriteUint32(1)
	buf.WriteUvarint(1 << 40)
	if buf.Len() > 64 {
		t.Fatalf("hostile reference is %d bytes, want ≤ 64", buf.Len())
	}
	if _, err := core.Unmarshal(cli, sctest.CounterMT, buf); !errors.Is(err, buffer.ErrBadCount) {
		t.Fatalf("Unmarshal = %v, want ErrBadCount", err)
	}
}

// TestUpdateRefusesHugeReplicaCount: a reply's control section that
// declares 2^40 replicas is refused the same way, so a server cannot kill
// its client.
func TestUpdateRefusesHugeReplicaCount(t *testing.T) {
	cli := client(t, kernel.New("m1"))
	reply := buffer.New(16)
	reply.WriteByte(1)
	reply.WriteUint32(2)
	reply.WriteUvarint(1 << 40)
	if err := (&Rep{}).applyUpdate(cli.Domain, reply); !errors.Is(err, buffer.ErrBadCount) {
		t.Fatalf("applyUpdate = %v, want ErrBadCount", err)
	}
}

// TestUnmarshalStrandsNoHandles: a reference whose last door is missing,
// or is not a door at all, fails to unmarshal and leaves the receiving
// domain's live-door count where it was.
func TestUnmarshalStrandsNoHandles(t *testing.T) {
	k := kernel.New("m1")
	g, _, _, _ := sharedCounter(t, k, 3)
	for _, last := range []string{"missing", "not a door"} {
		t.Run(last, func(t *testing.T) {
			src, dst := client(t, k), client(t, k)
			buf := buffer.New(64)
			if err := g.Export(src, sctest.CounterMT).Marshal(buf); err != nil {
				t.Fatal(err)
			}
			doors := buf.Doors()
			dropped := doors[len(doors)-1].(kernel.Ref)
			defer dropped.Release()
			doors = doors[:len(doors)-1]
			if last != "missing" {
				doors = append(doors, last)
			}
			before := dst.Domain.HandleCount()
			if _, err := core.Unmarshal(dst, sctest.CounterMT, buffer.FromParts(buf.Bytes(), doors)); err == nil {
				t.Fatal("Unmarshal of a reference short of its last door succeeded")
			}
			if after := dst.Domain.HandleCount(); after != before {
				t.Fatalf("live doors %d → %d: a failed Unmarshal stranded the handles it adopted", before, after)
			}
		})
	}
}
