package netd

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sctest"
	"repro/internal/subcontracts/singleton"
)

// fastLivenessCfg scales the sweeper for tests so state flushes happen
// in milliseconds.
func fastLivenessCfg() Config {
	return Config{
		CallTimeout:       500 * time.Millisecond,
		DialTimeout:       200 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseGrace:        2 * time.Second,
		BreakerBackoff:    10 * time.Millisecond,
		BreakerMaxBackoff: 50 * time.Millisecond,
	}
}

// startDurable boots a server process for the durability tests: a
// kernel, an app env, a counter published as root "counter", and a netd
// with the given state file whose rebinder re-marshals that root.
type durableProc struct {
	k   *kernel.Kernel
	srv *Server
	env *core.Env
	ctr *sctest.Counter
}

func startDurable(t *testing.T, listenAddr, stateFile string) *durableProc {
	t.Helper()
	k := kernel.New("D")
	env, err := sctest.NewEnv(k, "D-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	ctr := &sctest.Counter{}
	obj, _ := singleton.Export(env, sctest.CounterMT, ctr.Skeleton(), nil)
	roots := map[string]*core.Object{"counter": obj}
	srv, err := Start(k.NewDomain("D-netd"), listenAddr,
		With(fastLivenessCfg()), With(Config{StateFile: stateFile, Rebinder: RootRebinder(roots)}))
	if err != nil {
		t.Fatal(err)
	}
	srv.PublishRoot("counter", obj)
	return &durableProc{k: k, srv: srv, env: env, ctr: ctr}
}

func waitForStateFile(t *testing.T, path string, pred func(persistedState) bool) persistedState {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			if ps, err := parseState(data); err == nil && pred(*ps) {
				return *ps
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("state file %s never reached the expected shape", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStateFilePersistsIdentityAndExports: the sweeper writes the state
// file with the instance, the peer's session, and the labeled root
// export the peer is holding.
func TestStateFilePersistsIdentityAndExports(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "netd.state")
	d := startDurable(t, "127.0.0.1:0", stateFile)
	t.Cleanup(func() { d.srv.Close() })
	cli := newMachine(t, "C")

	remote, err := cli.srv.ImportRootObject(cli.env, d.srv.Addr(), "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sctest.Add(remote, 3); err != nil || v != 3 {
		t.Fatalf("Add = %d, %v", v, err)
	}

	ps := waitForStateFile(t, stateFile, func(ps persistedState) bool {
		return len(ps.Exports) > 0 && len(ps.Sessions) > 0
	})
	if ps.Instance != d.srv.Instance() {
		t.Fatalf("persisted instance %#x, server %#x", ps.Instance, d.srv.Instance())
	}
	if ps.Exports[0].Label != "root:counter/0" {
		t.Fatalf("export label = %q", ps.Exports[0].Label)
	}
	if ps.Sessions[0].Instance != cli.srv.Instance() {
		t.Fatalf("persisted session %#x, client %#x", ps.Sessions[0].Instance, cli.srv.Instance())
	}
	if len(ps.Sessions[0].Refs) == 0 || ps.Sessions[0].Refs[0].Key != ps.Exports[0].Key {
		t.Fatalf("session refs %v do not cover export key %d", ps.Sessions[0].Refs, ps.Exports[0].Key)
	}
}

// TestRestartRejoinsOldIdentity: a killed server restarted against its
// state file comes back with the same instance, a slack-advanced key
// counter, and the labeled export rebound — the old client proxy works
// with no re-import.
func TestRestartRejoinsOldIdentity(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "netd.state")
	d := startDurable(t, "127.0.0.1:0", stateFile)
	addr, firstInstance := d.srv.Addr(), d.srv.Instance()
	cli := newMachine(t, "C")

	remote, err := cli.srv.ImportRootObject(cli.env, addr, "counter", sctest.CounterMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sctest.Add(remote, 3); err != nil {
		t.Fatal(err)
	}
	ps := waitForStateFile(t, stateFile, func(ps persistedState) bool {
		return len(ps.Exports) > 0 && len(ps.Sessions) > 0
	})

	_ = d.srv.Kill()
	d2 := startDurable(t, addr, stateFile)
	t.Cleanup(func() { d2.srv.Close() })

	if got := d2.srv.Instance(); got != firstInstance {
		t.Fatalf("instance after restart %#x, want %#x", got, firstInstance)
	}
	d2.srv.mu.Lock()
	nextKey := d2.srv.proto.nextKey
	d2.srv.mu.Unlock()
	if nextKey < ps.NextKey+keySlack {
		t.Fatalf("nextKey %d not advanced past persisted %d + slack", nextKey, ps.NextKey)
	}
	if got := d2.srv.Exports(); got != 1 {
		t.Fatalf("rebound exports = %d, want 1", got)
	}

	// The client's old proxy reaches the rebound door once its redial
	// lands; the counter state lives in the new process, so the value
	// restarts — what must survive is the identifier, not the state.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, err := sctest.Add(remote, 2)
		if err == nil {
			if v != 2 {
				t.Fatalf("Add through rebound export = %d, want 2", v)
			}
			break
		}
		if !core.Retryable(err) {
			t.Fatalf("old proxy failed non-retryably after restart: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("old proxy never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCorruptStateFileRefusesStart: silently minting a fresh identity
// would strand every peer's references, so a durable server refuses to
// start over an unreadable state file.
func TestCorruptStateFileRefusesStart(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "netd.state")
	if err := os.WriteFile(stateFile, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	k := kernel.New("D")
	_, err := Start(k.NewDomain("D-netd"), "127.0.0.1:0",
		With(fastLivenessCfg()), With(Config{StateFile: stateFile}))
	if err == nil {
		t.Fatal("start over a corrupt state file succeeded")
	}
}

// TestJSONStateFileRefused: the JSON state file an older springfsd wrote is
// refused as corrupt, never read as a first boot, and the error says what
// to do with it.
func TestJSONStateFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "netd.state")
	old := `{"instance":7,"next_key":12,"exports":[{"key":3,"label":"root:counter/0"}]}`
	if err := os.WriteFile(path, []byte(old), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := restart(t, path); err == nil || !strings.Contains(err.Error(), "older springfsd wrote must be removed") {
		t.Fatalf("start over a JSON state file: %v", err)
	}
}

// TestStateFileRoundTrip: parseState reads back what encode wrote, with
// labels and addresses holding spaces, quotes, newlines, invalid UTF-8 or
// nothing at all, keys up to MaxUint64 and negative counts.
func TestStateFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 19))
	num := func() uint64 { return []uint64{0, 1, math.MaxUint64, r.Uint64()}[r.IntN(4)] }
	str := func() string {
		return []string{"", "root:counter/0", "a b  c", `say "hi"`, "line\nbreak\r", "\xff\xfe\x00", "unix:/tmp/a b.sock", `\`, "h\u00e9llo \u2028"}[r.IntN(9)]
	}
	for i := range 1000 {
		ps := &persistedState{Instance: num(), NextKey: num()}
		for range r.IntN(4) {
			ps.Exports = append(ps.Exports, persistedExport{Key: num(), Label: str()})
		}
		for range r.IntN(4) {
			p := persistedSession{Instance: num(), Epoch: num(), Addr: str()}
			for range r.IntN(4) {
				p.Refs = append(p.Refs, persistedRef{Key: num(), Count: []int{0, 1, -2, math.MaxInt, math.MinInt}[r.IntN(5)]})
			}
			ps.Sessions = append(ps.Sessions, p)
		}
		data := ps.encode()
		if got, err := parseState(data); err != nil || !reflect.DeepEqual(got, ps) {
			t.Fatalf("state %d: %+v\nwrote %q\nread %+v, %v", i, ps, data, got, err)
		}
		// The file is replaced by rename, never cut short; if it were, only
		// a cut at a line's end would read as less state.
		if cut := data[:r.IntN(len(data))]; !strings.HasSuffix(string(cut), "\n") {
			if _, err := parseState(cut); err == nil {
				t.Fatalf("state %d: the file cut short parsed: %q", i, cut)
			}
		}
	}
}

// TestFirstBootWritesStateFile: with no state file on disk, Start mints
// an identity and persists it before serving.
func TestFirstBootWritesStateFile(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "netd.state")
	d := startDurable(t, "127.0.0.1:0", stateFile)
	t.Cleanup(func() { d.srv.Close() })
	data, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatalf("state file not written at first boot: %v", err)
	}
	ps, err := parseState(data)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Instance != d.srv.Instance() {
		t.Fatalf("persisted %#x, live %#x", ps.Instance, d.srv.Instance())
	}
}

// restart starts a durable server against the state file at path, with a
// rebinder that knows root:counter/0; the test closes it.
func restart(t *testing.T, path string) (*Server, error) {
	k := kernel.New("F")
	env, err := sctest.NewEnv(k, "F-app", singleton.Register)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := singleton.Export(env, sctest.CounterMT, (&sctest.Counter{}).Skeleton(), nil)
	srv, err := Start(k.NewDomain("F-netd"), "127.0.0.1:0", With(fastLivenessCfg()),
		With(Config{StateFile: path, Rebinder: RootRebinder(map[string]*core.Object{"counter": obj})}))
	if err == nil {
		t.Cleanup(func() { srv.Close() })
	}
	return srv, err
}

// heldRefs is a capture's refcounts, peer instance → key → count.
func heldRefs(ps *persistedState) map[uint64]map[uint64]int {
	m := make(map[uint64]map[uint64]int)
	for _, sess := range ps.Sessions {
		m[sess.Instance] = make(map[uint64]int)
		for _, r := range sess.Refs {
			m[sess.Instance][r.Key] = r.Count
		}
	}
	return m
}

// FuzzStateFile restarts a durable server against arbitrary state-file
// bytes. It comes up or refuses the file (always, when the file lacks the
// header line, as the JSON older builds wrote does), never panics, and
// leaves the exports_live and sessions_live gauges where they were once
// closed; when it comes up no restored export can be reissued — every one
// is below the key counter — and the file it flushed at start restarts
// with the same instance and refcounts.
func FuzzStateFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "netd.state")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		exports, sessions := tallyGauges[tExports].Value(), tallyGauges[tSessions].Value()
		settled := func() {
			if de, ds := tallyGauges[tExports].Value()-exports, tallyGauges[tSessions].Value()-sessions; de != 0 || ds != 0 {
				t.Fatalf("exports_live %+d and sessions_live %+d after the server is gone", de, ds)
			}
		}
		s, err := restart(t, path)
		if err != nil {
			settled()
			return
		}
		if !strings.HasPrefix(string(data), stateHeader+"\n") {
			t.Fatal("a file without the state-file header was read: a JSON one from an older build must be refused")
		}
		s.mu.Lock()
		before := s.proto.snapshot()
		s.mu.Unlock()
		s.Close()
		settled()
		for _, e := range before.Exports {
			if e.Key >= before.NextKey {
				t.Fatalf("restored export %d at or past the key counter %d: the next export reissues it", e.Key, before.NextKey)
			}
		}
		if before.NextKey > math.MaxUint64-keySlack {
			return // the next restart refuses it, as it must
		}
		s2, err := restart(t, path)
		if err != nil {
			t.Fatalf("a server's own state file is refused: %v", err)
		}
		s2.mu.Lock()
		after := s2.proto.snapshot()
		s2.mu.Unlock()
		if after.Instance != before.Instance || !reflect.DeepEqual(heldRefs(after), heldRefs(before)) {
			t.Fatalf("state file round trip: instance %#x refs %v, then %#x %v", before.Instance, heldRefs(before), after.Instance, heldRefs(after))
		}
	})
}
