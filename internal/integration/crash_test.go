package integration

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/sctest"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/subcontracts/replicon"
)

// Crash tests (E19): a durable file server — WAL-backed stores plus a
// netd state file — is SIGKILLed mid-write-load and restarted against
// the same directories. The restarted process rejoins under its old
// instance identity, rebinds its labeled exports, and replays its logs,
// so clients riding the reconnectable and replicon subcontracts see
// zero application-visible errors and no acked write is lost.

// durableServer is one restartable server process: kernel, WAL-backed
// reconnectable and replicated file services, and a durable netd.
type durableServer struct {
	k     *kernel.Kernel
	net   *netd.Server
	ns    *naming.Server
	wal   *filesys.WAL
	rwal  *filesys.WAL
	recon *filesys.ReconnectableService
	repl  *filesys.ReplicatedService
}

// startDurableServer boots (or re-boots) the server process against the
// given durable directories. listenAddr is "127.0.0.1:0" (or a unix: path)
// on first boot and the concrete first-boot address on restart. The
// transport is the same-machine tier, which serves both kinds of address.
func startDurableServer(t *testing.T, listenAddr, walDir, rwalDir, stateFile string) *durableServer {
	t.Helper()
	k := kernel.New("S")
	srv := &durableServer{k: k}

	nsEnv, err := sctest.NewEnv(k, "S-naming", filesys.RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	srv.ns = naming.NewServer(nsEnv)

	// Reconnectable flavor over a WAL-recovered store.
	store := filesys.NewStore()
	srv.wal, err = filesys.OpenWAL(walDir, store, filesys.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srvEnv, err := sctest.NewEnv(k, "S-files", filesys.RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	ctxCp, err := srv.ns.Object().Copy()
	if err != nil {
		t.Fatal(err)
	}
	srvCtx, err := sctest.Transfer(ctxCp, srvEnv, naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	srv.recon = filesys.NewReconnectableServiceWithStore(srvEnv, naming.Context{Obj: srvCtx}, store)
	// First boot recovers an empty store, so the unconditional rebind is
	// a no-op there and the real recovery path on restart.
	if err := srv.recon.Restart(); err != nil {
		t.Fatal(err)
	}

	// Replicated flavor over its own WAL-recovered store.
	rstore := filesys.NewStore()
	srv.rwal, err = filesys.OpenWAL(rwalDir, rstore, filesys.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := sctest.NewEnv(k, "S-front", filesys.RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	var replicas []*core.Env
	for i := 0; i < 3; i++ {
		renv, err := sctest.NewEnv(k, fmt.Sprintf("S-r%d", i), filesys.RegisterAll)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, renv)
	}
	srv.repl = filesys.NewReplicatedServiceWithStore(front, replicas, rstore)

	roots := map[string]*core.Object{
		"naming": srv.ns.Object(),
		"fs":     srv.recon.Object(),
		"rfs":    srv.repl.Object(),
	}
	rebindRoot := netd.RootRebinder(roots)
	rebinder := func(label string) (kernel.Ref, bool) {
		if ref, ok := rebindRoot(label); ok {
			return ref, true
		}
		rest, ok := strings.CutPrefix(label, "replica:")
		if !ok {
			return kernel.Ref{}, false
		}
		hash := strings.LastIndex(rest, "#")
		if hash < 0 {
			return kernel.Ref{}, false
		}
		var i int
		if _, err := fmt.Sscanf(rest[hash+1:], "%d", &i); err != nil {
			return kernel.Ref{}, false
		}
		return srv.repl.MemberRef(rest[:hash], i)
	}

	srv.net, err = netd.Start(k.NewDomain("S-netd"), listenAddr,
		netd.With(fastCfg()), netd.With(netd.Config{Transport: netd.SameMachine(),
			StateFile: stateFile, Rebinder: rebinder}))
	if err != nil {
		t.Fatal(err)
	}
	srv.repl.SetMemberHook(func(file string, i int, ref kernel.Ref) {
		srv.net.LabelDoor(ref, fmt.Sprintf("replica:%s#%d", file, i))
	})
	for name, obj := range roots {
		srv.net.PublishRoot(name, obj)
	}
	return srv
}

// kill is the SIGKILL simulation: the network server and both logs stop
// dead — no flush, no graceful releases, queued commits fail.
func (srv *durableServer) kill() {
	_ = srv.net.Kill()
	srv.wal.Kill()
	srv.rwal.Kill()
}

// writerLoop hammers one file with sequence-stamped writes until stop,
// recording the last acknowledged sequence and the first error.
type writerLoop struct {
	stop    atomic.Bool
	acked   atomic.Int64
	err     atomic.Value // first app-visible error, as a string
	retried atomic.Int64
}

func (w *writerLoop) run(wg *sync.WaitGroup, write func(seq int64) error) {
	defer wg.Done()
	for seq := int64(1); !w.stop.Load(); seq++ {
		start := time.Now()
		if err := write(seq); err != nil {
			w.err.CompareAndSwap(nil, err.Error())
			return
		}
		if time.Since(start) > 50*time.Millisecond {
			w.retried.Add(1) // the call rode out an outage internally
		}
		w.acked.Store(seq)
	}
}

func payload(seq int64) []byte { return []byte(fmt.Sprintf("%012d", seq)) }

// TestKillRestartDurableServer is the E19 acceptance scenario: kill the
// durable server mid-load, restart it against the same directories, and
// require transparent recovery — same instance identity, zero
// application-visible client errors, every acked write readable.
func TestKillRestartDurableServer(t *testing.T) {
	killRestartDurableServer(t, "127.0.0.1:0")
}

// TestKillRestartDurableServerUnixSocket is the same scenario on a unix:
// address, where the kill leaves the server's socket file behind and the
// restart has to take the path back (SameMachineTransport.Listen).
func TestKillRestartDurableServerUnixSocket(t *testing.T) {
	killRestartDurableServer(t, "unix:"+t.TempDir()+"/springfsd.sock")
}

func killRestartDurableServer(t *testing.T, listenAddr string) {
	walDir, rwalDir := t.TempDir(), t.TempDir()
	stateFile := t.TempDir() + "/netd.state"

	srv := startDurableServer(t, listenAddr, walDir, rwalDir, stateFile)
	addr := srv.net.Addr()
	firstInstance := srv.net.Instance()

	cliCfg := fastCfg()
	cliCfg.Transport = netd.SameMachine()
	cli := newFaultMachine(t, "C", nil, cliCfg)
	cliEnv := cli.env("client")
	ctxObj, err := cli.net.ImportRootObject(cliEnv, addr, "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	cliEnv.Set(reconnectable.ContextVar, ctxObj)
	cliEnv.Set(reconnectable.PolicyVar, &reconnectable.Policy{MaxAttempts: 2000, Backoff: 5 * time.Millisecond})
	cliEnv.Set(replicon.PolicyVar, &replicon.Policy{MaxRounds: 2000, Backoff: 5 * time.Millisecond})

	fsObj, err := cli.net.ImportRootObject(cliEnv, addr, "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fs := filesys.FileSystem{Obj: fsObj}
	rf, err := fs.Create("journal")
	if err != nil {
		t.Fatal(err)
	}

	rfsObj, err := cli.net.ImportRootObject(cliEnv, addr, "rfs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	rfs := filesys.FileSystem{Obj: rfsObj}
	pf, err := rfs.Create("ledger")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var reconW, replW writerLoop
	wg.Add(2)
	go reconW.run(&wg, func(seq int64) error {
		_, err := rf.Write(0, payload(seq))
		return err
	})
	go replW.run(&wg, func(seq int64) error {
		_, err := pf.Write(0, payload(seq))
		return err
	})

	// Let the load and at least a few sweeper state flushes happen.
	time.Sleep(200 * time.Millisecond)

	srv.kill()
	srv = startDurableServer(t, addr, walDir, rwalDir, stateFile)
	t.Cleanup(func() {
		_ = srv.net.Close()
		_ = srv.wal.Close()
		_ = srv.rwal.Close()
	})

	if got := srv.net.Instance(); got != firstInstance {
		t.Fatalf("restarted instance = %#x, want the first boot's %#x", got, firstInstance)
	}

	// Ride through the restart and keep writing on the far side.
	time.Sleep(400 * time.Millisecond)
	reconW.stop.Store(true)
	replW.stop.Store(true)
	wg.Wait()

	if e := reconW.err.Load(); e != nil {
		t.Fatalf("reconnectable writer saw an application-visible error: %v", e)
	}
	if e := replW.err.Load(); e != nil {
		t.Fatalf("replicon writer saw an application-visible error: %v", e)
	}
	if reconW.acked.Load() == 0 || replW.acked.Load() == 0 {
		t.Fatalf("writers never made progress: recon=%d repl=%d",
			reconW.acked.Load(), replW.acked.Load())
	}

	// No acked write lost: the last acknowledged payload of each stream
	// must be what the recovered stores serve.
	if data, err := rf.Read(0, 12); err != nil || string(data) != string(payload(reconW.acked.Load())) {
		t.Fatalf("reconnectable file after restart = %q, %v; want %q",
			data, err, payload(reconW.acked.Load()))
	}
	if data, err := pf.Read(0, 12); err != nil || string(data) != string(payload(replW.acked.Load())) {
		t.Fatalf("replicated file after restart = %q, %v; want %q",
			data, err, payload(replW.acked.Load()))
	}
}

// TestRestartRecoversIdentityAndExports boots a durable server, lets a
// client resolve state, restarts it cleanly, and checks the recovery
// invariants directly: same instance, same address, rebound root
// exports serving the client's old proxies without a re-import.
func TestRestartRecoversIdentityAndExports(t *testing.T) {
	walDir, rwalDir := t.TempDir(), t.TempDir()
	stateFile := t.TempDir() + "/netd.state"

	srv := startDurableServer(t, "127.0.0.1:0", walDir, rwalDir, stateFile)
	addr := srv.net.Addr()
	firstInstance := srv.net.Instance()

	cli := newFaultMachine(t, "C", nil, fastCfg())
	cliEnv := cli.env("client")
	ctxObj, err := cli.net.ImportRootObject(cliEnv, addr, "naming", naming.ContextMT)
	if err != nil {
		t.Fatal(err)
	}
	cliEnv.Set(reconnectable.ContextVar, ctxObj)
	cliEnv.Set(reconnectable.PolicyVar, &reconnectable.Policy{MaxAttempts: 500, Backoff: 5 * time.Millisecond})

	fsObj, err := cli.net.ImportRootObject(cliEnv, addr, "fs", filesys.FileSystemMT)
	if err != nil {
		t.Fatal(err)
	}
	fs := filesys.FileSystem{Obj: fsObj}
	f, err := fs.Create("persist")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	// A graceful close flushes the final state; the restart must still
	// look like the same process to the client.
	_ = srv.net.Close()
	srv.wal.Kill()
	srv.rwal.Kill()

	srv = startDurableServer(t, addr, walDir, rwalDir, stateFile)
	t.Cleanup(func() {
		_ = srv.net.Close()
		_ = srv.wal.Close()
		_ = srv.rwal.Close()
	})
	if got := srv.net.Instance(); got != firstInstance {
		t.Fatalf("instance after restart = %#x, want %#x", got, firstInstance)
	}
	if got := srv.net.Addr(); got != addr {
		t.Fatalf("address after restart = %q, want %q", got, addr)
	}

	// The client's pre-restart file proxy recovers through re-resolve
	// against the rebound naming root — no fresh bootstrap import.
	data, err := f.Read(0, 7)
	if err != nil || string(data) != "durable" {
		t.Fatalf("read across restart = %q, %v", data, err)
	}
}
