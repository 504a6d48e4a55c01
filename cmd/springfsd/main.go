// Command springfsd serves a Spring file system over the network door
// servers: the daemon half of the cmd/fsh pair.
//
//	springfsd -addr 127.0.0.1:7040 -flavor caching
//	springfsd -addr 127.0.0.1:7040 -flavor reconnectable -wal /var/lib/springfsd
//
// The daemon publishes two bootstrap roots: "fs" (the file_system object)
// and "naming" (the machine's naming context). With -flavor caching, file
// objects use the caching subcontract and remote clients transparently
// read through their own machine-local cache managers.
//
// With -wal DIR the daemon is durable (E19): every mutation is
// group-committed to a write-ahead log in DIR before it is acknowledged,
// snapshots compact the log, and the network server persists its
// session/lease table to DIR/netd.state — so a killed daemon restarted
// against the same directory rejoins under its old instance identity and
// clients riding the reconnectable subcontract recover transparently.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/subcontracts/caching"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	addr = flag.String("addr", "127.0.0.1:7040",
		"listen address: IP:port ([v6]:port), localhost:port, :port for every interface, or with -same-machine unix:<path>; host names are not resolved")
	flavor   = flag.String("flavor", "plain", "file subcontract flavor: plain | caching | reconnectable")
	snapshot = flag.String("snapshot", "", "stable-storage file: loaded at start, saved on shutdown")
	walDir   = flag.String("wal", "",
		"durability directory: write-ahead log + snapshot + netd state; mutations are fsynced before acknowledgment and a restart recovers transparently")
	sameMachine = flag.Bool("same-machine", false,
		"enable the same-machine transport tier: listen on and dial unix:<path> addresses beside host:port ones (a stale socket file left by a killed server is replaced)")

	telemetryAddr = flag.String("telemetry", "",
		"serve /metrics, /traces, /healthz and pprof on this address: IP:port, localhost:port or :port for every interface (e.g. :6060; empty = off)")
	traceSample = flag.Int("trace-sample", 0,
		"record a trace for 1 in N calls that arrive untraced (0 = only explicitly traced calls)")
	traceSlow = flag.Duration("trace-slow", 0,
		"copy head-sampled roots slower than this to /traces/slow (0 = off)")
)

func main() {
	flag.Parse()
	log.SetPrefix("springfsd: ")
	log.SetFlags(0)
	if *walDir != "" && *snapshot != "" {
		log.Fatal("-wal and -snapshot are mutually exclusive (the WAL directory keeps its own snapshot)")
	}

	trace.SetSampling(*traceSample)
	trace.SetSlowDefault(*traceSlow)
	if *telemetryAddr != "" {
		tp, err := telemetry.Start(*telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer tp.Close()
		fmt.Printf("springfsd: telemetry on http://%s (/metrics /traces /healthz /debug/pprof)\n", tp.Addr())
	}

	k := kernel.New("springfsd")
	newEnv := func(name string) *core.Env {
		e := core.NewEnv(k.NewDomain(name))
		if err := filesys.RegisterAll(e.Registry); err != nil {
			log.Fatal(err)
		}
		return e
	}

	// Machine-local services: naming context and cache manager.
	ns := naming.NewServer(newEnv("naming"))
	mgr := cache.NewManager(newEnv("cachemgr"))
	mgrObj, err := mgr.Object().Copy()
	if err != nil {
		log.Fatal(err)
	}
	h, err := ns.Handle()
	if err != nil {
		log.Fatal(err)
	}
	if err := h.Bind("cachemgr", mgrObj, false); err != nil {
		log.Fatal(err)
	}

	// The store, recovered from the WAL directory when one is given.
	store := filesys.NewStore()
	var wal *filesys.WAL
	if *walDir != "" {
		wal, err = filesys.OpenWAL(*walDir, store, filesys.WALOptions{})
		if err != nil {
			log.Fatalf("opening wal: %v", err)
		}
	}

	srvEnv := newEnv("fileserver")
	var svc *filesys.Service
	switch *flavor {
	case "plain":
		svc = filesys.NewServiceWithStore(srvEnv, store)
	case "caching":
		svc = filesys.NewCachingServiceWithStore(srvEnv, store, "cachemgr")
	case "reconnectable":
		ctxCp, err := ns.Object().Copy()
		if err != nil {
			log.Fatal(err)
		}
		buf := buffer.New(64)
		if err := ctxCp.Marshal(buf); err != nil {
			log.Fatal(err)
		}
		srvCtx, err := core.Unmarshal(srvEnv, naming.ContextMT, buf)
		if err != nil {
			log.Fatal(err)
		}
		rs := filesys.NewReconnectableServiceWithStore(srvEnv, naming.Context{Obj: srvCtx}, store)
		if err := rs.Restart(); err != nil {
			log.Fatalf("rebinding recovered files: %v", err)
		}
		svc = rs.Service
	default:
		log.Fatalf("unknown flavor %q (want plain, caching or reconnectable)", *flavor)
	}

	if *snapshot != "" {
		if err := store.LoadFile(*snapshot); err != nil {
			log.Fatalf("loading snapshot: %v", err)
		}
	}

	// Services exist before the network server starts: a durable netd
	// rebinds its persisted export labels against these roots inside
	// Start, before it accepts the first reconnecting peer.
	roots := map[string]*core.Object{"fs": svc.Object(), "naming": ns.Object()}
	var cfg netd.Config
	if *sameMachine {
		cfg.Transport = netd.SameMachine()
	}
	if *walDir != "" {
		cfg.StateFile = filepath.Join(*walDir, "netd.state")
		cfg.Rebinder = netd.RootRebinder(roots)
	}
	net, err := netd.Start(k.NewDomain("netd"), *addr, netd.With(cfg))
	if err != nil {
		log.Fatal(err)
	}
	for name, obj := range roots {
		net.PublishRoot(name, obj)
	}
	fmt.Printf("springfsd: serving %s file system on %s (roots: fs, naming)\n", *flavor, net.Addr())
	_ = caching.SCID // document the dependency; the flavor selects it at Export time

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nspringfsd: shutting down")
	// Shutdown failures are reported, not fatal mid-sequence: a snapshot
	// that cannot be written leaves the previous one in place (SaveFile
	// is atomic) and the daemon still closes the log and the network
	// server cleanly — it just exits nonzero so supervisors notice.
	exitCode := 0
	if *snapshot != "" {
		if err := svc.Store().SaveFile(*snapshot); err != nil {
			log.Printf("saving snapshot to %s failed (previous snapshot kept): %v", *snapshot, err)
			exitCode = 1
		}
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			log.Printf("closing wal: %v", err)
			exitCode = 1
		}
	}
	if err := net.Close(); err != nil {
		log.Printf("closing network server: %v", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}
