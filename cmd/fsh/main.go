// Command fsh is a small client shell for a springfsd server.
//
//	fsh -server 127.0.0.1:7040 ls
//	fsh -server 127.0.0.1:7040 create notes
//	fsh -server 127.0.0.1:7040 write notes "hello there"
//	fsh -server 127.0.0.1:7040 cat notes
//	fsh -server 127.0.0.1:7040 stat notes
//	fsh -server 127.0.0.1:7040 rm notes
//
// fsh is itself a full Spring "machine": it runs its own network door
// server, naming context, and cache manager, so cacheable files served by
// a -flavor caching springfsd are transparently cached on the fsh side.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	server = flag.String("server", "127.0.0.1:7040",
		"springfsd address: IP:port ([v6]:port), localhost:port, or with -same-machine unix:<path>; host names are not resolved")
	timeout     = flag.Duration("timeout", 0, "per-call deadline (0 = none); expired calls fail with core.ErrDeadlineExceeded")
	sameMachine = flag.Bool("same-machine", false,
		"enable the same-machine transport tier: dial and listen on unix:<path> addresses beside host:port ones")

	telemetryAddr = flag.String("telemetry", "",
		"serve /metrics, /traces, /healthz and pprof on this address: IP:port, localhost:port or :port for every interface (e.g. :6061; empty = off)")
	traceSample = flag.Int("trace-sample", 0,
		"record a trace for 1 in N calls that arrive untraced (0 = only explicitly traced calls)")
	traceSlow = flag.Duration("trace-slow", 0,
		"copy head-sampled roots slower than this to /traces/slow (0 = off)")
)

func usage() {
	fmt.Println("usage: fsh [-server addr] [-timeout d] <ls | create F | cat F | write F TEXT | stat F | rm F>")
}

func main() {
	flag.Parse()
	log.SetPrefix("fsh: ")
	log.SetFlags(0)
	args := flag.Args()
	if len(args) == 0 {
		usage()
		return
	}

	trace.SetSampling(*traceSample)
	trace.SetSlowDefault(*traceSlow)
	if *telemetryAddr != "" {
		tp, err := telemetry.Start(*telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer tp.Close()
	}

	// Local machine setup: kernel, network door server, naming, cache.
	k := kernel.New("fsh")
	var cfg netd.Config
	if *sameMachine {
		cfg.Transport = netd.SameMachine()
	}
	net, err := netd.Start(k.NewDomain("netd"), "127.0.0.1:0", netd.With(cfg))
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	newEnv := func(name string) *core.Env {
		e := core.NewEnv(k.NewDomain(name))
		if err := filesys.RegisterAll(e.Registry); err != nil {
			log.Fatal(err)
		}
		return e
	}
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

	cli := newEnv("shell")
	ctxCopy, err := ns.Object().Copy()
	if err != nil {
		log.Fatal(err)
	}
	// The context lives in this process; hand the shell domain its own
	// identifier for it.
	buf := newBufWith(ctxCopy)
	ctxObj, err := core.Unmarshal(cli, naming.ContextMT, buf)
	if err != nil {
		log.Fatal(err)
	}
	cli.Set(caching.LocalContextVar, ctxObj)

	// Reconnectable files re-resolve themselves through the server's
	// naming context after a restart; import it so a durable (-wal)
	// springfsd can be killed under a running fsh.
	srvCtx, err := net.ImportRootObject(cli, *server, "naming", naming.ContextMT)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *server, err)
	}
	cli.Set(reconnectable.ContextVar, srvCtx)

	fsObj, err := net.ImportRootObject(cli, *server, "fs", filesys.FileSystemMT)
	if err != nil {
		log.Fatalf("connecting to %s: %v", *server, err)
	}
	fs := filesys.FileSystem{Obj: fsObj}
	if *timeout != 0 {
		fs = fs.With(core.WithTimeout(*timeout))
	}

	open := func(name string) filesys.File {
		f, err := fs.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		if *timeout != 0 {
			f = f.With(core.WithTimeout(*timeout))
		}
		return f
	}

	switch args[0] {
	case "ls":
		names, err := fs.List()
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "create":
		need(args, 2)
		if _, err := fs.Create(args[1]); err != nil {
			log.Fatal(err)
		}
	case "cat":
		need(args, 2)
		f := open(args[1])
		sz, err := f.Size()
		if err != nil {
			log.Fatal(err)
		}
		data, err := f.Read(0, int32(sz))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(string(data))
		if !strings.HasSuffix(string(data), "\n") {
			fmt.Println()
		}
	case "write":
		need(args, 3)
		f := open(args[1])
		text := strings.Join(args[2:], " ")
		if _, err := f.Write(0, []byte(text)); err != nil {
			log.Fatal(err)
		}
	case "stat":
		need(args, 2)
		f := open(args[1])
		info, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		kind := "file"
		if _, ok := filesys.NarrowCacheableFile(f.Obj); ok {
			kind = "cacheable_file"
		}
		fmt.Printf("%s: %d bytes, version %d, type %s, subcontract %s\n",
			info.Name, info.Size, info.Version, kind, f.Obj.SC.Name())
	case "rm":
		need(args, 2)
		if err := fs.Remove(args[1]); err != nil {
			log.Fatal(err)
		}
	default:
		usage()
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
		log.Fatalf("%s: missing argument", args[0])
	}
}

// newBufWith marshals obj into a fresh buffer (a local-machine transfer).
func newBufWith(obj *core.Object) *buffer.Buffer {
	b := buffer.New(64)
	if err := obj.Marshal(b); err != nil {
		log.Fatal(err)
	}
	return b
}
