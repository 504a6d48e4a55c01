package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netd"
	"repro/internal/subcontracts/caching"
	"repro/internal/subcontracts/reconnectable"
)

// serverSpec is how one workload wants the shipped springfsd started.
// Only flags the daemon already has are used.
type serverSpec struct {
	flavor string // -flavor: plain | caching
	unix   bool   // -same-machine, listening on a unix: socket
	wal    bool   // -wal <dir>: group-committed durability
}

// A server is one running springfsd with the addresses it printed.
type server struct {
	*child
	addr      string // netd address, as clients must dial it
	telemetry string // http://host:port of the telemetry plane
	walDir    string
}

// startServer forks bin under dir (a scratch directory private to this
// instance). The daemon picks its own port (or gets a socket inside
// dir), so concurrent benchmark runs cannot collide; the address is
// parsed from the banner it prints. traceSample > 0 adds -trace-sample.
func startServer(bin, dir string, spec serverSpec, traceSample int) (*server, error) {
	args := []string{"-flavor", spec.flavor, "-telemetry", "127.0.0.1:0"}
	if spec.unix {
		args = append(args, "-same-machine", "-addr", "unix:"+filepath.Join(dir, "s.sock"))
	} else {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	s := &server{}
	if spec.wal {
		s.walDir = filepath.Join(dir, "wal")
		if err := os.MkdirAll(s.walDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-wal", s.walDir)
	}
	if traceSample > 0 {
		args = append(args, "-trace-sample", strconv.Itoa(traceSample))
	}
	c, err := startChild("springfsd", bin, nil, args...)
	if err != nil {
		return nil, err
	}
	s.child = c
	const startTimeout = 20 * time.Second
	rest, err := c.awaitLine("telemetry on http://", startTimeout)
	if err != nil {
		c.stop()
		return nil, err
	}
	s.telemetry = "http://" + strings.Fields(rest)[0]
	// "springfsd: serving plain file system on ADDR (roots: fs, naming)"
	rest, err = c.awaitLine(" file system on ", startTimeout)
	if err != nil {
		c.stop()
		return nil, err
	}
	s.addr = strings.Fields(rest)[0]
	return s, nil
}

// A machine is one Spring machine inside this process: a kernel with a
// naming context and a cache manager bound in it as "cachemgr", which is
// what a caching object needs to find on the machine it lands on. The
// load generator is one (plus a network door server); the in-process
// probes run on another.
type machine struct {
	k  *kernel.Kernel
	ns *naming.Server
}

func newMachine(name string) (*machine, error) {
	m := &machine{k: kernel.New(name)}
	nsEnv, err := m.env("naming")
	if err != nil {
		return nil, err
	}
	m.ns = naming.NewServer(nsEnv)
	mgrEnv, err := m.env("cachemgr")
	if err != nil {
		return nil, err
	}
	mgrObj, err := cache.NewManager(mgrEnv).Object().Copy()
	if err != nil {
		return nil, err
	}
	h, err := m.ns.Handle()
	if err != nil {
		return nil, err
	}
	return m, h.Bind("cachemgr", mgrObj, false)
}

// env creates a domain with the file system's subcontracts registered.
func (m *machine) env(name string) (*core.Env, error) {
	e := core.NewEnv(m.k.NewDomain(name))
	return e, filesys.RegisterAll(e.Registry)
}

// transfer hands obj to dst the way objects cross domains: marshalled
// into a buffer and unmarshalled on the other side.
func transfer(obj *core.Object, dst *core.Env, mt *core.MTable) (*core.Object, error) {
	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		return nil, err
	}
	return core.Unmarshal(dst, mt, buf)
}

// clientEnv is a domain that knows the machine-local naming context, so
// caching objects unmarshalled into it find the cache manager.
func (m *machine) clientEnv() (*core.Env, error) {
	e, err := m.env("client")
	if err != nil {
		return nil, err
	}
	cp, err := m.ns.Object().Copy()
	if err != nil {
		return nil, err
	}
	ctx, err := transfer(cp, e, naming.ContextMT)
	if err != nil {
		return nil, err
	}
	e.Set(caching.LocalContextVar, ctx)
	return e, nil
}

// A client is the load generator's machine connected to a server, wired
// exactly as cmd/fsh wires itself: its own network door server (default
// netd.Config), naming context and cache manager, and a client domain
// holding the server's two bootstrap roots.
type client struct {
	net *netd.Server
	fs  filesys.FileSystem
}

func connect(serverAddr string, sameMachine bool) (*client, error) {
	m, err := newMachine("loadgen")
	if err != nil {
		return nil, err
	}
	var cfg netd.Config
	if sameMachine {
		cfg.Transport = netd.SameMachine()
	}
	net, err := netd.Start(m.k.NewDomain("netd"), "127.0.0.1:0", netd.With(cfg))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*client, error) {
		net.Close()
		return nil, err
	}
	cli, err := m.clientEnv()
	if err != nil {
		return fail(err)
	}
	srvCtx, err := net.ImportRootObject(cli, serverAddr, "naming", naming.ContextMT)
	if err != nil {
		return fail(fmt.Errorf("importing root naming from %s: %w", serverAddr, err))
	}
	cli.Set(reconnectable.ContextVar, srvCtx)
	fsObj, err := net.ImportRootObject(cli, serverAddr, "fs", filesys.FileSystemMT)
	if err != nil {
		return fail(fmt.Errorf("importing root fs from %s: %w", serverAddr, err))
	}
	return &client{net: net, fs: filesys.FileSystem{Obj: fsObj}}, nil
}

func (c *client) close() { _ = c.net.Close() }
