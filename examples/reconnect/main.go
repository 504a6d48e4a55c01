// Crash recovery demo (§8.3): a file server keeps its state in stable
// storage; clients hold reconnectable_file objects. The server crashes and
// restarts mid-run — the client's next call quietly re-resolves the object
// name and retries, with no application-visible failure.
//
//	go run ./examples/reconnect
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/subcontracts/reconnectable"
)

func env(k *kernel.Kernel, name string) *core.Env {
	e := core.NewEnv(k.NewDomain(name))
	if err := filesys.RegisterAll(e.Registry); err != nil {
		log.Fatal(err)
	}
	return e
}

func transfer(obj *core.Object, dst *core.Env, mt *core.MTable) *core.Object {
	buf := buffer.New(64)
	if err := obj.Marshal(buf); err != nil {
		log.Fatal(err)
	}
	out, err := core.Unmarshal(dst, mt, buf)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func main() {
	k := kernel.New("machine")
	ns := naming.NewServer(env(k, "naming"))

	// The file server binds each file under a stable name in the context.
	srvEnv := env(k, "fileserver")
	srvCtxObj := transfer(mustCopy(ns.Object()), srvEnv, naming.ContextMT)
	svc := filesys.NewReconnectableService(srvEnv, naming.Context{Obj: srvCtxObj})

	// The client carries the same context in its environment, so its
	// reconnectable subcontract can re-resolve after a crash.
	cliEnv := env(k, "client")
	cliEnv.Set(reconnectable.ContextVar, transfer(mustCopy(ns.Object()), cliEnv, naming.ContextMT))

	fs := filesys.FileSystem{Obj: transfer(mustCopy(svc.Object()), cliEnv, filesys.FileSystemMT)}

	f, err := fs.Create("ledger")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %q via subcontract %q\n", "ledger", f.Obj.SC.Name())
	if _, err := f.Write(0, []byte("balance: 42")); err != nil {
		log.Fatal(err)
	}
	show := func(label string) {
		data, err := f.Read(0, 32)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%s: read %q\n", label, string(data))
	}
	show("before crash")

	fmt.Println("--- server crashes (all doors revoked) ---")
	svc.Crash()
	go func() {
		time.Sleep(20 * time.Millisecond)
		fmt.Println("--- server restarts from stable storage, rebinding names ---")
		if err := svc.Restart(); err != nil {
			log.Fatal(err)
		}
	}()

	// This call arrives during the outage; the subcontract retries the
	// name resolution until the restarted server rebinds.
	show("during restart window")
	show("after recovery")
}

func mustCopy(obj *core.Object) *core.Object {
	cp, err := obj.Copy()
	if err != nil {
		log.Fatal(err)
	}
	return cp
}
