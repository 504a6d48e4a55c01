package durable_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/netd"
	"repro/internal/sctest"
)

// Power-cut tests: each workload runs on a recorder, and its recovery —
// OpenWAL, or a durable netd.Start — runs on every disk a cut of the log
// may leave. make crash's restart tests cannot see these disks: a killed
// process leaves the page cache behind it.

// onDisk runs f with fsys in the real file system's place.
func onDisk(fsys durable.FS, f func()) {
	restore := durable.SetDisk(fsys)
	defer restore()
	f()
}

// create makes name in store through a file service; like a write to the
// file it returns, it returns once its record is on disk.
func create(t *testing.T, store *filesys.Store, name string) filesys.File {
	t.Helper()
	env, err := sctest.NewEnv(kernel.New("fs"), "fs-app", filesys.RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	f, err := filesys.NewServiceWithStore(env, store).Create(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// recoverStore opens the WAL in dir on disk and returns the recovered
// store's snapshot.
func recoverStore(t *testing.T, disk *recorder, dir string) []byte {
	t.Helper()
	var snap []byte
	onDisk(disk, func() {
		store := filesys.NewStore()
		w, err := filesys.OpenWAL(dir, store, filesys.WALOptions{})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		snap = store.Snapshot()
		w.Kill()
	})
	return snap
}

func TestWALFirstWriteSurvivesPowerCut(t *testing.T) {
	// A fresh WAL, in a directory the open makes, and two acknowledged
	// calls: a create and a write. A cut recovers every call acknowledged
	// before it, and at most the one in flight besides.
	rec := newRecorder("/d")
	dir := "/d/wal"
	// want[i] is the store after i acknowledged calls; acked[i] is the
	// length of the log when the i-th was acknowledged.
	want, acked := [][]byte{filesys.NewStore().Snapshot()}, []int{0}
	onDisk(rec, func() {
		store := filesys.NewStore()
		w, err := filesys.OpenWAL(dir, store, filesys.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Kill()
		f := create(t, store, "f")
		want, acked = append(want, store.Snapshot()), append(acked, rec.calls())
		if _, err := f.Write(0, []byte("acknowledged")); err != nil {
			t.Fatal(err)
		}
		want, acked = append(want, store.Snapshot()), append(acked, rec.calls())
	})
	disks := rec.crashes(0, func(n int, disk *recorder) {
		got := recoverStore(t, disk, dir)
		done := 0 // the calls acknowledged by the cut
		for done+1 < len(acked) && acked[done+1] <= n {
			done++
		}
		if i := slices.IndexFunc(want, func(w []byte) bool { return bytes.Equal(w, got) }); i < 0 || i < done {
			t.Errorf("cut after %d of %d calls: recovered %q, want the state after call %d or later",
				n, rec.calls(), got, done)
		}
	})
	t.Logf("%d calls logged, %d disks recovered", rec.calls(), disks)
}

// An acked is a write and the length of the log when it was acknowledged.
type acked struct {
	file string
	off  int64
	data []byte
	at   int
}

// payloadBehindUnsynced runs the workload of the two tests below on rec and
// returns its acknowledged writes and the length of the log before the
// writes under test. Two files are created and written, acknowledged. Then
// a small write's fsync is held after it began; meanwhile another small
// write queues, and two payload writes (records with data by reference,
// each a header write and a data write) are written by their own writers,
// the queued small record ahead of the first, none of them synced; then the
// fsync returns and the next one covers them.
func payloadBehindUnsynced(t *testing.T, rec *recorder, dir string) (writes []acked, from int) {
	t.Helper()
	var mu sync.Mutex
	write := func(name string, f filesys.File, off int64, data []byte) {
		if _, err := f.Write(off, data); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		writes = append(writes, acked{name, off, data, rec.calls()})
		mu.Unlock()
	}
	wait := func(what string, done func() bool) {
		for start := time.Now(); !done(); time.Sleep(50 * time.Microsecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("%s did not happen while the fsync was held", what)
			}
		}
	}
	onDisk(rec, func() {
		store := filesys.NewStore()
		w, err := filesys.OpenWAL(dir, store, filesys.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Kill()
		f, g := create(t, store, "f"), create(t, store, "g")
		write("f", f, 0, []byte("acknowledged before"))
		write("g", g, 0, []byte("small, acknowledged"))
		from = rec.calls()

		held, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		rec.synced = func() { once.Do(func() { close(held); <-release }) }
		var wg sync.WaitGroup
		run := func(name string, f filesys.File, off int64, data []byte) {
			wg.Add(1)
			go func() { defer wg.Done(); write(name, f, off, data) }()
		}
		run("f", f, 100, []byte("small, synced, held"))
		<-held // its fsync has begun and not returned
		small := []byte("small, queued behind the held fsync")
		run("g", g, 100, small)
		wait("the queued write's apply", func() bool { // applied and enqueued under one lock
			got, _ := g.Read(100, int32(len(small)))
			return bytes.Equal(got, small)
		})
		for i, payload := range []struct {
			name string
			f    filesys.File
		}{{"g", g}, {"f", f}} {
			run(payload.name, payload.f, 4096, bytes.Repeat([]byte{0xA5}, 5000))
			wait("a payload record's writes", func() bool { return rec.calls() >= from+4+2*i })
		}
		close(release)
		wg.Wait()
	})
	return writes, from
}

// checkAcked runs recovery on each disk rec's log leaves from from on and
// checks that every write acknowledged by the cut reads back.
func checkAcked(t *testing.T, rec *recorder, dir string, writes []acked, from int) int {
	t.Helper()
	env, err := sctest.NewEnv(kernel.New("fs"), "fs-app", filesys.RegisterAll)
	if err != nil {
		t.Fatal(err)
	}
	return rec.crashes(from, func(n int, disk *recorder) {
		onDisk(disk, func() {
			store := filesys.NewStore()
			w, err := filesys.OpenWAL(dir, store, filesys.WALOptions{})
			if err != nil {
				t.Fatalf("cut after %d of %d calls: recovery: %v", n, rec.calls(), err)
			}
			defer w.Kill()
			svc := filesys.NewServiceWithStore(env, store)
			for _, a := range writes {
				if a.at > n {
					continue
				}
				f, err := svc.Open(a.file)
				var got []byte
				if err == nil {
					got, err = f.Read(a.off, int32(len(a.data)))
				}
				if err != nil || !bytes.Equal(got, a.data) {
					t.Errorf("cut after %d of %d calls: %s at %d reads %d bytes (%v), want the %d acknowledged",
						n, rec.calls(), a.file, a.off, len(got), err, len(a.data))
				}
			}
		})
	})
}

func TestPayloadBehindUnsyncedSurvivesPowerCut(t *testing.T) {
	// A payload record written by its own writer behind a small record the
	// committer wrote and has not synced: every disk a cut before or after
	// the covering fsync leaves — either record kept or lost, or a hole
	// where one was lost and the other kept — recovers without a
	// corruption error and with every acknowledged write.
	rec := newRecorder("/d")
	writes, from := payloadBehindUnsynced(t, rec, "/d/wal")
	disks := checkAcked(t, rec, "/d/wal", writes, from)
	t.Logf("%d calls logged, %d disks checked from call %d", rec.calls(), disks, from)
}

func TestTornWriteSurvivesPowerCut(t *testing.T) {
	// The same workload with each disk's unsynced bytes also cut at every
	// 512-byte boundary, as a power cut mid-write may leave them.
	rec := newRecorder("/d")
	rec.torn = true
	writes, from := payloadBehindUnsynced(t, rec, "/d/wal")
	disks := checkAcked(t, rec, "/d/wal", writes, from)
	t.Logf("%d calls logged, %d disks checked from call %d", rec.calls(), disks, from)
}

func TestSnapshotReplaceSurvivesPowerCut(t *testing.T) {
	// A WAL closed once holds snapshot v1. Reopened, written and closed
	// again, its checkpoint replaces v1 with v2 (durable.Replace): every cut
	// leaves v1 or v2 whole, and recovery finds every acknowledged write.
	rec := newRecorder("/d")
	dir := "/d/wal"
	snapshot := filepath.Join(dir, filesys.SnapshotFileName)
	var v1, v2, store []byte
	from := 0
	onDisk(rec, func() {
		for i, name := range []string{"a", "b"} {
			s := filesys.NewStore()
			w, err := filesys.OpenWAL(dir, s, filesys.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := create(t, s, name).Write(0, []byte("acknowledged "+name)); err != nil {
				t.Fatal(err)
			}
			store, from = s.Snapshot(), rec.calls()
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				v1, _ = rec.ReadFile(snapshot)
			}
		}
		v2, _ = rec.ReadFile(snapshot)
	})
	if !bytes.Equal(v2, store) || bytes.Equal(v1, v2) {
		t.Fatalf("the checkpoints wrote %q then %q; want the store, %q", v1, v2, store)
	}
	disks := rec.crashes(from, func(n int, disk *recorder) {
		if got, _ := disk.ReadFile(snapshot); !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
			t.Errorf("cut after %d of %d calls: the snapshot is %q, neither the old one nor the new", n, rec.calls(), got)
		}
		if got := recoverStore(t, disk, dir); !bytes.Equal(got, store) {
			t.Errorf("cut after %d of %d calls: recovered %q, want %q", n, rec.calls(), got, store)
		}
	})
	t.Logf("%d calls logged, %d disks checked from call %d", rec.calls(), disks, from)
}

// startDurable starts a netd server whose state file is path. It saves to
// whatever disk is in place, so it is closed before that disk goes.
func startDurable(t *testing.T, path string) *netd.Server {
	t.Helper()
	srv, err := netd.Start(kernel.New("D").NewDomain("D-netd"), "127.0.0.1:0",
		netd.With(netd.Config{StateFile: path, HeartbeatInterval: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestStateFileReplaceSurvivesPowerCut(t *testing.T) {
	// A restart rewrites the state file its first boot wrote (the key
	// counter moves on by the restart's slack): every cut leaves the old
	// file or the new one whole, and a server started on it resumes the
	// instance both name.
	rec := newRecorder("/d")
	path := "/d/netd.state"
	var instance uint64
	var from int
	var old, cur []byte
	onDisk(rec, func() {
		srv := startDurable(t, path)
		instance = srv.Instance()
		_ = srv.Close()
		old, _ = rec.ReadFile(path)
		from = rec.calls()
		_ = startDurable(t, path).Close()
		cur, _ = rec.ReadFile(path)
	})
	if old == nil || bytes.Equal(old, cur) {
		t.Fatalf("the first boot wrote %q and the restart %q: want two state files", old, cur)
	}
	disks := rec.crashes(from, func(n int, disk *recorder) {
		if got, _ := disk.ReadFile(path); !bytes.Equal(got, old) && !bytes.Equal(got, cur) {
			t.Errorf("cut after %d of %d calls: the state file is %q, neither the old one nor the new", n, rec.calls(), got)
		}
		onDisk(disk, func() {
			srv := startDurable(t, path)
			if got := srv.Instance(); got != instance {
				t.Errorf("cut after %d of %d calls: restarted as instance %#x, want %#x", n, rec.calls(), got, instance)
			}
			_ = srv.Close()
		})
	})
	t.Logf("%d calls logged, %d disks checked from call %d", rec.calls(), disks, from)
}

func TestStateFileDirSyncFailureRetried(t *testing.T) {
	// The first save's directory sync fails. The save reports it, the
	// state stays dirty, and a later sweeper tick saves it again — so the
	// file a restart needs ends up durable.
	rec := newRecorder("/d")
	path := "/d/netd.state"
	errSync := errors.New("injected directory sync failure")
	syncs, saved := 0, make(chan struct{})
	rec.fail = func(o op) error {
		if o.kind != opSyncDir {
			return nil
		}
		if syncs++; syncs == 1 {
			return errSync
		} else if syncs == 2 {
			close(saved)
		}
		return nil
	}
	onDisk(rec, func() {
		srv := startDurable(t, path)
		defer srv.Close()
		select {
		case <-saved:
		case <-time.After(5 * time.Second):
			t.Error("no second save of the state file after its directory sync failed")
		}
	})
	rec.mu.Lock()
	log := slices.Clone(rec.log)
	rec.mu.Unlock()
	renames := 0
	for _, o := range log {
		if o.kind == opRename && o.to == path {
			renames++
		}
	}
	if renames < 2 {
		t.Errorf("the state file was renamed into place %d times, want a second save", renames)
	}
	// A failed call is not logged: the first directory sync in the log is
	// the second save's, and from there on no cut loses the file.
	synced := slices.IndexFunc(log, func(o op) bool { return o.kind == opSyncDir })
	rec.crashes(synced+1, func(n int, disk *recorder) {
		if _, err := disk.ReadFile(path); err != nil {
			t.Errorf("cut after %d calls, after the second save: %v", n, err)
		}
	})
}
