package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/filesys"
	"repro/internal/kernel"
	"repro/internal/sctest"
)

// ---------------------------------------------------------------------
// E19 — durable write throughput through the WAL group committer. A
// write is acknowledged only after its log record is fsynced, so the
// cost under test is how well the committer amortizes that fsync:
// concurrent writers apply in memory, enqueue their records, and one
// committer goroutine commits whatever is queued — what arrived during
// the last fsync, up to the MaxBatch cap, is what the next one carries.
//
// Knobs: parallelism ∈ {1, 64} concurrent writers × group-commit batch
// size ∈ {1, 8, 64, 256}. Writers hit distinct files so the sweep
// measures commit batching, not file-lock contention. The in-memory
// cells (no WAL) bound what durability costs at all; the P1 cell shows
// the floor — a lone writer pays one fsync per write regardless of
// batch size — and the P64 × batch sweep shows group
// commit buying back that cost. `make bench` records this sweep in
// BENCH_wal.json.

// e19Setup builds a file service over a WAL-backed store (batch > 0) or
// a plain in-memory store (batch == 0) and returns a local client-side
// file_system wrapper.
func e19Setup(b *testing.B, batch int) filesys.FileSystem {
	b.Helper()
	k := kernel.New("e19")
	env, err := sctest.NewEnv(k, "e19-files", filesys.RegisterAll)
	if err != nil {
		b.Fatal(err)
	}
	store := filesys.NewStore()
	if batch > 0 {
		wal, err := filesys.OpenWAL(b.TempDir(), store, filesys.WALOptions{MaxBatch: batch})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := wal.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
	svc := filesys.NewServiceWithStore(env, store)
	return filesys.FileSystem{Obj: svc.Object()}
}

// E19DurableWrite sweeps 1 KiB writes through the group committer with
// the given fsync batch cap. batch == 0 drops the WAL entirely: the
// in-memory baseline every durable cell is read against.
func E19DurableWrite(parallelism, batch int) func(*testing.B) {
	return func(b *testing.B) {
		fs := e19Setup(b, batch)
		payload := make([]byte, 1024)
		files := make([]filesys.File, parallelism)
		for i := range files {
			f, err := fs.Create(fmt.Sprintf("f%d", i))
			if err != nil {
				b.Fatal(err)
			}
			files[i] = f
		}
		var failed atomic.Value
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		per, rem := b.N/parallelism, b.N%parallelism
		for g := 0; g < parallelism; g++ {
			n := per
			if g < rem {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(f filesys.File, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := f.Write(0, payload); err != nil {
						failed.Store(err)
						return
					}
				}
			}(files[g], n)
		}
		wg.Wait()
		b.StopTimer()
		if err := failed.Load(); err != nil {
			b.Fatal(err)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "writes/s")
		}
	}
}
