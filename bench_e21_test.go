package repro_test

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/netd"
)

// ---------------------------------------------------------------------
// E21 — head-of-line blocking between request classes over loopback TCP.
// With every request on one connection a 64 KiB frame stalls each small
// call queued behind it in the writer and the socket; netd's link keeps
// requests of BulkThreshold bytes or more on a connection of their own
// (DESIGN §12). MixedHoL measures what that buys, against a reference
// client that shares one connection.
//
// Reported: ns/op and calls/s of the small callers, p99-ns (their tail
// latency while the bulk callers saturate the same peer), bulk/s — the
// bulk callers' own rate, because a small-call rate alone cannot tell
// isolation from CPU taken away from the bulk class — and large-allocs/op,
// the payload-sized buffer arrays both machines allocated per small call:
// zero once as many exist as the bulk callers keep in flight, whatever the
// small calls between them draw (DESIGN §14).

// E21MixedHoL measures small-call throughput and tail latency under bulk
// interference: two background callers stream 64 KiB echoes at the peer
// for the whole run while 8 foreground callers split b.N small (0-byte)
// calls, recording per-call latency. shared is the reference row: the
// client's BulkThreshold is raised above the bulk payload, so every request
// rides the call connection; otherwise the client is stock and the bulk
// callers ride the bulk connection.
func E21MixedHoL(shared bool) func(*testing.B) {
	return func(b *testing.B) {
		bulk := make([]byte, 64<<10)
		var opts []netd.Option
		if shared {
			opts = append(opts, netd.With(netd.Config{BulkThreshold: 2 * len(bulk)}))
		}
		remote := e15Setup(b, opts...)
		small := []byte{}
		if err := callEcho(remote, bulk); err != nil { // warm conns + pools
			b.Fatal(err)
		}
		const (
			bulkCallers  = 2
			smallCallers = 8
		)
		var failed atomic.Value
		var bulkDone atomic.Int64
		stop := make(chan struct{})
		var bg sync.WaitGroup
		for g := 0; g < bulkCallers; g++ {
			bg.Add(1)
			go func() {
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := callEcho(remote, bulk); err != nil {
						failed.Store(err)
						return
					}
					bulkDone.Add(1)
				}
			}()
		}
		lats := make([][]int64, smallCallers)
		b.ReportAllocs()
		b.ResetTimer()
		bulk0, large0 := bulkDone.Load(), buffer.Stats().LargeAllocs
		var wg sync.WaitGroup
		per, rem := b.N/smallCallers, b.N%smallCallers
		for g := 0; g < smallCallers; g++ {
			n := per
			if g < rem {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				l := make([]int64, 0, n)
				for i := 0; i < n; i++ {
					start := time.Now()
					if err := callEcho(remote, small); err != nil {
						failed.Store(err)
						break
					}
					l = append(l, time.Since(start).Nanoseconds())
				}
				lats[g] = l
			}(g, n)
		}
		wg.Wait()
		b.StopTimer()
		bulkCalls, largeAllocs := bulkDone.Load()-bulk0, buffer.Stats().LargeAllocs-large0
		close(stop)
		bg.Wait()
		if err := failed.Load(); err != nil {
			b.Fatal(err)
		}
		var all []int64
		for _, l := range lats {
			all = append(all, l...)
		}
		if len(all) > 0 {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(all[(len(all)-1)*99/100]), "p99-ns")
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "calls/s")
			b.ReportMetric(float64(bulkCalls)/secs, "bulk/s")
		}
		b.ReportMetric(float64(largeAllocs)/float64(b.N), "large-allocs/op")
	}
}
