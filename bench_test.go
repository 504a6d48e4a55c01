// Benchmarks regenerating every evaluation point in the paper. Each
// BenchmarkE<n> corresponds to experiment E<n> in DESIGN.md §4; the
// experiment bodies live in internal/bench so cmd/scbench can print the
// consolidated paper-style report. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/subcontracts/shm"
)

// E1 — §9.3: per-invocation subcontract overhead vs a raw door call.
func BenchmarkE1_DirectDoorCall_0B(b *testing.B)       { bench.E1DirectDoorCall(0)(b) }
func BenchmarkE1_DirectDoorCall_1KiB(b *testing.B)     { bench.E1DirectDoorCall(1024)(b) }
func BenchmarkE1_SingletonCall_0B(b *testing.B)        { bench.E1SubcontractCall("singleton", 0)(b) }
func BenchmarkE1_SingletonCall_1KiB(b *testing.B)      { bench.E1SubcontractCall("singleton", 1024)(b) }
func BenchmarkE1_SimplexCall_0B(b *testing.B)          { bench.E1SubcontractCall("simplex", 0)(b) }
func BenchmarkE1_SimplexLocalFastPath_0B(b *testing.B) { bench.E1LocalOptimized(0)(b) }

// E2 — §9.3: object-transmission overhead vs a raw door transfer.
func BenchmarkE2_RawDoorTransfer(b *testing.B)       { bench.E2RawDoorTransfer(b) }
func BenchmarkE2_ObjectTransfer_1Door(b *testing.B)  { bench.E2ObjectTransfer(1)(b) }
func BenchmarkE2_ObjectTransfer_3Doors(b *testing.B) { bench.E2ObjectTransfer(3)(b) }

// E3 — Figures 3/4, §7: the full simplex object life cycle.
func BenchmarkE3_Lifecycle(b *testing.B) { bench.E3Lifecycle(b) }

// E4 — §5: replicon invocation and failover.
func BenchmarkE4_Replicon_AllAlive_1(b *testing.B)   { bench.E4InvokeAllAlive(1)(b) }
func BenchmarkE4_Replicon_AllAlive_3(b *testing.B)   { bench.E4InvokeAllAlive(3)(b) }
func BenchmarkE4_Replicon_AllAlive_5(b *testing.B)   { bench.E4InvokeAllAlive(5)(b) }
func BenchmarkE4_FailoverFirstCall_3_1(b *testing.B) { bench.E4FailoverFirstCall(3, 1)(b) }
func BenchmarkE4_FailoverFirstCall_5_4(b *testing.B) { bench.E4FailoverFirstCall(5, 4)(b) }

// E5 — §8.1: cluster vs simplex doors and throughput.
func BenchmarkE5_ExportDoors_Simplex_1000(b *testing.B) { bench.E5ExportDoors("simplex", 1000)(b) }
func BenchmarkE5_ExportDoors_Cluster_1000(b *testing.B) { bench.E5ExportDoors("cluster", 1000)(b) }
func BenchmarkE5_Invoke_Simplex(b *testing.B)           { bench.E5Invoke("simplex")(b) }
func BenchmarkE5_Invoke_Cluster(b *testing.B)           { bench.E5Invoke("cluster")(b) }

// E6 — §8.2/Figure 5: caching subcontract vs plain remote access over the
// network door servers (loopback TCP).
func BenchmarkE6_Read_Caching(b *testing.B)  { bench.E6Read("caching")(b) }
func BenchmarkE6_Read_Plain(b *testing.B)    { bench.E6Read("plain")(b) }
func BenchmarkE6_Mixed_Caching(b *testing.B) { bench.E6Mixed("caching")(b) }
func BenchmarkE6_Mixed_Plain(b *testing.B)   { bench.E6Mixed("plain")(b) }

// E7 — §8.3: reconnectable recovery latency.
func BenchmarkE7_Reconnect_FirstCallAfterCrash(b *testing.B) { bench.E7ReconnectFirstCall(b) }
func BenchmarkE7_Reconnect_SteadyState(b *testing.B)         { bench.E7SteadyState(b) }

// E8 — §5.1.5: marshal_copy vs copy-then-marshal.
func BenchmarkE8_CopyThenMarshal_1Door(b *testing.B)  { bench.E8CopyThenMarshal(1)(b) }
func BenchmarkE8_MarshalCopy_1Door(b *testing.B)      { bench.E8MarshalCopy(1)(b) }
func BenchmarkE8_CopyThenMarshal_4Doors(b *testing.B) { bench.E8CopyThenMarshal(4)(b) }
func BenchmarkE8_MarshalCopy_4Doors(b *testing.B)     { bench.E8MarshalCopy(4)(b) }

// E9 — §5.1.4: invoke_preamble shared-buffer optimization.
func BenchmarkE9_Preamble_Direct_64B(b *testing.B)      { bench.E9Echo(shm.Direct, 64)(b) }
func BenchmarkE9_Preamble_CopyAfter_64B(b *testing.B)   { bench.E9Echo(shm.CopyAfter, 64)(b) }
func BenchmarkE9_Preamble_Direct_4KiB(b *testing.B)     { bench.E9Echo(shm.Direct, 4096)(b) }
func BenchmarkE9_Preamble_CopyAfter_4KiB(b *testing.B)  { bench.E9Echo(shm.CopyAfter, 4096)(b) }
func BenchmarkE9_Preamble_Direct_64KiB(b *testing.B)    { bench.E9Echo(shm.Direct, 65536)(b) }
func BenchmarkE9_Preamble_CopyAfter_64KiB(b *testing.B) { bench.E9Echo(shm.CopyAfter, 65536)(b) }

// E13 — §9.1: specialized stubs for popular type/subcontract combinations.
func BenchmarkE13_GenericStubs_0B(b *testing.B)       { bench.E13Call("generic", 0)(b) }
func BenchmarkE13_SpecializedStubs_0B(b *testing.B)   { bench.E13Call("specialized", 0)(b) }
func BenchmarkE13_GenericStubs_1KiB(b *testing.B)     { bench.E13Call("generic", 1024)(b) }
func BenchmarkE13_SpecializedStubs_1KiB(b *testing.B) { bench.E13Call("specialized", 1024)(b) }

// E14 — invocation-context threading overhead on the minimal call.
func BenchmarkE14_ContextFree_0B(b *testing.B)    { bench.E14Call("bare", 0)(b) }
func BenchmarkE14_WithDeadline_0B(b *testing.B)   { bench.E14Call("deadline", 0)(b) }
func BenchmarkE14_FullContext_0B(b *testing.B)    { bench.E14Call("full", 0)(b) }
func BenchmarkE14_WithDeadline_1KiB(b *testing.B) { bench.E14Call("deadline", 1024)(b) }

// E15 — netd pipelined throughput over loopback TCP: parallelism ∈
// {1, 8, 64} concurrent callers × payload ∈ {0, 1 KiB, 64 KiB}. `make
// bench` runs this sweep and records it in BENCH_netd.json.
func BenchmarkE15_Throughput_P1_0B(b *testing.B)     { bench.E15Throughput(1, 0)(b) }
func BenchmarkE15_Throughput_P1_1KiB(b *testing.B)   { bench.E15Throughput(1, 1024)(b) }
func BenchmarkE15_Throughput_P1_64KiB(b *testing.B)  { bench.E15Throughput(1, 65536)(b) }
func BenchmarkE15_Throughput_P8_0B(b *testing.B)     { bench.E15Throughput(8, 0)(b) }
func BenchmarkE15_Throughput_P8_1KiB(b *testing.B)   { bench.E15Throughput(8, 1024)(b) }
func BenchmarkE15_Throughput_P8_64KiB(b *testing.B)  { bench.E15Throughput(8, 65536)(b) }
func BenchmarkE15_Throughput_P64_0B(b *testing.B)    { bench.E15Throughput(64, 0)(b) }
func BenchmarkE15_Throughput_P64_1KiB(b *testing.B)  { bench.E15Throughput(64, 1024)(b) }
func BenchmarkE15_Throughput_P64_64KiB(b *testing.B) { bench.E15Throughput(64, 65536)(b) }

// E18 — the same workload over the same-machine transport tier (unix
// sockets, every payload in its frame), so every cell has its E15
// loopback-TCP twin in BENCH_netd.json.
func BenchmarkE18_SameMachine_P1_0B(b *testing.B)     { bench.E18SameMachine(1, 0)(b) }
func BenchmarkE18_SameMachine_P1_1KiB(b *testing.B)   { bench.E18SameMachine(1, 1024)(b) }
func BenchmarkE18_SameMachine_P1_64KiB(b *testing.B)  { bench.E18SameMachine(1, 65536)(b) }
func BenchmarkE18_SameMachine_P8_0B(b *testing.B)     { bench.E18SameMachine(8, 0)(b) }
func BenchmarkE18_SameMachine_P8_1KiB(b *testing.B)   { bench.E18SameMachine(8, 1024)(b) }
func BenchmarkE18_SameMachine_P8_64KiB(b *testing.B)  { bench.E18SameMachine(8, 65536)(b) }
func BenchmarkE18_SameMachine_P64_0B(b *testing.B)    { bench.E18SameMachine(64, 0)(b) }
func BenchmarkE18_SameMachine_P64_1KiB(b *testing.B)  { bench.E18SameMachine(64, 1024)(b) }
func BenchmarkE18_SameMachine_P64_64KiB(b *testing.B) { bench.E18SameMachine(64, 65536)(b) }

// E16 — lock-free local door path + cache manager scalability: null
// local door call, door refcount round trip, and cached-read throughput
// (hot / cold / invalidating mixes) at parallelism ∈ {1, 8, 64}. `make
// bench` runs this sweep and records it in BENCH_cache.json.
func BenchmarkE16_NullLocalCall_P1(b *testing.B)    { bench.E16NullLocalCall(1)(b) }
func BenchmarkE16_NullLocalCall_P8(b *testing.B)    { bench.E16NullLocalCall(8)(b) }
func BenchmarkE16_NullLocalCall_P64(b *testing.B)   { bench.E16NullLocalCall(64)(b) }
func BenchmarkE16_DupRelease_P1(b *testing.B)       { bench.E16DupRelease(1)(b) }
func BenchmarkE16_DupRelease_P64(b *testing.B)      { bench.E16DupRelease(64)(b) }
func BenchmarkE16_CachedRead_Hot_P1(b *testing.B)   { bench.E16CachedRead(1, "hot")(b) }
func BenchmarkE16_CachedRead_Hot_P8(b *testing.B)   { bench.E16CachedRead(8, "hot")(b) }
func BenchmarkE16_CachedRead_Hot_P64(b *testing.B)  { bench.E16CachedRead(64, "hot")(b) }
func BenchmarkE16_CachedRead_Cold_P1(b *testing.B)  { bench.E16CachedRead(1, "cold")(b) }
func BenchmarkE16_CachedRead_Cold_P8(b *testing.B)  { bench.E16CachedRead(8, "cold")(b) }
func BenchmarkE16_CachedRead_Cold_P64(b *testing.B) { bench.E16CachedRead(64, "cold")(b) }
func BenchmarkE16_CachedRead_Inval_P8(b *testing.B) { bench.E16CachedRead(8, "inval")(b) }

// E17 — distributed-tracing overhead on the E14 minimal call: sampling
// off / enabled-but-unsampled / every-call-sampled, at parallelism 1 and
// 64. `make bench` records this sweep in BENCH_trace.json; the alloc and
// latency acceptance guards live in internal/bench/bench6_test.go.
func BenchmarkE17_Traced_Off_P1(b *testing.B)        { bench.E17TracedCall("off", 1)(b) }
func BenchmarkE17_Traced_Off_P64(b *testing.B)       { bench.E17TracedCall("off", 64)(b) }
func BenchmarkE17_Traced_Unsampled_P1(b *testing.B)  { bench.E17TracedCall("unsampled", 1)(b) }
func BenchmarkE17_Traced_Unsampled_P64(b *testing.B) { bench.E17TracedCall("unsampled", 64)(b) }
func BenchmarkE17_Traced_Sampled_P1(b *testing.B)    { bench.E17TracedCall("sampled", 1)(b) }
func BenchmarkE17_Traced_Sampled_P64(b *testing.B)   { bench.E17TracedCall("sampled", 64)(b) }

// E22 — always-on HDR latency recording vs the v1 1-in-8 sampled path,
// on the same minimal call: record mode off / sampled8 (v1) / timed
// (clocks only) / always (v2 default), at parallelism 1 and 64. `make
// bench` records this sweep in BENCH_trace.json; the ≤15 ns and 0-alloc
// acceptance guards live in internal/bench/bench11_test.go. The
// "always" cells also report p50_ns/p99_ns/p999_ns metrics from the
// histogram the cell exercised.
func BenchmarkE22_Record_Off_P1(b *testing.B)       { bench.E22RecordCost("off", 1)(b) }
func BenchmarkE22_Record_Off_P64(b *testing.B)      { bench.E22RecordCost("off", 64)(b) }
func BenchmarkE22_Record_Sampled8_P1(b *testing.B)  { bench.E22RecordCost("sampled8", 1)(b) }
func BenchmarkE22_Record_Sampled8_P64(b *testing.B) { bench.E22RecordCost("sampled8", 64)(b) }
func BenchmarkE22_Record_Timed_P1(b *testing.B)     { bench.E22RecordCost("timed", 1)(b) }
func BenchmarkE22_Record_Timed_P64(b *testing.B)    { bench.E22RecordCost("timed", 64)(b) }
func BenchmarkE22_Record_Always_P1(b *testing.B)    { bench.E22RecordCost("always", 1)(b) }
func BenchmarkE22_Record_Always_P64(b *testing.B)   { bench.E22RecordCost("always", 64)(b) }

// E19 — durable write throughput through the WAL group committer:
// parallelism ∈ {1, 64} writers × fsync batch cap ∈ {1, 8, 64, 256},
// plus the in-memory (no WAL) baseline. `make bench` records this
// sweep in BENCH_wal.json.
func BenchmarkE19_InMemoryWrite_P1(b *testing.B)      { bench.E19DurableWrite(1, 0)(b) }
func BenchmarkE19_InMemoryWrite_P64(b *testing.B)     { bench.E19DurableWrite(64, 0)(b) }
func BenchmarkE19_DurableWrite_P1_B256(b *testing.B)  { bench.E19DurableWrite(1, 256)(b) }
func BenchmarkE19_DurableWrite_P64_B1(b *testing.B)   { bench.E19DurableWrite(64, 1)(b) }
func BenchmarkE19_DurableWrite_P64_B8(b *testing.B)   { bench.E19DurableWrite(64, 8)(b) }
func BenchmarkE19_DurableWrite_P64_B64(b *testing.B)  { bench.E19DurableWrite(64, 64)(b) }
func BenchmarkE19_DurableWrite_P64_B256(b *testing.B) { bench.E19DurableWrite(64, 256)(b) }

// E10 — §6.1/§6.2: compatible-subcontract discovery, cold vs warm.
func BenchmarkE10_Discovery_Cold(b *testing.B) { bench.E10DiscoveryCold(b) }
func BenchmarkE10_Discovery_Warm(b *testing.B) { bench.E10DiscoveryWarm(b) }

// E12 — §9.3: wire-size overhead of the subcontract header.
func TestE12_WireOverhead(t *testing.T) {
	header, obj, raw, err := bench.WireSizes()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("singleton object = %d bytes, raw door = %d bytes, subcontract header = %d bytes", obj, raw, header)
	// The header is the 4-byte subcontract ID plus the length-prefixed
	// dynamic type name — small and constant, as §9.3 claims.
	if header <= 0 || header > 64 {
		t.Fatalf("header overhead = %d bytes, expected a small constant", header)
	}
}

// E20 — server-side dispatch: the serve-side cost of an incoming call
// under the two execution modes (adaptive inline with a goroutine per
// call behind it; promotion off, so every call is spawned), 0-byte echo
// at parallelism ∈ {1, 8, 64}; a blocking-handler cell (100µs park, 64
// callers blocked in the server at once); and goodput at 4×
// admission-bound overload. `make bench` records this sweep in
// BENCH_dispatch.json.
func BenchmarkE20_Serve_Inline_P1_0B(b *testing.B)  { bench.E20Serve("inline", 1, 0)(b) }
func BenchmarkE20_Serve_Inline_P8_0B(b *testing.B)  { bench.E20Serve("inline", 8, 0)(b) }
func BenchmarkE20_Serve_Inline_P64_0B(b *testing.B) { bench.E20Serve("inline", 64, 0)(b) }
func BenchmarkE20_Serve_Spawn_P1_0B(b *testing.B)   { bench.E20Serve("spawn", 1, 0)(b) }
func BenchmarkE20_Serve_Spawn_P8_0B(b *testing.B)   { bench.E20Serve("spawn", 8, 0)(b) }
func BenchmarkE20_Serve_Spawn_P64_0B(b *testing.B)  { bench.E20Serve("spawn", 64, 0)(b) }
func BenchmarkE20_Blocking_P64(b *testing.B)        { bench.E20Blocking(64)(b) }
func BenchmarkE20_Overload_4x(b *testing.B)         { bench.E20Overload(4)(b) }

// E21 — head-of-line blocking between request classes: two 64 KiB bulk
// callers interfere with eight small callers. Shared is the reference
// (the client's BulkThreshold raised above the payload, so everything
// rides the call connection); Isolated is the stock client, whose bulk
// requests ride the link's bulk connection. Each row reports the small
// callers' calls/s and p99-ns and the bulk callers' bulk/s. `make bench`
// records both (medians of 3 runs) in BENCH_netd.json.
func BenchmarkE21_MixedHoL_Shared(b *testing.B)   { bench.E21MixedHoL(true)(b) }
func BenchmarkE21_MixedHoL_Isolated(b *testing.B) { bench.E21MixedHoL(false)(b) }
