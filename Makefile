# Verification tiers. tier1 is the build gate; tier2 adds static
# analysis, the race detector (the scstats fast path and the netd
# forward/cancel select are the interesting surfaces), the fault
# suite — the liveness/partition tests under deterministic fault
# injection (internal/faultnet) — and a smoke pass over the E15/E16
# benchmark suites so they cannot silently rot.
.PHONY: all tier1 tier2 faults crash fuzz bench bench-quick bench-pair bench-e2e-check bench-all gen gen-check obs lines binsize

all: tier1 tier2

# tier1 also fails when gofmt would rewrite a tracked Go file.
tier1: gen-check
	@out=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	test -z "$$out" || { echo "gofmt -l lists:" $$out >&2; exit 1; }
	go build ./...
	go test ./...

tier2: faults crash bench-quick bench-e2e-check obs
	go vet ./...
	go test -race ./...

# The fault suite: partition, crash-recovery, lease-expiry, breaker,
# transport-teardown and link tests across netd and the subcontracts, and
# the control plane's own tests under a fake clock (seeded schedules
# included), under the race detector.
faults:
	go test -race -run 'Lease|Partition|Breaker|Sever|Truncat|Kill|Refus|Hung|Dead|Replay|Heartbeat|Reclaim|Teardown|Link|Bulk|Proto' \
		./internal/faultnet/ ./internal/netd/ ./internal/integration/

# The E19 crash suite: SIGKILL the durable server mid-write-load and
# restart it against the same WAL directories and netd state file, on a
# TCP address and on a unix: one whose socket file the kill leaves
# behind — same instance identity, no acked write lost, zero
# client-visible errors — plus the WAL/snapshot corruption property tests.
crash:
	go test -race -run 'KillRestart|RestartRecovers|RestartRejoins|StateFile|CorruptState|FirstBoot|WAL|Snapshot|SaveFile' \
		./internal/integration/ ./internal/netd/ ./internal/filesys/

# Every Fuzz* target in the tree, package by package, for FUZZTIME each
# (default 10s), with two fuzzing workers. The targets are found with git
# grep, so a new fuzzer runs without an edit here; benchmark/ is a module
# of its own and is left out. The first crasher stops the run and fails
# it, its input written under the package's testdata/fuzz/. Neither tier
# runs this.
FUZZTIME ?= 10s
fuzz:
	@git grep --no-line-number -o '^func Fuzz[A-Za-z0-9_]*' -- '*_test.go' ':!benchmark/' | \
	while IFS=: read -r file fn; do \
		dir=$$(dirname "$$file"); name=$${fn#func }; \
		echo "fuzz: $$name in ./$$dir for $(FUZZTIME)"; \
		go test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -parallel 2 "./$$dir" || exit 1; \
	done

# The E15/E18 throughput sweeps (parallelism × payload, over loopback TCP
# and the same-machine tier's unix sockets), E21's two head-of-line rows (small
# calls under bulk load, one shared connection vs the link's two) and the
# E16 local-path sweep (null door calls, refcount churn, cache-hit mixes),
# recorded as JSON with the host they ran on. The netd sweep runs
# -count=3 and benchjson collapses the repeats to per-cell medians.
# Existing baselines in BENCH_netd.json / BENCH_cache.json are preserved,
# so each file carries before/after numbers across optimization PRs.
bench:
	set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go test -run NONE -bench 'E15|E18' -benchmem -benchtime 2s -count=3 . | tee $$d/netd.out; \
	go test -run NONE -bench 'E21' -benchmem -benchtime 1s -count=3 . | tee -a $$d/netd.out; \
	go run ./cmd/benchjson -experiment 'E15/E18/E21 netd throughput: loopback TCP vs the same-machine tier (unix sockets); small calls under bulk load, shared vs isolated' \
		-note 'per-cell medians of 3 runs on a shared host; compare E18 vs E15 and MixedHoL_Isolated vs _Shared within a run; the E18 64KiB cells are the unix-socket copy since PR 20 (E29) — the in-process region hand-off that read 12-26 us there is deleted' \
		-o BENCH_netd.json < $$d/netd.out; \
	go test -run NONE -bench 'E16' -benchmem . | tee $$d/e16.out; \
	go run ./cmd/benchjson -experiment 'E16 lock-free local door path + scalable cache manager (intra-machine)' \
		-o BENCH_cache.json < $$d/e16.out; \
	go test -run NONE -bench 'E17|E22' -benchmem . | tee $$d/e17.out; \
	go run ./cmd/benchjson -experiment 'E17 tracing overhead + E22 always-on latency recording (P1 and P64)' \
		-note "E22 prices the always-on histogram on the singleton echo (the record modes it was compared with are deleted, EXPERIMENTS E22/E34/E35; the record proper is guarded by scstats' TestRecordCostGuard), and the always cells carry the measured window p50/p99/p999" \
		-o BENCH_trace.json < $$d/e17.out; \
	go test -run NONE -bench 'E19' -benchmem -benchtime 2s . | tee $$d/wal.out; \
	go run ./cmd/benchjson -experiment 'E19 durable writes: WAL group-commit batch-cap sweep vs in-memory baseline (natural batching, no linger)' \
		-note 'fsync latency is the unit here and varies with the host disk; compare batch caps within a run' \
		-o BENCH_wal.json < $$d/wal.out; \
	go test -run NONE -bench 'E20' -benchmem -benchtime 2s . | tee $$d/dispatch.out; \
	go run ./cmd/benchjson -experiment 'E20 server-side dispatch: adaptive inline over a goroutine per call vs every call spawned' \
		-note 'compare Inline/Spawn cells within one run; the inline win shows at P1/P8, where it saves every handoff; Blocking_P64 is 64 callers of a 100us handler, all blocked in the server at once' \
		-o BENCH_dispatch.json < $$d/dispatch.out

# One-iteration smoke: the benchmarks still compile and run, the E6 caching
# cells (whose server dispatches through a derived skeleton) and the E4/E7
# failover and reconnect cells included. Then the E24
# guards of the file data path, the E25 guards of the durable write path
# and the E27 guards of the reply path and the buffer pool, without the
# race detector (under it the allocation guards skip and the timing ones
# mean nothing; the guards that count only large-class arrays run under it
# too, in tier2's race pass and in faults): a served 64 KiB read or write
# allocates nothing, a borrowed argument is not retained, a file grown by
# appends is never copied; a served durable write allocates nothing,
# commit included, sixteen blocked remote writers share fsyncs eight or
# more at a time, a lone one does not wait for company; the reply buffer is the reply frame,
# a payload-sized frame leaves uncopied, a 64 KiB read between 1 KiB reads
# of the same file and of another allocates nothing, sixteen 64 KiB frames
# in flight leave at most eighteen payload-sized arrays, a growing buffer
# and a bytes result borrow an idle one, the same reads and writes over a
# unix socket make no array either; and the E28 counts of the write
# path — an idle connection is one goroutine, a null call is one write each
# way, a caller writes one batch and no more, sixteen 64 KiB requests
# whose handlers do not block make GOMAXPROCS + 2 arrays; and the socket
# layer's writev allocates nothing (E31); and a dispatch engine's queued
# item allocates nothing once its heap has grown, Run only its closures
# (E32); and a control-plane tick over a steady table allocates nothing
# (E33); and the always-on record stays within its budget over one atomic
# add and allocates nothing (E35); and the large class gives back the
# arrays a burst left idle through two Trims and keeps a working set that
# is cycled across ten, and a hand-off to the transient flusher allocates
# nothing (E36) — so a
# copy, an allocation, a pool, a timer or a writer goroutine creeping back
# in fails tier2. -run exits 0 for a name that matches nothing, so the
# list is checked against go test -list first: a guard that was renamed or
# deleted fails the target instead of silently no longer running.
GUARDS = TestServedReadWriteAllocs|TestServedMixedReadAllocs|TestReplyIsFrame|TestLargeFrameBypassesBatch|TestBorrowedBytesNotRetained|TestSequentialGrowthCopiesLinear|TestDurableWriteAllocs|TestGroupCommitGroups|TestLoneDurableWriteDoesNotLinger|TestSmallCallsDoNotPinLargeArrays|TestGrowthBorrowsIdleLarge|TestReserveBorrowsIdleLarge|TestSameMachineReadWriteAllocs|TestFramePrependAllocs|TestIdleConnGoroutines|TestNullCallOneFlushEachWay|TestFlusherNotCaptive|TestBulkBurstHandsOff|TestWritevAllocs|TestRunAllocs|TestSubmitAllocs|TestProtoTickAllocs|TestRecordCostGuard|TestRecordAllocs|TestTrimReleasesIdleLarge|TestTrimKeepsWorkingSet|TestFlusherHandOffAllocs
GUARD_PKGS = ./internal/netd/ ./internal/filesys/ ./internal/buffer/ ./internal/sock/ ./internal/dispatch/ ./internal/scstats/

bench-quick:
	go test -run NONE -bench 'E4|E6|E7|E15|E16|E17|E18|E19|E20|E21_MixedHoL|E22' -benchtime 1x .
	@have=$$(go test -list 'Test' $(GUARD_PKGS)) || exit 1; \
	for t in $$(echo '$(GUARDS)' | tr '|' ' '); do \
		echo "$$have" | grep -qx "$$t" || { echo "bench-quick: guard $$t names no test in $(GUARD_PKGS)" >&2; exit 1; }; \
	done
	go test -count=1 -run '$(GUARDS)' $(GUARD_PKGS)

# The regression gate in its minimal form: N (default 10) runs of one
# workload of the two-process benchmark on BASE and on this tree, same seed
# within a pair, alternating which side goes first; per metric, each side's
# quartiles, the pairs this tree won and the median paired difference.
#   make bench-pair BASE=HEAD~1 WORKLOAD=null_c1 [N=10] [PAIRFLAGS='-trace 1 -metrics flushes']
bench-pair:
	go run ./cmd/benchjson -pair -base $(BASE) -workload $(WORKLOAD) -n $(or $(N),10) $(PAIRFLAGS)

# The two-process benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so tier1's ./... never reaches it: run its arithmetic tests
# and its smoke mode — every workload, both modes, one-second windows
# against a springfsd built from this checkout — so a change here that
# breaks what the benchmark uses of the program fails tier2, not the
# next measured run.
bench-e2e-check:
	(cd benchmark && go test -short ./...)
	bash benchmark/run.sh -smoke

bench-all:
	go test -bench=. -benchmem

# The line bar ROADMAP counts: tracked non-test Go outside benchmark/, per
# package directory and in total, so every change measures it one way.
lines:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); if (d == $$2) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The resident binary's share of server_rss_mb (EXPERIMENTS E30, E31, E37):
# the LOAD segments of springfsd built as benchmark/run.sh builds it (plain
# go build, the host's default cgo setting), each with its file and memory
# size in bytes, and the file sizes' total.
binsize:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	GOFLAGS= go build -o $$d/springfsd ./cmd/springfsd || exit 1; \
	readelf -lW $$d/springfsd | grep '^ *LOAD' | { t=0; while read -r _ _ _ _ f m rest; do \
		printf 'LOAD %-3s filesz %9d memsz %9d\n' "$${rest% *}" $$((f)) $$((m)); t=$$((t + f)); done; \
		printf 'LOAD total filesz %d\n' $$t; }

gen:
	go run ./cmd/idlgen -package filesys -o internal/filesys/gen.go internal/filesys/filesys.idl
	go test ./internal/idl -run TestGolden -update

# The checked-in generator output — filesys's gen.go and the idl golden —
# is what the generator produces today.
gen-check:
	go run ./cmd/idlgen -package filesys internal/filesys/filesys.idl | diff -u internal/filesys/gen.go -
	go run ./cmd/idlgen -package golden internal/idl/testdata/golden.idl | diff -u internal/idl/testdata/golden.go.golden -

# Observability smoke: boot springfsd with the telemetry plane, every-call
# tracing and a 1ns slow threshold, drive a traced write/read through fsh,
# then scrape every route family of the GET-only responder: /metrics
# (gauges + a histogram trace exemplar), /statz (a windowed delta with
# subcontract rows), /healthz, /traces (a JSON array), /traces/slow (a
# root the daemon's own calls left there) and /traces/zz (400), a heap
# profile through go tool pprof (a non-empty table) and the goroutine
# profile's text form; an fsh call under an expired deadline must fail
# with the deadline error; and sctop -once, which must print a
# subcontract row with nonzero calls and the netd link line. Binaries and
# scratch files live in one mktemp directory, removed on exit.
obs:
	@d=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf "$$d"' EXIT; \
	go build -o $$d/springfsd ./cmd/springfsd && go build -o $$d/fsh ./cmd/fsh && \
		go build -o $$d/sctop ./cmd/sctop || exit 1; \
	$$d/springfsd -addr 127.0.0.1:17040 -telemetry 127.0.0.1:16060 -trace-sample 1 -trace-slow 1ns & \
	pid=$$!; \
	sleep 1; \
	ok=0; \
	$$d/fsh -server 127.0.0.1:17040 create obs-smoke >/dev/null && \
	$$d/fsh -server 127.0.0.1:17040 write obs-smoke "latency plane v2" >/dev/null && \
	$$d/fsh -server 127.0.0.1:17040 cat obs-smoke >/dev/null && \
	curl -sf http://127.0.0.1:16060/metrics | grep -q '^netd_conns_live' && \
	curl -sf http://127.0.0.1:16060/metrics | grep -q '^subcontract_calls_total' && \
	curl -sf http://127.0.0.1:16060/metrics | grep -q '# {trace_id=' && \
	curl -sf 'http://127.0.0.1:16060/statz?window=10s' | grep -q '"window_seconds"' && \
	curl -sf 'http://127.0.0.1:16060/statz?window=10s' | grep -q '"subcontracts"' && \
	curl -sf http://127.0.0.1:16060/healthz | grep -q '"status"' && \
	curl -sf http://127.0.0.1:16060/traces | grep -q '^\[' && \
	curl -sf http://127.0.0.1:16060/traces/slow | grep -q '"trace": "' && \
	! $$d/fsh -server 127.0.0.1:17040 -timeout 1ns cat obs-smoke 2> $$d/timeout.err && \
	grep -q 'call deadline exceeded' $$d/timeout.err && \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:16060/traces/zz)" = 400 && \
	curl -sf 'http://127.0.0.1:16060/debug/pprof/goroutine?debug=1' | grep -q '^goroutine profile: total' && \
	PPROF_TMPDIR=$$d/pprof go tool pprof -sample_index=alloc_space -top 'http://127.0.0.1:16060/debug/pprof/heap?gc=1' 2>/dev/null | \
		awk '/flat%/ { t = 1; next } t && NF { n++ } END { exit n == 0 }' && \
	$$d/sctop -once -url http://127.0.0.1:16060/metrics > $$d/sctop.out && \
	awk '/^SUBCONTRACT/ { t = 1; next } t && NF == 0 { t = 0 } t && $$2 > 0 { n++ } END { exit n == 0 }' $$d/sctop.out && \
	grep -q '^netd link: CONNS ' $$d/sctop.out || { ok=1; cat $$d/sctop.out 2>/dev/null; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test $$ok -eq 0 && echo "obs smoke: ok"
