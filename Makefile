GO ?= go

.PHONY: build test vet race lint verify pins chaos fuzz smoke examples paper net-chaos recovery-torture loc pairs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint runs the stock `go vet` passes, then the one custom lint rule
# (syncerr — see DESIGN.md §8.4), which prints the
# //thedb:nolint:syncerr tally and fails on any malformed suppression.
# The first grep keeps shared counters on typed
# atomics (atomic.Int64 and friends), where a plain access does not
# compile and vet's copylocks catches every copy: it fails on any
# pointer-form sync/atomic call outside tests and benchmark/. The
# second keeps the engine replayable and quiet: non-test internal/core
# files may not import math/rand (command-log replay re-executes
# procedures and must make the same choices; internal/fault's seeded
# stream is the sanctioned randomness) nor print process-wide
# (fmt.Print*, package log). Last, gofmt must list no file.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/thedb-lint ./...
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int|Uint|Pointer|Uintptr)[0-9]*\(' . \
		|| { echo "lint: pointer-form sync/atomic call; use a typed atomic field instead"; exit 1; }
	@! grep -rnE --include='*.go' --exclude='*_test.go' '"math/rand|\<fmt\.Print|"log"' internal/core \
		|| { echo "lint: math/rand or process-global printing (fmt.Print*, package log) in internal/core; keep the engine deterministic and quiet"; exit 1; }
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" \
		|| { echo "$$unformatted"; echo "lint: files not gofmt-formatted; run gofmt -w on them"; exit 1; }

race:
	$(GO) test -race ./...

# chaos is the protocol-robustness smoke: the seeded fault-injection
# torture (with the serializability oracle), the stuck-epoch watchdog,
# and the rung tests (HYBRID's OCC → 2PL hop), under -race with -short
# trimming the torture to a handful of seeds (see DESIGN.md §8.1). Drop
# -short for the full 64-seed sweep.
chaos:
	$(GO) test -race ./internal/fault/ ./internal/oracle/ ./internal/obs/
	$(GO) test -race -short -run 'Chaos|Watchdog|Ladder|Backoff|Epoch|Event' ./internal/core/

# fuzz gives every decoder of untrusted bytes a short adversarial
# workout beyond the checked-in seeds: the wire-protocol frame decoder
# (DESIGN.md §6.1), the disk value codec, the WAL entry decoder and
# the checkpoint image loader (DESIGN.md §5.1, §5.2). None may panic on hostile
# bytes; a WAL entry that decodes must re-encode to the same payload,
# and a refused image must leave the catalog untouched. CI runs this
# in the lint job.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzValueCodec -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzLoadImage -fuzztime $(FUZZTIME) ./internal/checkpoint/

# smoke is the one end-to-end check of the served database (DESIGN.md
# §4.6, §5.4, §6, §7.2, §7.3). Both binaries are built once; one durable
# YCSB server runs with checkpoints, tracing, exemplars and the
# contention profiler on; the load generator drives mix a then mix snap
# over loopback; every metric family the obs plane promises must be
# there, the pipelined load must have reached the dispatchers in runs
# longer than one call, and /debug/trace must hold traces; then kill -9,
# restart with -wal.salvage, and the recovery report must name a
# checkpoint; then SIGTERM must drain cleanly. The 1µs slow threshold makes trace
# retention deterministic: every committed transaction counts as slow.
# Each failure names its assertion; logs and scrapes stay in
# $(SMOKE_DIR).
SMOKE_ADDR ?= 127.0.0.1:17707
SMOKE_OBS ?= 127.0.0.1:19095
SMOKE_DIR ?= /tmp/thedb-smoke
smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/thedb-server ./cmd/thedb-server
	$(GO) build -o $(SMOKE_DIR)/thedb-bench ./cmd/thedb-bench
	@cd $(SMOKE_DIR) && \
	serve="./thedb-server -addr $(SMOKE_ADDR) -workers 4 -workload ycsb -ycsb.records 20000 -wal.dir wal -obs.addr $(SMOKE_OBS)"; \
	bench="./thedb-bench -addr $(SMOKE_ADDR) -net.records 20000"; \
	die() { echo "smoke: $$1"; kill -9 $$pid 2>/dev/null; exit 1; }; \
	need() { grep -q "$$2" $$1 || { tail -n 20 $$1; die "$$3"; }; }; \
	up() { for i in $$(seq 1 40); do \
		$$bench -duration 100ms -net.clients 1 -net.conns 1 >/dev/null 2>&1 && return 0; sleep 0.25; \
		done; return 1; }; \
	$$serve -checkpoint.every 2s -trace.buffer 512 -trace.slow 1us -trace.exemplars -contention.k 16 2>life1.log & pid=$$!; \
	up || { cat life1.log; die "server never accepted calls"; }; \
	$$bench -duration 2s -net.mix a >bench-a.txt 2>&1 || { cat bench-a.txt; die "mix a bench failed"; }; \
	$$bench -duration 3s -net.mix snap >bench-snap.txt 2>&1 || { cat bench-snap.txt; die "mix snap bench failed"; }; \
	cat bench-a.txt bench-snap.txt; \
	need bench-snap.txt 'snapshot reads' "bench ran no snapshot reads"; \
	curl -sf http://$(SMOKE_OBS)/metrics >metrics.txt || die "/metrics never answered"; \
	curl -sf http://$(SMOKE_OBS)/debug/trace >trace.json || die "/debug/trace never answered"; \
	curl -sf http://$(SMOKE_OBS)/debug/contention >contention.json || die "/debug/contention never answered"; \
	need metrics.txt '^thedb_up 1' "thedb_up gauge missing from /metrics"; \
	need metrics.txt '^thedb_server_connections_total' "server counters missing from /metrics"; \
	need metrics.txt 'trace_id=' "no exemplar trace ID on the latency histogram"; \
	need metrics.txt '^thedb_snapshot_reads_total [1-9]' "no committed snapshot reads in /metrics"; \
	need metrics.txt '^thedb_mvcc_versions_installed_total [1-9]' "no versions installed in /metrics"; \
	need metrics.txt '^thedb_mvcc_versions_reclaimed_total [1-9]' "GC reclaimed no versions in /metrics"; \
	need metrics.txt '^thedb_plan_expansions_total [1-6]$$' "plan expansions not within 1..6 (the six YCSB procedures): a static plan is being re-expanded per transaction"; \
	awk '$$1 == "thedb_server_requests_total" { calls = $$2 } $$1 == "thedb_server_runs_total" { runs = $$2 } END { exit !(runs > 0 && calls > runs) }' metrics.txt \
		|| { grep '^thedb_server_r' metrics.txt; die "requests_total / runs_total is not above 1 after a pipelined load: calls are being handed to the dispatchers one at a time"; }; \
	need trace.json '"id"' "no traces retained on /debug/trace"; \
	need contention.json '"total"' "/debug/contention malformed"; \
	ok=; for i in $$(seq 1 20); do ls wal/checkpoint-*.ckpt >/dev/null 2>&1 && { ok=1; break; }; sleep 0.5; done; \
	test -n "$$ok" || { cat life1.log; die "no checkpoint published"; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	$$serve -wal.salvage -checkpoint.every 0 2>life2.log & pid=$$!; \
	up || { cat life2.log; die "restarted server never accepted calls"; }; \
	grep 'thedb-server: recovery' life2.log >recovery.txt || { cat life2.log; die "restart printed no recovery report"; }; \
	need recovery.txt '"checkpoint"' "restart did not load a checkpoint"; \
	kill -TERM $$pid; wait $$pid || { cat life2.log; die "server did not drain cleanly"; }; \
	cat recovery.txt; \
	echo "smoke: metrics, traces, contention, exemplars, snapshot reads and version GC exported; crash restart restored checkpoint + WAL tail; clean drain"

# examples builds and runs the three example programs: quickstart,
# banktransfer (healing under contention, money conserved) and recovery
# (WAL directory, online checkpoint, Boot, strict and salvage boot of a
# torn log). Each checks its own result and exits through log.Fatal on
# a wrong one. Then it pipes a scripted session into thedb-shell (set,
# get, txn, scan, stats, \events, \trace, \contention, then a set past
# the row's end, which must be refused and leave no row) and fails
# unless each command printed its line: the exact lines where the
# output is deterministic, the opening of the line for the dumps. CI
# runs it in the smoke job.
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./examples/... ./cmd/thedb-shell && \
	for ex in quickstart banktransfer recovery; do \
		echo "--- examples/$$ex"; "$$dir/$$ex" || exit 1; \
	done; \
	echo "--- cmd/thedb-shell"; \
	printf '%s\n' 'set KV 1 0 42' 'get KV 1' 'txn set KV 1 0 7; set KV 2 0 99' 'scan KV 0 10' stats '\events' '\trace' '\contention' \
		'set KV 5 3 9' 'get KV 5' \
		| "$$dir/thedb-shell" >"$$dir/shell.txt" || { cat "$$dir/shell.txt"; exit 1; }; \
	cat "$$dir/shell.txt"; \
	for line in 'thedb> ok (inserted)' 'thedb> KV[1] = [42]' 'thedb> ok' 'ok (inserted)' 'thedb> KV[1] = [7]' 'KV[2] = [99]' \
		'thedb> committed=4 restarts=0 aborted=0 heals=0' 'thedb> error: KV has no int column 3' 'thedb> KV[5] not found'; do \
		grep -qxF "$$line" "$$dir/shell.txt" || { echo "examples: thedb-shell printed no line '$$line'"; exit 1; }; \
	done; \
	for start in 'thedb> flight recorder: 4 events retained' 'thedb> traces: ' 'thedb> contention: top-16 of '; do \
		awk -v s="$$start" 'index($$0, s) == 1 { f = 1 } END { exit !f }' "$$dir/shell.txt" \
			|| { echo "examples: thedb-shell printed no line starting '$$start'"; exit 1; }; \
	done; \
	echo "examples: three examples and the thedb-shell session passed"

# paper runs every experiment of the paper's evaluation once at smoke
# scale (-quick, 2 workers, 20 ms cells: about 30 s on two CPUs) and
# fails unless each ID `thedb-bench list` names printed its `== id:`
# table, so no figure can stop running unseen. The numbers are noise
# at this scale; the tables' shapes are the check. CI runs it in the
# smoke job.
paper:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./cmd/thedb-bench && \
	"$$dir/thedb-bench" -quick -workers 2 -duration 20ms all >"$$dir/out.txt"; st=$$?; \
	cat "$$dir/out.txt"; test $$st -eq 0 || exit 1; \
	for id in $$("$$dir/thedb-bench" list | awk '{print $$1}'); do \
		grep -q "^== $$id: " "$$dir/out.txt" || { echo "paper: $$id printed no table"; exit 1; }; \
	done; \
	echo "paper: every experiment printed its table"

# net-chaos is the serving-plane torture (DESIGN.md §8.3): a client
# fleet drives disjoint workloads through the fault-injecting proxy
# (internal/netfault) at a WAL-backed server that is killed and
# restarted from its WAL mid-run, then diffs the final state against
# per-client sequential models, reconciles every ambiguous outcome and
# runs the serializability oracle over the whole multi-incarnation
# history. Always under -race; -short trims the 32-seed sweep. The
# dedup/session unit tests and the proxy's own tests ride along.
net-chaos:
	$(GO) test -race -run 'NetChaosTorture' .
	$(GO) test -race ./internal/netfault/ ./client/
	$(GO) test -race -run 'Dedup|Deadline|Restart' ./internal/server/

# recovery-torture is the model-vs-real crash-recovery sweep (DESIGN.md
# §8.2): 64 seeded lives, each crashing at a byte-budget instant mid
# WAL write or at one of the checkpoint writer's fault points
# (mid-write, pre-rename, post-rename, mid-truncate), then recovering
# from checkpoint + WAL tail and diffing the database against the
# sequential model. Always under -race; -short trims to 8 seeds.
recovery-torture:
	$(GO) test -race -run 'RecoveryTorture' .

# verify is the pre-merge gate: clean build, vet, and the full suite
# under the race detector (the crash-torture and concurrency tests are
# the point of -race here), then the nested benchmark module, which
# `./...` at the root does not reach: a root-API change must not stop
# the instrument compiling. Use `go test -short` for a quicker pass.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# pins re-runs the allocation ceilings and budgets without the race
# detector. verify runs every test under -race, where
# testing.AllocsPerRun also counts what the race runtime allocates, so
# a ceiling that passes there has not been checked where it means
# something. Each pin's doc comment names the hot-path functions it
# runs; `go build -gcflags=-m` names the allocation behind a red one.
# CI runs this right after verify.
pins:
	$(GO) test -run 'Alloc|Budget' ./...

# loc prints the size metrics ROADMAP.md tracks and CHANGES.md entries
# quote: Go lines (non-test outside benchmark/, the durability layer —
# internal/wal + internal/checkpoint + recovery.go — the serving plane —
# client + internal/server + internal/wire — the observability plane —
# internal/metrics + internal/obs — internal/analysis with its
# tests and fixtures, test, benchmark/) and the
# option counts — exported fields of the four configuration
# structs (thedb.Config, core.Options, server.Config, client.Options)
# and of the checkpointer's checkpoint.Options and checkpoint.Source.
# A one-line empty struct (type X struct{}) counts 0. Last, the byte
# sizes of DESIGN.md and CHANGES.md, the two docs ROADMAP.md sizes. CI
# runs it at the end of the verify job, so every PR's log carries its
# numbers.
lines = find $(1) -name '*.go' -print | xargs cat | wc -l
fields = awk '/^type $(2) struct[ \t]*\{[ \t]*\}/{exit} /^type $(2) struct/{on=1;next} on&&/^}/{exit} on&&/^\t[A-Z][A-Za-z0-9]*[ \t]/{n++} END{print n+0}' $(1)
loc:
	@echo "go lines, non-test, outside benchmark/: $$($(call lines,. -path ./benchmark -prune -o -path ./.bench_build -prune -o ! -name '*_test.go'))"
	@echo "go lines, non-test, internal/core:      $$($(call lines,internal/core ! -name '*_test.go')) (internal/proc: $$($(call lines,internal/proc ! -name '*_test.go')))"
	@echo "go lines, non-test, root package:       $$($(call lines,. -maxdepth 1 ! -name '*_test.go'))"
	@echo "go lines, non-test, internal/storage:   $$($(call lines,internal/storage ! -name '*_test.go'))"
	@echo "go lines, non-test, durability layer:   $$($(call lines,internal/wal internal/checkpoint recovery.go ! -name '*_test.go'))"
	@echo "go lines, non-test, observability:      $$($(call lines,internal/metrics internal/obs ! -name '*_test.go')) (internal/metrics: $$($(call lines,internal/metrics ! -name '*_test.go')))"
	@echo "go lines, non-test, serving plane:      $$($(call lines,client internal/server internal/wire ! -name '*_test.go')) (client + internal/server: $$($(call lines,client internal/server ! -name '*_test.go')))"
	@echo "go lines, internal/analysis (all .go):  $$($(call lines,internal/analysis))"
	@echo "go lines, tests, outside benchmark/:    $$($(call lines,. -path ./benchmark -prune -o -path ./.bench_build -prune -o -name '*_test.go'))"
	@echo "go lines, benchmark/:                   $$($(call lines,benchmark))"
	@echo "fields, thedb.Config:                   $$($(call fields,thedb.go,Config))"
	@echo "fields, core.Options:                   $$($(call fields,internal/core/engine.go,Options))"
	@echo "fields, server.Config:                  $$($(call fields,internal/server/server.go,Config))"
	@echo "fields, client.Options:                 $$($(call fields,client/client.go,Options))"
	@echo "fields, checkpoint.Options:             $$($(call fields,internal/checkpoint/checkpointer.go,Options))"
	@echo "fields, checkpoint.Source:              $$($(call fields,internal/checkpoint/checkpointer.go,Source))"
	@echo "bytes, DESIGN.md:                       $$(wc -c < DESIGN.md)"
	@echo "bytes, CHANGES.md:                      $$(wc -c < CHANGES.md)"

# pairs is the evidence for a claimed gain (choosing-metrics §8): N
# alternating runs of the parent commit and of the working tree on one
# workload, 16 s each, seeds SEED..SEED+N-1, with per-pair deltas, each
# side's median and quartiles, and the verdict (the change wins >= 9 of
# 10 pairs and the median gap exceeds the parent's IQR), then every
# end-to-end metric's medians against its bound. METRIC picks the
# metric the verdict judges (default txn_per_s). The parent is exported
# under .bench_build/pairs/; nothing under benchmark/ is edited.
PARENT ?= HEAD
WORKLOAD ?= ycsb-net-pipe
N ?= 10
SEED ?= 1
METRIC ?= txn_per_s
pairs:
	bash scripts/pairs.sh $(PARENT) $(WORKLOAD) $(N) $(SEED) $(METRIC)
