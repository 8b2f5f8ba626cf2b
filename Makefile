GO ?= go

.PHONY: tier1 clock build vet test race loc journals journals-diff verify-gate store design reconcile fuzz-smoke chaos sim obs bench bench-pipeline bench-check bench-generate bench-reconcile bench-telemetry bench-scale

# Tier-1 gate: what CI and reviewers run before merging.
tier1: verify-gate store design reconcile fuzz-smoke sim obs clock
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# One clock (DESIGN.md §14.2): an instance's timers, stamps and backoff
# all read the clock core.New resolves, so a VirtualClock decides every
# expiry. Twenty runs each under the race detector: the virtual clock's
# firing order and its Sleep; the commit-confirm grace expiring on a
# VirtualClock while Confirm and Rollback race it, in process and over
# TCP, and an explicit rollback that comes after a device's own timer
# rolled it back leaving it rolled back; §5.3's expiry end to end in core (every vendor-1 and vendor-2
# device back on its previous config once the grace lapses, no timer
# left, at deploy parallelism 1 and 8); New refusing a Reconcile.Clock
# that is not Options.Clock; and the job manager's one scheduler (Start
# on a VirtualClock, the live job set, the wall-clock smoke test).
clock:
	$(GO) test -race -count=20 -timeout 10m ./internal/vclock/
	$(GO) test -race -count=20 -timeout 10m -run 'TestPendingConfirmExpireRace|TestRemoteCommitConfirmExpiry|TestRollbackAfterNativeExpiryKeepsTheRollback' ./internal/deploy/
	$(GO) test -race -count=20 -timeout 10m -run 'TestCommitConfirmExpiresOnTheVirtualClock|TestNewRejectsASecondClock' ./internal/core/
	$(GO) test -race -count=20 -timeout 10m -run 'TestRunVirtualDeterministicCounts|TestStartStopRealTime|TestStartedManagerFollowsLiveJobSet' ./internal/monitor/

# Pre-deploy intent verification gate: the invariant checker's mutation
# tests (flip an ASN, leak a subnet, orphan a circuit, partition a
# switch) through a cold and a pre-warmed checker, the warm ≡ cold
# property over 200 seeded histories (model, violations, and the view the
# derivations read ≡ the store-scan oracle), the nesting-index ≡
# ipam-replay oracle, the design-rule differential (over the same 200
# histories the stored checks answer for every finding of the design
# tool's former rule checker, kept as the oracle, and flag nothing it
# sees and calls clean), the grammar differential (over the same 200
# histories every rendered config's ports and neighbor statements read
# alike by vendorcfg, the grammar the device applies a config with, and by
# the gate's former per-dialect regexes, kept as the oracle) and the
# three candidates those regexes passed and the device reads otherwise
# (TestGateReadsConfigsAsTheDeviceDoes), plus the end-to-end rejection
# contract (an incremental change and a turn-up alike), the turn-up contract (goldens
# before the first session, no check errors, every designed device rolled
# out) and the shared-model contracts (one rebuild, fail-closed) in core,
# under the race detector. See DESIGN.md §12. The gate checks what the generator
# hands it, and the generator's memo follows the gate's model, so it rides
# along: memo ≡ cold over 40 seeded histories (every device whose derived
# data a step changed re-derived, nothing on a repeat), the model reading
# each log entry once however many devices generate, and nothing cached
# unchecked under a racing writer (DESIGN.md §8).
verify-gate:
	$(GO) test -race -v -timeout 10m ./internal/verify/
	$(GO) test -race -timeout 5m -run 'TestVerifyGate|TestTurnUp' ./internal/core/
	$(GO) test -race -timeout 5m -run 'TestMemo|TestGenerateFollows|TestGeneratorConcurrentUse' ./internal/configgen/

# The store every follower tails, under the race detector: relstore's
# two-table-set protocol and row sharing (every committed row stored once,
# log entries never change, store ≡ naive model over seeded histories with
# a concurrent reader, replication and promotion — a pinned View's reads
# and Seq included, every row a View hands out still as it was read when
# the history ends, and a View releases its pin however it ends; DESIGN.md
# §13.2; a delete logs no SET NULL on a row it then removes), fbnet's
# reads of one epoch (an indexed Find or Get beside a writer never mixes
# two commits; every read, a mutation's too, hands out the stored row; a
# Find inside a mutation allocates what one outside does, and an object it
# read keeps its values when the mutation then updates the row; a scan on
# a value field of the scanned model reads it from the row and allocates
# a constant, with an answer sized by its matches), the
# planner (indexed ≡ scan, an Or of plannable branches planned as their
# union, one with a branch that would scan scanned once), the fbnet service that
# serves it over the wire, the thriftlite plan cache that service and the
# generator encode with (many goroutines on a cold cache get the bytes of a
# serial run), and the generator's memo, which follows the verify model
# that leans on ReadSeq — caching nothing it has not checked against the
# model's stamps, memo ≡ cold over seeded histories (-short), every column
# of every row flipped in turn with the model stamping every device whose
# derived data the flip changed, concurrent generation, and derivations
# that read the stored rows in place and leave every one as it was
# (DESIGN.md §8) — and the writer beside it: ipam's span index answering
# as the linear scan it replaced over seeded Allocate/Reserve/Free
# sequences.
store:
	$(GO) test -race -timeout 5m ./internal/relstore/ ./internal/fbnet/service/
	$(GO) test -race -timeout 5m -run 'TestFindReadsOneEpoch|TestReadsHandOutStoredRows|TestMutationReadsRowsInPlace|TestScanOnLocalFieldAllocatesPerReturnedRow|TestPlanner|TestQuickPlannerEquivalence' ./internal/fbnet/
	$(GO) test -race -timeout 5m -run 'TestPlansConcurrentOnColdCache|TestBadTagsRejected' ./internal/thriftlite/
	$(GO) test -race -timeout 5m -run 'TestMemoNeverCachesUnchecked|TestGeneratorConcurrentUse|TestDeriveLeavesStoredRowsUntouched|TestModelStampsWhatDerivationsRead' ./internal/configgen/
	$(GO) test -race -short -timeout 5m -run 'TestMemoEqualsColdOverRandomHistories' ./internal/configgen/
	$(GO) test -race -timeout 5m -run 'TestSpansAnswerAsTheLinearScan' ./internal/ipam/

# The design tools' write path under the race detector: the write-set
# golden (every design op's FBNet rows, in binlog order, and pool
# allocations over one scripted history, against
# internal/design/testdata/design_writes.golden), one delete logging the
# same entries on ten fresh stores and no update of a row it deletes,
# find-or-create racing on a new name, concurrent design changes
# serializing, and the gate's design differential over 200 seeded
# histories (the stored checks answer for every finding of the former
# design rule checker; DESIGN.md §12).
design:
	$(GO) test -race -timeout 5m -run 'TestDesignWritesGolden|TestDeletesLogTheSameEntries|TestDeletesUpdateNoRowTheyRemove|TestEnsureRacesCreateOnce|TestConcurrentDesignChangesSerialize' ./internal/design/
	$(GO) test -race -timeout 10m -run 'TestGateCoversDesignRules' ./internal/verify/

# The drift reconciler under the race detector: the per-shard safety
# budget and breaker (a storm trips only its own shard, in-flight
# remediations never exceed the budget), paced drain on reset, flap
# damping and quarantine, the check-error and transport retry queues, and
# journal replay — a reconciler killed after any step of 200 seeded
# histories and rebuilt by ResumeFromJournal ends with the journal, states
# and stats of the run that was never killed (DESIGN.md §16) — and the
# remediation window: remediations due at one instant run through a
# window of P devices, admitted and settled in queue order, so the
# journal at P = 8 is the journal at P = 1 with its remediate events
# moved earlier (the P = 1 ≡ P = 8 property, over seeded storm
# histories and, in internal/core, a 12-device storm through the real
# pipeline; DESIGN.md §9).
reconcile:
	$(GO) test -race -timeout 5m ./internal/reconcile/
	$(GO) test -race -timeout 5m -run 'TestDriftStormRemediatesConcurrently' ./internal/core/

# Native fuzz targets, a few seconds each (go test -fuzz takes one target
# per run). A crasher is written to the package's testdata/fuzz and fails
# the run; the corpus cache stays in the Go build cache. FuzzCompute holds
# confdiff.Compute, which splits only the middle of the new config, to the
# Diff of both configs split whole; FuzzDeviceDiff holds netsim's native
# compare and vendor-2 syntax check, which read lines in place, to the
# split-based versions they replaced, kept in the test file.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzContainsAddr$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzParseCircuitEnd$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzScanConfig$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/thriftlite/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/tmpl/
	$(GO) test -run '^$$' -fuzz '^FuzzReparse$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -run '^$$' -fuzz '^FuzzIndexDiff$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -run '^$$' -fuzz '^FuzzDeviceDiff$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -run '^$$' -fuzz '^FuzzCompute$$' -fuzztime $(FUZZTIME) ./internal/confdiff/

# Each drill's deterministic run record, one file per drill:
#   make journals DIR=/tmp/journals-new
# Build the parent commit's tree the same way into another directory, and
# `diff -r` the two to see what a change did to the drills (DESIGN.md
# §14.2, §14.4).
journals:
	@test -n "$(DIR)" || { echo "usage: make journals DIR=<directory>" >&2; exit 2; }
	mkdir -p $(DIR)
	$(GO) build -o $(DIR)/.robotron ./cmd/robotron
	for f in examples/scenarios/*.yaml; do \
		$(DIR)/.robotron sim run -journal $$f > $(DIR)/$$(basename $$f .yaml).journal || exit 1; \
	done
	rm -f $(DIR)/.robotron

# The drills' journals of the working tree against those of another
# revision, byte for byte:
#   make journals-diff REV=<rev>
# unpacks `git archive REV` into a temporary directory, runs `make
# journals` there and here, and `diff -r`s the two sets: the exit status
# is non-zero when they differ. REV's Makefile must have the journals
# target.
journals-diff:
	@test -n "$(REV)" || { echo "usage: make journals-diff REV=<rev>" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/src" && git archive $(REV) | tar -x -C "$$tmp/src" && \
	$(MAKE) --no-print-directory -s -C "$$tmp/src" journals DIR="$$tmp/old" && \
	$(MAKE) --no-print-directory -s journals DIR="$$tmp/new" && \
	diff -r "$$tmp/old" "$$tmp/new" && echo "journals-diff: identical to $(REV)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines in the tree: "net lines removed is a reported metric"
# (ROADMAP), and this is the command that reports it.
loc:
	@git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l

# Chaos suite: the fleet-scale fault-injection soak (64 devices, 4 fault
# kinds on a fixed seed, convergence-or-quarantine acceptance) plus the
# /metrics scrape check, under the race detector. See DESIGN.md §11.
# examples/scenarios/ambiguous-commit-chaos.yaml (run by `make sim`) drills
# the same faults on one goroutine for a byte-stable journal; only this
# soak runs *parallel* deploys and remediations against the fault engine,
# so it is where the race detector meets the chaos path. The soak runs on
# a VirtualClock, where remediations ran one at a time until the
# reconciler's window (DESIGN.md §9); its storms now remediate up to 8
# devices at once.
chaos:
	$(GO) test -race -v -timeout 10m ./internal/chaos/

# Scenario harness: static-validate and execute every example scenario
# under the race detector (the engine tests double-run each for
# byte-identical journals), the CLI's own tests (usage, exit codes,
# golden listing), then every drill through the CLI entry point.
# See DESIGN.md §14 and README "Writing scenarios".
sim:
	$(GO) test -race -timeout 10m ./internal/scenario/
	$(GO) test -race -timeout 5m ./cmd/robotron/
	$(GO) run -race ./cmd/robotron sim validate examples/scenarios/*.yaml
	$(GO) run -race ./cmd/robotron sim run examples/scenarios/*.yaml

# Intent-derived observability: the alarm engine, job/rule derivation,
# and correlation tests under the race detector, the observed-state write
# rule (the `Derive` pattern also selects the TestDerived* tests: Derived
# tables ≡ latest observation over seeded histories in monitor, with the
# in-place verdict ≡ a rolled-back transaction and a re-plan after a
# racing commit; the memo's in-place compare of a collection ≡ building
# its observation and comparing that, over seeded collections of the four
# data types (`TestDerivedCompareInPlaceEqualsObserve`); the unchanged
# path's no-commit and zero-allocation guard; the steady-cycle binlog and
# transaction counters in core; DESIGN.md §15.5), the timeline's kept
# store read ≡ a cold engine's read over seeded histories with outages and
# a promotion, and no query while both tables stand
# (`TestTimelineReuseEqualsColdRead`, §15.3), CollectOnce running the
# installed jobs in place ≡ RunOnce of them (`TestCollectOnceEqualsRunOnce`
# in core: series, binlog, backups, poll counts and alarms; §15.6),
# the zero-allocation store into full time series (`Timeseries`), a pass
# by delta through held series handles and the last session read ≡ a
# pass over every rule that reads everything afresh, over seeded
# histories with new devices, two engines, outages and a failover, the
# rules-evaluated and queries-planned guards, and the session read kept
# per server, and two engines reading beside writers (`TestAlarmDelta*`,
# `TestEvaluate*`, `TestSessionRead*`, `TestAlarmEnginesReadBesideWriters`,
# and in core `TestAlarmsEvaluate*`; DESIGN.md §15.2), the engine tier's width 8 ≡
# width 1 over seeded fleets with devices down and config reads faulted
# (`TestEngineTier*`: collections, series, Derived binlog, backups, poll
# counts and alarms; DESIGN.md §15.6), the HTTP/CLI
# parity contract and the derive-without-store-reads contract in core,
# delta ≡ cold for what DeriveMonitoring, SyncFleet and ApplyRecabling keep
# by visiting only what a design change touched (TestDelta*: jobs, rules,
# alarm states and the fleet over seeded histories; TestDerive*: the
# re-derived device counts, and the cold answer after a wholesale swap;
# DESIGN.md §12 "Who follows the model"), then the end-to-end drill —
# drift cuts psw1's addresses, the derived bgp-session-down alarm fires
# correlated with the causing config-changed event, and resolves after
# reconciliation. See DESIGN.md §15 and README "Operational timeline".
# One registry (DESIGN.md §10): a fresh instance's commit counter holds the
# standard-hardware transaction and the job manager's and generator's
# stats are the registry's counters (TestCountsFromConstruction), every
# family a drill exports has HELP, and a promoted master counts its
# commits, and the replicas a promotion rebuilt report lag and health, on
# the registry the service deployment was built with.
obs:
	$(GO) test -race -timeout 5m \
		-run 'Alarm|Derive|ReplaceJobs|Timeseries|Timeline|Correlation|Classifier|Evaluate|SessionRead|EngineTier' \
		./internal/monitor/
	$(GO) test -race -timeout 5m -run 'TestObs|TestAlarms|TestDerive|TestDelta|TestCountsFromConstruction|TestCollectOnce' ./internal/core/
	$(GO) test -race -timeout 5m -run 'TestEveryExportedFamilyHasHelp' ./internal/scenario/
	$(GO) test -race -timeout 5m -run 'TestMasterDeathDegradedReadsThenPromotion' ./internal/fbnet/service/
	$(GO) run -race ./cmd/robotron sim run examples/scenarios/bgp-down-alarm-correlated.yaml

# Paper-evaluation and system benchmarks (Figures 12-16, Tables 2-3,
# materialization, provisioning, parallel deployment), plus the per-stage
# microbenchmark streams below. The benchmark of record is bench-pipeline.
bench: bench-generate bench-reconcile bench-telemetry bench-scale
	$(GO) test -bench=. -benchmem .

# The benchmark of record (BENCHMARK.json, bench/README.md): the four
# intent-to-converged workloads, untraced, through the command the driver
# runs. Result lines are appended to $(OUT)/results.json; point OUT
# outside the repository.
OUT ?= /tmp/robotron-bench
SEED ?= 1
bench-pipeline:
	for w in rack-churn backbone-churn drift-storm monitor-outage; do \
		bash bench/run.sh -workload $$w -seed $(SEED) -seconds 20 -trace 0 -out $(OUT) || exit 1; \
	done

# Compare two result files from bench-pipeline runs (say, of the parent
# commit and of a change): medians, quartile spread and BENCHMARK.json's
# bounds per workload and metric; exits 1 on a regression.
#   make bench-check OLD=/tmp/parent/results.json NEW=/tmp/change/results.json
bench-check:
	$(GO) run ./bench compare $(OLD) $(NEW)

# Generation + deployment pipeline benchmarks (serial vs parallel vs
# memoized site generation, planner indexed-vs-scan, deploy engine),
# captured as a go-test JSON event stream for trend tracking.
bench-generate:
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkGenerateSite|BenchmarkGenerateDevice|BenchmarkPlanner' \
		./internal/configgen/ ./internal/fbnet/ > BENCH_generate.json
	$(GO) test -json -run '^$$' -benchmem -bench . ./internal/deploy/ >> BENCH_generate.json
	@grep -h '"Output".*ns/op' BENCH_generate.json | sed 's/.*"Output":"//;s/\\n"}//;s/\\t/\t/g'

# Reconciliation-loop benchmark: time-to-convergence when the whole
# fleet drifts at once, vs fleet size (8/64/256), captured as a go-test
# JSON event stream for trend tracking, then the storm sizes
# (256/4096/16384) in `global` vs `sharded` mode. The `global` rows are
# the one-shard case (the whole fleet is one site), `sharded` spreads it
# over 64 sites. ROBOTRON_BENCH_LARGE=1 unlocks the 16384 rows.
bench-reconcile:
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkReconcileConverge' \
		./internal/reconcile/ > BENCH_reconcile.json
	ROBOTRON_BENCH_LARGE=1 $(GO) test -json -run '^$$' -benchmem -timeout 30m \
		-bench 'BenchmarkScaleReconcileConverge' \
		./internal/reconcile/ >> BENCH_reconcile.json
	@grep -h '"Output".*ns/op' BENCH_reconcile.json | sed 's/.*"Output":"//;s/\\n"}//;s/\\t/\t/g'

# Telemetry benchmarks: registry primitives (counter/histogram/span,
# Prometheus export) and the end-to-end overhead of instrumented vs
# detached generation, captured as a go-test JSON event stream.
bench-telemetry:
	$(GO) test -json -run '^$$' -benchmem -bench . ./internal/telemetry/ > BENCH_telemetry.json
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkTelemetryOverhead' \
		./internal/configgen/ >> BENCH_telemetry.json
	$(GO) test -json -run '^$$' -benchmem \
		-bench 'BenchmarkAlarmEvaluate' \
		./internal/monitor/ >> BENCH_telemetry.json
	@grep -h '"Output".*ns/op' BENCH_telemetry.json | sed 's/.*"Output":"//;s/\\n"}//;s/\\t/\t/g'

# Hot-path scale benchmarks (DESIGN.md §13): incremental fleet recompute,
# lock-free relstore epoch reads, zero-alloc template rendering, the
# reconcile loop, and the delta-driven verify gate (§12), at fleet/table
# sizes 256/4096/16384 plus a 100k-device recompute microbench.
# ROBOTRON_BENCH_LARGE=1 unlocks the 16384 and 100k sizes, which the
# per-package default runs skip.
bench-scale:
	ROBOTRON_BENCH_LARGE=1 $(GO) test -json -run '^$$' -benchmem -timeout 30m \
		-bench 'BenchmarkScale' \
		./internal/netsim/ ./internal/relstore/ ./internal/configgen/ ./internal/reconcile/ ./internal/verify/ > BENCH_scale.json
	@grep -h '"Output".*ns/op' BENCH_scale.json | sed 's/.*"Output":"//;s/\\n"}//;s/\\t/\t/g'
