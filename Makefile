# Tier-1 verification and developer targets for the Mether reproduction.
#
#   make ci            - everything the tier-1 gate runs: format check, vet,
#                        tests, race tests, smoke sweep, a bench smoke pass,
#                        a 16-host cluster smoke sweep (which also gates
#                        the engine on an allocs/event ceiling of 0.1),
#                        the nested bench/ module's own vet and short tests,
#                        the committed-report comparison (golden) and the
#                        32-bit smoke run against it (wordsize).
#                        Each stage ends with a machine-readable
#                        "CI-STAGE <name>: PASS|FAIL" line so the GitHub
#                        Actions log is scannable at a glance.
#   make test          - go build + go test ./...
#   make race          - go test -race ./...
#   make smoke         - a fast cross-section sweep through cmd/methersweep
#   make sweep         - the full paper grid at scale 1024 (slow)
#   make cluster       - the 16/64/256-host cluster grid incl. the loss,
#                        kernel-server and multi-trunk topology axes (slow)
#   make cluster-large - the 1024-host tier of the cluster grid (slower;
#                        kept out of `make cluster` so bench records stay
#                        comparable across PRs)
#   make cluster-xl    - the 10000-host windowed flyweight tier: one
#                        stationary cell with working-set attach, lazy
#                        replica materialization and fan-in-sized rx
#                        rings; writes cluster-xl.json so the nightly
#                        workflow can upload the report
#   make bench-module  - vet and short-test the nested bench/ module, which
#                        the root module's ./... patterns cannot see: an
#                        internal/... API change that breaks the benchmark
#                        fails here instead of at the next benchmark run
#   make golden        - "byte-identical report" is the repo's contract, so
#                        compare some: the smoke grid as JSON and CSV, the
#                        all grid (Figures 4-9, the kernel, loss and
#                        hysteresis ablations) and the 16-host cluster grid
#                        as JSON and metherbench, each cmp'd against the
#                        file committed under testdata/golden/
#                        (EXPERIMENTS.md for the last)
#   make golden-update - regenerate those files after an intended change
#   make wordsize      - methersweep built for a 32-bit target (GOARCH=386)
#                        must print the smoke grid's golden CSV, less the
#                        mem_bytes and bytes_per_host columns, which count
#                        pointers: a report may not depend on the width
#                        of int
#   make bench         - the hot-path microbenchmarks (kernel dispatch incl.
#                        the 4096-deep timer population, three timers far
#                        apart and a 96-timer burst, 95 coalesced
#                        callbacks at one instant and the coalescing
#                        call that merges nothing, a look skipped in the
#                        repeat lane and a lane window of 2 and of 64
#                        runs, process steps with
#                        no hand-off, one between two processes and one
#                        round a fan of 96, park/wake, host
#                        sleep/wake, the wake of an empty queue and
#                        quantum rotation, sleep/wake and a charge for a
#                        host task, a scheduler-run poll on a bare host and
#                        through the driver, bus broadcast, a 96-port
#                        fabric broadcast landed and drained, every
#                        port's first broadcast on a fresh 96-port
#                        fabric, the
#                        server's snoop of one broadcast, full counter
#                        runs, building the 1024-host windowed world,
#                        per host)
#                        plus the figure benchmarks at reduced scale
#   make fuzz          - [FUZZTIME=10s] run each native fuzz target (proto's
#                        FuzzDecode, fault's FuzzParse, sim's FuzzKernel,
#                        which plays kernel scripts drawn from its input
#                        against the reference kernel, medium's
#                        FuzzMedium, which plays Ethernet and fabric
#                        scripts against the reference medium, host's
#                        FuzzHost, which plays scheduler worlds against
#                        the reference scheduler, and sweep's
#                        FuzzScenario, which runs the small sweep cell
#                        its input draws and fails on a panic or a
#                        wrapped op count; the last four read their
#                        input as an internal/choice tape) for
#                        FUZZTIME. Not a ci stage: `go test` already runs
#                        every target's seed corpus, this mutates it. A
#                        failure leaves its input under the package's
#                        testdata/fuzz/, to be fixed and committed as a
#                        regression seed; a failing spec seed prints its
#                        shrunk tape as such a file
#   make bench-smoke   - the microbenchmarks once (-benchtime=1x), as CI runs them
#   make bench-pair    - PARENT=<checkout of the parent commit> [PAIRS=10]
#                        [SECONDS=16] [SEED0=n] [WORKLOADS="w ..."]: the paired
#                        measurement a perf claim is made with. Builds bench/
#                        in both trees, alternates the two binaries in the
#                        driver's form on seeds it prints, and reports per
#                        workload and end-to-end metric the parent's median
#                        [q1, q3] -> the change's, per cent, pairs ahead;
#                        fails when a run failed or events_total or a
#                        sim_* metric differs within a pair (a pair that
#                        differs only in the report digest prints a note)
#   make same-reports  - PARENT=<checkout of the parent commit> [FULL=1]
#                        [FALLS=f,...]: the report gate of a change meant to
#                        move no report byte. Builds cmd/methersweep in both
#                        trees, renders JSON and CSV of -grid smoke, -grid
#                        all and -grid cluster -hosts 64 (and, with FULL=1,
#                        the full -grid cluster, 879 483 901 events, and
#                        its 1024-host rung, -grid cluster -hosts 1024,
#                        49 307 441 events, the only rung where a ring
#                        bound sizes bridge ports and fault.Churn runs:
#                        about 4 min more on two workers), cmp's each pair
#                        and prints each grid's event total; fails on any
#                        difference. FALLS (e.g.
#                        mem_bytes,bytes_per_host for a footprint change)
#                        lets the listed fields fall or appear, and drops
#                        their CSV columns from the comparison; a listed
#                        field that rose still fails. Not a ci stage: it
#                        needs a parent checkout
#   make gate-cover    - [FULL=1] [PARENT=<checkout of the parent commit>]:
#                        what the report gate exercises. Builds methersweep
#                        and metherbench with -cover -coverpkg=./..., runs
#                        what `make golden` renders plus -grid cluster
#                        -hosts 64 (and the full cluster grid and its
#                        1024-host rung with FULL=1, about 3 min in all)
#                        and prints the statement coverage per package,
#                        the total and every non-test function no run
#                        reaches; with PARENT, only the functions with
#                        lines changed since the parent that no run
#                        reaches, with how many changed statement lines
#                        each leaves unrun. Not a ci stage
#   make loc           - non-test Go lines outside bench/ (tracked files
#                        only), per directory and in total: the one
#                        number simplicity PRs report, computed one way
#                        (13 910 at PR 16, 13 749 at PR 17, 14 046 at PR 19)
#                        and, beside it, the test Go lines likewise
#   make profile       - run one named cell (CELL=<name substring>, any cell
#                        of GRID, default the bridged 256-host hotspot) under CPU and
#                        heap profiling, then print `go tool pprof -top` for
#                        both profiles (cpu.pprof / mem.pprof are left on
#                        disk for interactive pprof sessions)

GO ?= go

MICROBENCH = BenchmarkKernelDispatch|BenchmarkKernelDispatchImmediate|BenchmarkKernelDispatchDeep|BenchmarkKernelDispatchSpread|BenchmarkKernelDispatchBurst|BenchmarkKernelCoalescedFanout|BenchmarkKernelCoalescedMiss|BenchmarkKernelLaneSkip|BenchmarkKernelLaneWindow2|BenchmarkKernelLaneWindow64|BenchmarkKernelScheduleCancel|BenchmarkProcSleepSolo|BenchmarkProcPingPong|BenchmarkProcFanResume|BenchmarkProcParkWake|BenchmarkHostSleepWake|BenchmarkHostWakeupMiss|BenchmarkHostUseWhile|BenchmarkHostQuantumRotation|BenchmarkHostTaskSleepWake|BenchmarkHostTaskUse|BenchmarkBusBroadcast|BenchmarkFabricFanout|BenchmarkFabricFanoutCold|BenchmarkServerSnoop|BenchmarkSpin32|BenchmarkCounterRun|BenchmarkWorldBuild

.PHONY: ci ci-stage fmt-check vet test race fuzz smoke bench-module golden golden-write golden-update wordsize cluster-smoke cluster-large cluster-xl sweep cluster bench bench-smoke bench-pair same-reports gate-cover loc profile

# Each CI stage runs through ci-stage so the log carries exactly one
# machine-readable verdict line per stage, pass or fail.
CI_STAGES = fmt-check vet test race smoke bench-smoke cluster-smoke bench-module golden wordsize

ci:
	@for s in $(CI_STAGES); do \
		$(MAKE) --no-print-directory ci-stage STAGE=$$s || exit 1; \
	done

ci-stage:
	@if $(MAKE) --no-print-directory $(STAGE); then \
		echo "CI-STAGE $(STAGE): PASS"; \
	else \
		echo "CI-STAGE $(STAGE): FAIL"; exit 1; \
	fi

# Scoped to tracked files so vendored or scratch directories can never
# break (or sneak past) the format gate.
fmt-check:
	@out="$$(git ls-files '*.go' | xargs gofmt -l)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzKernel -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzMedium -fuzztime $(FUZZTIME) ./internal/medium
	$(GO) test -run '^$$' -fuzz FuzzHost -fuzztime $(FUZZTIME) ./internal/host
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime $(FUZZTIME) ./internal/sweep

smoke:
	$(GO) run ./cmd/methersweep -grid smoke -format summary

cluster-smoke:
	$(GO) run ./cmd/methersweep -grid cluster -hosts 16 -alloc-ceiling 0.1 -format summary

# bench/ is a module of its own (mether/bench, replace mether => ../),
# so nothing above compiles it. -short skips the one test that builds
# and runs the benchmark binary.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The pinned reports, written into OUT. All five are deterministic: no
# real-time value enters a report, and metherbench prints none.
GOLDEN_DIR = testdata/golden

golden-write:
	$(GO) run ./cmd/methersweep -q -grid smoke -format json -o $(OUT)/smoke.json
	$(GO) run ./cmd/methersweep -q -grid smoke -format csv -o $(OUT)/smoke.csv
	$(GO) run ./cmd/methersweep -q -grid all -format json -o $(OUT)/all.json
	$(GO) run ./cmd/methersweep -q -grid cluster -hosts 16 -format json -o $(OUT)/cluster-h16.json
	$(GO) run ./cmd/metherbench > $(OUT)/EXPERIMENTS.md

# Rendered into a git-ignored scratch directory, removed again whether
# the comparison passes or not.
GOLDEN_OUT ?= .golden-out

golden:
	@rm -rf $(GOLDEN_OUT) && mkdir -p $(GOLDEN_OUT) && trap 'rm -rf $(GOLDEN_OUT)' EXIT && \
	$(MAKE) --no-print-directory golden-write OUT=$(GOLDEN_OUT) && \
	for f in smoke.json smoke.csv all.json cluster-h16.json; do \
		cmp $(GOLDEN_DIR)/$$f $(GOLDEN_OUT)/$$f || exit 1; done && \
	cmp EXPERIMENTS.md $(GOLDEN_OUT)/EXPERIMENTS.md

golden-update:
	$(MAKE) --no-print-directory golden-write OUT=$(GOLDEN_DIR)
	mv $(GOLDEN_DIR)/EXPERIMENTS.md EXPERIMENTS.md

# Both CSVs are cut to the golden header's columns other than the two
# pointer-counting ones. The cut splits on every comma, so a quoted
# comma before those columns would fail the stage, never pass it.
WORDSIZE_OUT ?= .wordsize-out

wordsize:
	@rm -rf $(WORDSIZE_OUT) && mkdir -p $(WORDSIZE_OUT) && trap 'rm -rf $(WORDSIZE_OUT)' EXIT && \
	GOARCH=386 $(GO) build -o $(WORDSIZE_OUT)/methersweep ./cmd/methersweep && \
	$(WORDSIZE_OUT)/methersweep -q -grid smoke -format csv -o $(WORDSIZE_OUT)/smoke.csv && \
	cols=$$(head -1 $(GOLDEN_DIR)/smoke.csv | tr , '\n' | grep -nvxE 'mem_bytes|bytes_per_host' | cut -d: -f1 | paste -sd, -) && \
	cut -d, -f$$cols $(GOLDEN_DIR)/smoke.csv > $(WORDSIZE_OUT)/want.csv && \
	cut -d, -f$$cols $(WORDSIZE_OUT)/smoke.csv > $(WORDSIZE_OUT)/got.csv && \
	cmp $(WORDSIZE_OUT)/want.csv $(WORDSIZE_OUT)/got.csv

cluster-large:
	$(GO) run ./cmd/methersweep -grid cluster -hosts 1024 -format summary

# The report is written to disk (JSON, not summary) so the nightly
# workflow can attach it: the 10k-host cell's numbers — mem_bytes,
# bytes_per_host, ring high-water, latency tails — are the point of
# running it.
XL_REPORT ?= cluster-xl.json

cluster-xl:
	$(GO) run ./cmd/methersweep -grid cluster -hosts 10000 -format json -o $(XL_REPORT)
	@echo "wrote $(XL_REPORT)"

sweep:
	$(GO) run ./cmd/methersweep -grid paper -target 1024 -format summary

cluster:
	$(GO) run ./cmd/methersweep -grid cluster -format summary

bench:
	$(GO) test -run - -bench '$(MICROBENCH)' ./internal/sim ./internal/host ./internal/ethernet ./internal/fabric ./internal/core ./internal/protocols .
	$(GO) test -run - -bench BenchmarkFigures -benchtime 1x .

bench-smoke:
	$(GO) test -run - -bench '$(MICROBENCH)' -benchtime 1x ./internal/sim ./internal/host ./internal/ethernet ./internal/fabric ./internal/core ./internal/protocols .

# SEED0 empty lets the script take its first seed from the clock.
PAIRS ?= 10
SECONDS ?= 16
SEED0 ?=

bench-pair:
	@sh scripts/bench-pair.sh '$(PARENT)' '$(PAIRS)' '$(SECONDS)' '$(SEED0)' $(WORKLOADS)

FULL ?=
FALLS ?=

same-reports:
	@sh scripts/same-reports.sh '$(PARENT)' '$(FULL)' '$(FALLS)'

gate-cover:
	@sh scripts/gate-cover.sh '$(FULL)' '$(PARENT)'

# Raw lines (comments and blanks included) of tracked Go files outside the
# frozen bench/ module, summed per directory: non-test files, then tests.
loc:
	@printf '%6s %6s %s\n' code test dir; \
	git ls-files '*.go' | grep -v '^bench/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; c = !sub("_test\\.go$$", "", d); if (!sub("/[^/]*$$", "", d)) d = "."; \
			seen[d] = 1; if (c) { n[d] += $$1; tn += $$1 } else { m[d] += $$1; tm += $$1 } } \
		END { for (d in seen) printf "%6d %6d %s\n", n[d], m[d], d; printf "%6d %6d total\n", tn, tm }' | sort -k3

# Profile one cell: make profile CELL=cluster/barrier/h16 narrows GRID
# to the scenarios whose name CONTAINS CELL (methersweep -only, a
# substring — a prefix like cluster/hotspot/h256 profiles that cell
# plus its kernel/loss/topology variants as one blended run) and runs
# the selection under -cpuprofile/-memprofile. The default names the
# bridged 256-host hotspot exactly, so bare `make profile` captures a
# single cell.
GRID ?= cluster
CELL ?= cluster/hotspot/h256/t2-star

profile:
	$(GO) run ./cmd/methersweep -grid $(GRID) -only '$(CELL)' \
		-cpuprofile cpu.pprof -memprofile mem.pprof -format summary
	$(GO) tool pprof -top -nodecount 25 cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space mem.pprof
