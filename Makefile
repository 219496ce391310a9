# latlab — reproduction of "Using Latency to Evaluate Interactive System
# Performance" (OSDI '96). Standard targets:

GO ?= go

# Hot-path benchmarks gated against committed BENCH_<date>.json
# baselines. Runs fold BENCH_COUNT repeats per benchmark so benchgate
# records a variance; a regression must exceed the fractional floor
# AND be statistically significant at 95% to fail. The ns/op floor is
# wide by default because shared hosts drift through minutes-scale
# load regimes ±25% — tighten it (BENCH_NS_TOL=0.10) on quiet
# dedicated hardware. allocs/op and B/op are deterministic, so their
# floor stays tight; they are the reliable regression tripwires
# everywhere.
BENCH_GATE_PAT  = ^(BenchmarkSimulatorThroughput|BenchmarkBoot|BenchmarkRunCells|BenchmarkThreadHandshake|BenchmarkWinsysCall|BenchmarkExtraction|BenchmarkSchedulePop|BenchmarkLRUTouch|BenchmarkLRUTouchTLB|BenchmarkTouchPages|BenchmarkWriteIdleCSV|BenchmarkSketchAdd)$$
BENCH_GATE_PKGS = . ./internal/eventq ./internal/mem ./internal/trace ./internal/stats
BENCH_NS_TOL    ?= 0.25
BENCH_ALLOC_TOL ?= 0.10
BENCH_COUNT     ?= 5
BENCH_RETRIES   ?= 3

# Coverage floor (percent) for the hardware-profile layer: the packages
# a machine.Profile threads through, plus the perception layer that
# interprets what they measure, must stay well exercised.
COVER_PKGS   = ./internal/machine ./internal/cpu ./internal/mem ./internal/disk ./internal/perception
COVER_FLOOR ?= 85

.PHONY: all build vet test race bench-smoke verify bench bench-baseline bench-check cover doclint fuzz-smoke campaign-check campaign-demo repro quick examples clean

all: build verify

build:
	$(GO) build ./...

# go vet, then gofmt: the gate fails if gofmt would rewrite any tracked
# .go file.
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go') && out=$$(gofmt -l $$files) && \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

test: verify

race:
	$(GO) test -race ./...

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# neither vet nor race builds it. Vet it and run its smoke test under
# the race detector, as bench/README.md documents: a change to latlab
# that the frozen module cannot build against, such as a go line it does
# not share or a symbol it still calls, fails here.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# The CI gate: vet (with the gofmt check) plus the full suite under the
# race detector (the runner is concurrent, so a plain `go test` can miss
# real bugs) and the benchmark module's smoke test, then the benchmark
# regression gate and a short fuzz of the parsers and differential
# checks (see fuzz-smoke). The race run is
# also the corpus and modern-chapter gate: TestCorpusGolden,
# TestCorpusGoldenBatched, TestRunCorpus,
# TestScenarioTwinsMatchGoRegistered (quick and full mode),
# TestGoldenQuick/ext-modern-* and TestModernChapter all run there.
# Set LATLAB_SKIP_BENCH=1 to skip the benchmark gate (e.g. on loaded or
# incomparable hardware), LATLAB_SKIP_COVER=1 to skip the coverage
# floor, LATLAB_SKIP_FUZZ=1 to skip the fuzz smoke,
# LATLAB_SKIP_DOCLINT=1 to skip the documentation lint, and
# LATLAB_SKIP_CAMPAIGN=1 to skip the campaign-ledger replay.
# The campaign determinism and crash-safety tests themselves run under
# -race via the race target above.
verify: vet race bench-smoke
	@if [ -z "$$LATLAB_SKIP_DOCLINT" ]; then \
		$(MAKE) --no-print-directory doclint; \
	else \
		echo "doclint skipped (LATLAB_SKIP_DOCLINT set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_COVER" ]; then \
		$(MAKE) --no-print-directory cover; \
	else \
		echo "cover skipped (LATLAB_SKIP_COVER set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_BENCH" ]; then \
		$(MAKE) --no-print-directory bench-check; \
	else \
		echo "bench-check skipped (LATLAB_SKIP_BENCH set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_FUZZ" ]; then \
		$(MAKE) --no-print-directory fuzz-smoke; \
	else \
		echo "fuzz-smoke skipped (LATLAB_SKIP_FUZZ set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_CAMPAIGN" ]; then \
		$(MAKE) --no-print-directory campaign-check; \
	else \
		echo "campaign-check skipped (LATLAB_SKIP_CAMPAIGN set)"; \
	fi

# Documentation gate: every internal package needs a package comment and
# docs on its exported symbols, and every markdown link must resolve.
doclint:
	$(GO) run ./cmd/doclint

# Enforce the statement-coverage floor on the hardware-profile packages.
# Fails if any package dips below COVER_FLOOR percent or if a package
# stops being counted (e.g. its tests were deleted).
cover:
	@out=$$($(GO) test -cover $(COVER_PKGS)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { n++; pct = $$5; sub(/%/, "", pct); \
			if (pct + 0 < floor) { printf "cover: %s below floor %d%%\n", $$2, floor; bad = 1 } } \
		END { if (n < 5) { printf "cover: expected 5 covered packages, saw %d\n", n; exit 1 }; exit bad }'

# 10 seconds of coverage-guided fuzzing per fuzzer: the idle and
# attribution CSV parsers, the ledger and quarantine JSONL parsers, the
# scenario DSL, the differential event-queue check
# (the heap queue vs a test-only linear-scan oracle on random
# schedule/reserve/pop programs), the differential think/wait check
# (the probe's online FSM with its transition count vs a test-only log-keeping FSM on random
# firing-order hook streams), and the
# differential LRU check (the run-based TLB/cache LRU vs a test-only
# per-id oracle on random touch/insert/evict/flush and page-list
# streams), and
# the differential kernel-loop check (a random script whose runs of
# reply-free primitives are lent to the kernel through TC.Loop, with
# the body's GetMessage, PeekMessage and Forward calls between them, vs
# every primitive issued one by one, under ticks, keystrokes,
# preemption and disk faults), and the differential idle-elision check
# (random sleep/compute workers on a persona's kernel, traced so every
# idle cycle and tick is simulated vs untraced so they are elided and
# crossed, compared at random Run boundaries), and the differential
# span-fold check (the idle loop's online fold, which takes elided runs
# of clean, elongated or threshold-straddling cycles in closed form, vs
# BusySpans over the same stream expanded cycle by cycle).
# `go test` only accepts one -fuzz pattern at a time, so each fuzzer
# gets its own run. -fuzzminimizetime 0 keeps the budget for fuzzing:
# minimising a newly interesting input can otherwise take the rest of
# it, with the exec count frozen. A failing input is still saved under
# testdata/fuzz and reported, just not minimised.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseIdleCSV$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttribCSV$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzParseLedger$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuarantine$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzQueueEquivalence$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/eventq
	$(GO) test -run '^$$' -fuzz '^FuzzFSMCount$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLRUEquivalence$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzLoopEquivalence$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzElisionEquivalence$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSpanFold$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 ./internal/core

# The end-to-end determinism and crash-safety gate for the committed
# demo campaign (10080 quick sessions), proving each property once:
# SIGINT a run at -jobs 2 mid-flight and require it to drain (exit 3)
# leaving a partial ledger, then repair the ledger (a no-op on a clean
# prefix); resume it at a different worker count and require the ledger
# to match the committed one byte for byte; then require the analyze
# report to match too. The injected 100 ms before each of the 48 cells
# keeps the run busy for at least 2.4 s at two workers, so the signal
# at 1 s always lands mid-run, however fast the host simulates.
CAMPAIGN_DIR  = testdata/campaigns
CAMPAIGN_JOBS ?= 3
campaign-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/campaign ./cmd/campaign && \
	( LATLAB_CAMPAIGN_INJECT=sleep=100ms $$tmp/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/demo-ledger.jsonl -quick -jobs 2 & \
	  pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null; wait $$pid; code=$$?; \
	  [ $$code -eq 3 ] || { echo "campaign-check: interrupted run exited $$code, want 3"; exit 1; }; \
	  got=$$(wc -l < $$tmp/demo-ledger.jsonl) && want=$$(wc -l < $(CAMPAIGN_DIR)/demo-ledger.jsonl) && \
	  [ $$got -lt $$want ] || { echo "campaign-check: interrupted ledger holds $$got of $$want records, want fewer"; exit 1; } ) && \
	$$tmp/campaign repair -ledger $$tmp/demo-ledger.jsonl && \
	$$tmp/campaign resume -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/demo-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS) && \
	cmp $(CAMPAIGN_DIR)/demo-ledger.jsonl $$tmp/demo-ledger.jsonl && \
	$$tmp/campaign analyze -ledger $$tmp/demo-ledger.jsonl -out $$tmp/demo-analyze.txt && \
	cmp $(CAMPAIGN_DIR)/demo-analyze.txt $$tmp/demo-analyze.txt && \
	echo "campaign-check: interrupted + resumed ledger and its analyze report match the committed ones byte-for-byte"

# Regenerate the committed demo campaign ledger and report after an
# intentional behaviour change. Commit both files.
campaign-demo:
	rm -f $(CAMPAIGN_DIR)/demo-ledger.jsonl
	$(GO) run ./cmd/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $(CAMPAIGN_DIR)/demo-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS)
	$(GO) run ./cmd/campaign analyze -ledger $(CAMPAIGN_DIR)/demo-ledger.jsonl \
		-out $(CAMPAIGN_DIR)/demo-analyze.txt

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Record today's hot-path numbers as the new baseline. Commit the file.
bench-baseline:
	$(GO) test -bench '$(BENCH_GATE_PAT)' -benchmem -count=$(BENCH_COUNT) -run '^$$' $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -record BENCH_$$(date +%Y-%m-%d).json

# Fail if the hot paths regressed vs the newest committed baseline.
# Pass BENCH_NS_TOL/BENCH_ALLOC_TOL to loosen the single-sample gates,
# or add `-skip-ns -allow-cpu-mismatch` via BENCH_CHECK_FLAGS when
# comparing across machines (benchgate refuses a cross-cpu ns/op
# comparison outright). The gate retries up to BENCH_RETRIES attempts:
# a genuine regression is code-driven and fails every attempt, while a
# transient load spike on a shared host fails attempts independently,
# so bounded retries filter ambient noise without loosening the
# statistical gate itself.
bench-check:
	@i=1; while :; do \
		if $(GO) test -bench '$(BENCH_GATE_PAT)' -benchmem -count=$(BENCH_COUNT) -run '^$$' $(BENCH_GATE_PKGS) \
			| $(GO) run ./cmd/benchgate -check -ns-tol $(BENCH_NS_TOL) -alloc-tol $(BENCH_ALLOC_TOL) $(BENCH_CHECK_FLAGS); then \
			break; \
		fi; \
		if [ $$i -ge $(BENCH_RETRIES) ]; then \
			echo "bench-check: regression persisted across $(BENCH_RETRIES) attempts"; exit 1; \
		fi; \
		echo "bench-check: attempt $$i/$(BENCH_RETRIES) regressed; retrying in case of host noise"; \
		i=$$((i+1)); \
	done

# Regenerate every table and figure at paper-sized workloads.
repro:
	$(GO) run ./cmd/latbench

# Fast smoke of the full pipeline.
quick:
	$(GO) run ./cmd/latbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/notepad
	$(GO) run ./examples/powerpoint
	$(GO) run ./examples/wordstudy
	$(GO) run ./examples/thinkwait

clean:
	$(GO) clean ./...
