GO ?= go

.PHONY: all build test race race-serving fuzz vet lint bench bench-smoke determinism daemon-smoke obs-smoke crash-smoke fleet-smoke paper-golden ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# slicekvsd's concurrency under the race detector, twenty times over:
# the Detach/Commit split in internal/wal, the per-shard committer
# (hand-off, one batch in flight, snapshot/drain/restart waits,
# poisoning), the shard lock (stalled holder, queue bound, crash
# hand-over, AQM on the lock wait), and the crash path across goroutines:
# exec's Fail, the supervisor's backoff → restore → resume (its
# transition table included), warm restart, and a drain while a shard is
# down. The tests hold commits, locks and restores open on channels, so
# repetition varies the interleavings rather than the sleeps.
race-serving:
	$(GO) test -race -count=20 \
		-run '^Test(Commit|Detach|Flush|WriteFileAtomic|ShardLock|CrashedShard|WarmRestart|DrainWhileShardDown|Supervisor)' \
		./internal/wal ./internal/daemon ./cmd/slicekvsd

# Native fuzzing, 60 s per target. FuzzCacheMatchesReference checks
# cachesim.Cache op for op against a map-and-slices reference cache;
# FuzzSlicedLLCMatchesReference checks the sliced LLC, whose slices share
# one line index, against one private reference cache per slice. A
# finding is written under the package's testdata/fuzz and fails the run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime 60s ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzSlicedLLCMatchesReference$$' -fuzztime 60s ./internal/llc

# vet plus the gofmt gate: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; \
	fi

# vet plus staticcheck when it is installed (CI installs it; locally the
# target degrades to vet alone rather than failing).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# One iteration of every benchmark — a smoke pass that keeps the harnesses
# compiling and running, not a measurement.
bench:
	$(GO) test -bench . -benchtime=1x ./...

# The repository's benchmark (BENCHMARK.json, bench/) at its smallest
# size: builds the harness and every binary it drives, runs all four
# workloads once, and fails unless each one's correctness checks hold.
# bench/ is a module of its own, so nothing else here compiles it.
bench-smoke:
	bash bench/run.sh -smoke

# Parallel determinism gate: the full quick reproduction must be
# byte-identical at -jobs 1 and -jobs 4 (timestamps and wall-clock
# footers filtered out), with and without -metrics-dir, and the
# per-experiment telemetry dumps must be byte-identical at both worker
# counts. The -jobs 4 side is built with -race: it runs whole
# experiments concurrently, each armed one on a collector of its own,
# so any mutable state two experiments share makes the race detector
# fail the run (exit 66) before the outputs are even compared.
determinism:
	$(GO) build -o /tmp/sliceaware-reproduce ./cmd/reproduce
	$(GO) build -race -o /tmp/sliceaware-reproduce-race ./cmd/reproduce
	rm -rf /tmp/sliceaware-m1 /tmp/sliceaware-m4
	/tmp/sliceaware-reproduce -scale quick -seed 1 -all -jobs 1 > /tmp/sliceaware-j1.raw
	/tmp/sliceaware-reproduce-race -scale quick -seed 1 -all -jobs 4 > /tmp/sliceaware-j4.raw
	/tmp/sliceaware-reproduce -scale quick -seed 1 -all -jobs 1 -metrics-dir /tmp/sliceaware-m1 > /tmp/sliceaware-m1.raw
	/tmp/sliceaware-reproduce-race -scale quick -seed 1 -all -jobs 4 -metrics-dir /tmp/sliceaware-m4 > /tmp/sliceaware-m4.raw
	for r in j1 j4 m1 m4; do \
		grep -v '^# Reproduction run' /tmp/sliceaware-$$r.raw | grep -Ev '^\(.* in .*\)$$' > /tmp/sliceaware-$$r.txt || exit 1; \
	done
	cmp /tmp/sliceaware-j1.txt /tmp/sliceaware-j4.txt
	cmp /tmp/sliceaware-j1.txt /tmp/sliceaware-m1.txt
	cmp /tmp/sliceaware-j1.txt /tmp/sliceaware-m4.txt
	diff -r /tmp/sliceaware-m1 /tmp/sliceaware-m4
	@echo "reproduce tables and -metrics-dir dumps byte-identical at -jobs 1 and -jobs 4 (race-built), race-clean"

# End-to-end daemon smoke: slicekvsd under past-saturation load with a
# seeded fault plan must hold the chaos acceptance (top-class p99 within
# 2x of the unloaded baseline, class 0 shed), then drain cleanly on
# SIGTERM with /healthz walking ready -> draining -> down and a
# checkpoint on disk whose transitions end in stopped. Every assertion is
# fleet's serving contract; the scenario file only sets the flags.
daemon-smoke:
	$(GO) run ./cmd/fleet -f scenarios/serving-smoke.json

# End-to-end observability smoke: statsink + slicekvsd (sampled tracing,
# availability SLO armed) + loadgen streaming wide events. The merged
# JSONL must parse, hold both sources, and record the class-0 burn-rate
# alert firing under the chaos storm and resolving after; the daemon
# must write a parseable chrome trace on drain.
obs-smoke:
	bash scripts/obs_smoke.sh

# End-to-end crash smoke: slicekvsd with -wal-dir is SIGKILLed at
# seeded points under write load, and every restart must replay
# snapshot+journal before ready, keep every acked write below the
# recovery horizon visible at its acked version, bound the acked-lost
# window to the group-commit size, and quarantine a corrupt journal
# suffix without losing the durable prefix.
crash-smoke:
	bash scripts/crash_smoke.sh

# Orchestrator smoke: fleet expands the fleet-smoke scenario file
# (reproduce matrix + a serving trio), fans it across
# worker processes, and the goldens must match byte-for-byte. The
# failure-demo file then proves a hung/crashed/non-zero scenario is
# classified as such and makes fleet exit non-zero.
fleet-smoke:
	$(GO) build -o /tmp/sliceaware-fleet ./cmd/fleet
	/tmp/sliceaware-fleet -f scenarios/fleet-smoke.json -workers 2 \
		-out /tmp/sliceaware-fleet-smoke
	@if /tmp/sliceaware-fleet -f scenarios/failure-demo.json -workers 4 \
		-out /tmp/sliceaware-fleet-failure; then \
		echo "fleet-smoke: FAIL: failure-demo was expected to exit non-zero"; \
		exit 1; \
	else \
		echo "fleet-smoke: failure-demo exited non-zero as expected"; \
	fi

# Paper-figure golden gate (CI): the full paper-quick scenario matrix
# runs through fleet, and every figure must match its committed golden
# byte-for-byte. The goldens were cut on the per-packet loop that is now
# netsim's test-only reference, so this pins the one run path to those
# exact numbers.
paper-golden:
	$(GO) build -o /tmp/sliceaware-fleet ./cmd/fleet
	/tmp/sliceaware-fleet -f scenarios/paper-quick.json -workers 2 \
		-out /tmp/sliceaware-paper-golden
	@echo "paper-quick goldens byte-identical"

ci: build vet race race-serving fuzz determinism bench-smoke daemon-smoke obs-smoke crash-smoke fleet-smoke paper-golden
