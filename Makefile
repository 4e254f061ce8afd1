GO ?= go

.PHONY: all vet build test race fuzz-smoke soak check chaos-smoke serve-smoke fsfault-smoke crashsim bench-check clean

all: check

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzz runs of the correctness oracles; new interesting inputs
# stay in the Go build cache, crashers land in internal/check/testdata/fuzz/
# and internal/tlb/testdata/fuzz/ ready to commit as regressions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSchemesAgree -fuzztime 30s ./internal/check/
	$(GO) test -run '^$$' -fuzz FuzzMachine -fuzztime 30s ./internal/check/
	$(GO) test -run '^$$' -fuzz FuzzBufferParity -fuzztime 10s ./internal/tlb/
	$(GO) test -run '^$$' -fuzz FuzzBankParity -fuzztime 10s ./internal/tlb/

# Longer oracle soak over seeded random workloads; failing seeds are written
# to fuzz-artifacts/ in Go fuzz-corpus format.
soak:
	mkdir -p fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 1000 -budget 3m -artifacts fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 150 -diff -budget 3m -artifacts fuzz-artifacts

# Supervision-layer smoke through the real CLIs: interrupt-then-rerun
# byte-identity, cache-corruption quarantine, hung-pass reclaim, watchdog
# diagnostics (see scripts/chaos-smoke.sh).
chaos-smoke:
	sh scripts/chaos-smoke.sh chaos-smoke.tmp
	rm -rf chaos-smoke.tmp

# Service smoke through real HTTP: SIGTERM mid-job → restart → byte-identical
# resume, coalescing onto the artifact store, 429 flood control
# (see scripts/serve-smoke.sh).
serve-smoke:
	sh scripts/serve-smoke.sh serve-smoke.tmp
	rm -rf serve-smoke.tmp

# Storage-fault smoke through real HTTP: ENOSPC on every artifact put →
# degraded-mode serving from memory (byte-identical), 503 + Retry-After on
# a dead journal, self-heal via the write probe once the failpoints clear
# (see scripts/fsfault-smoke.sh). The scratch dir keeps the -fsfault-log op
# trace on failure for post-mortems.
fsfault-smoke:
	sh scripts/fsfault-smoke.sh fsfault-smoke.tmp
	rm -rf fsfault-smoke.tmp

# Power-cut crash-consistency sweeps: replay every fsync-truncated prefix of
# recorded op traces and reopen the runner cache and the serve accept
# journal in each crash state, asserting their recovery invariants
# (whole-entries-or-nothing, byte-identical rerun, pending ⊆ accepted).
crashsim:
	$(GO) test ./internal/fsio/... -count=1
	$(GO) test ./internal/runner/ ./internal/serve/ -run 'CrashSweep|Torn' -count=1

# Host-independent benchmark gate: build and test the perfbench module, run
# the root Go benchmarks once so they cannot rot, then run every perfbench
# workload briefly at the default seed, which fails on any wrong output
# (simulated timing and the report against perfbench/digests.txt). Nothing
# here compares wall times; same-host A/B runs use `perfbench --out` and
# `--compare`.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	for w in sim-small report-small checked-test serve-mixed; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# The full local gate: what CI runs, minus the long benchmark artifacts.
check: vet build
	$(GO) test -race ./...
	mkdir -p fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 2000 -budget 60s -artifacts fuzz-artifacts
	$(GO) run ./cmd/vcoma-check -seeds 300 -diff -budget 60s -artifacts fuzz-artifacts

clean:
	rm -rf fuzz-artifacts artifacts chaos-smoke.tmp serve-smoke.tmp fsfault-smoke.tmp
