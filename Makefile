# Developer entry points. `make check` is the gate CI runs: build, vet,
# and the full test suite under the race detector.

.PHONY: check test loc bench check-bench scenarios chaos

check:
	./scripts/check.sh

test:
	go test ./...

# ROADMAP's per-PR report: non-test Go lines outside the repository
# benchmark (the line counter), test lines, and the number of
# core.Config fields. Every PR reports these before and after.
GO_SRC = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'
loc:
	@echo "$$($(GO_SRC) -not -name '*_test.go' | xargs cat | wc -l) non-test lines"
	@echo "$$($(GO_SRC) -name '*_test.go' | xargs cat | wc -l) test lines"
	@echo "$$(awk '/^type Config struct/,/^}/' internal/core/core.go | grep -cE '^\s+[A-Z]\w*(, *[A-Z]\w*)* +[^ /]') core.Config fields"

# `make bench-NAME` runs one synapse-bench experiment at full size
# (bench-tail, bench-fig13a, bench-lostmsg, ...), rewriting its committed
# BENCH_*.json baseline when it has one; `make bench` is the Fig 13
# round-trip sweep (BENCH_fig13.json).
bench: bench-fig13rt

bench-%:
	go run ./cmd/synapse-bench -exp $*

# Bench-regression gate: quick-runs every gated experiment in memory and
# checks config-invariant metrics (rt counts, convergence, tail p99)
# against the committed BENCH_*.json baselines with the rule beside each
# experiment in internal/bench. Non-zero exit on any breach; no file is
# written.
check-bench:
	go run ./cmd/synapse-bench -gate

# The CI scenario suite (check/chaos/overload/causality/tail/bootstrap/
# benchmark/liveness/journal/orm/windows/projection/publish):
# race tests per subsystem plus the quick bench sweeps of check and
# tail — the same commands the workflow matrix runs.
scenarios:
	./scripts/scenarios.sh -quick

# Long-haul chaos soak: 100 seeds of long fault scripts (partitions,
# broker crash/restarts, version-store deaths, broker message loss) that
# must all converge.
chaos:
	CHAOS_SOAK=1 go test ./internal/chaos/ -run TestChaosSoak -v -timeout 30m
