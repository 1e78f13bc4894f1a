# Developer entry points. `make check` is the gate CI runs: build, vet,
# and the full test suite under the race detector.

.PHONY: check test loc bench bench-overload bench-causality bench-tail bench-cluster bench-bootstrap check-bench scenarios chaos

check:
	./scripts/check.sh

test:
	go test ./...

# ROADMAP's one line counter: non-test Go lines outside the repository
# benchmark. Every PR reports this number before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# Regenerates the Fig 13 round-trip sweep and BENCH_fig13.json.
bench:
	go run ./cmd/synapse-bench -exp fig13rt

# Regenerates the overload experiment (degradation ladder, queue bounds,
# stall quarantine under sustained ~2x overload) and BENCH_overload.json.
bench-overload:
	go run ./cmd/synapse-bench -exp overload

# Regenerates the dependency-tracker comparison (hashed cardinality
# sweep vs dotted version vectors) and BENCH_causality.json.
bench-causality:
	go run ./cmd/synapse-bench -exp causality

# Regenerates the open-loop tail-latency sweep (publish→deliver
# p50/p99/p999 vs arrival rate, knee detection) and BENCH_tail.json.
bench-tail:
	go run ./cmd/synapse-bench -exp tail

# Regenerates the sharded-broker cluster experiment (throughput scaling
# at 1/2/4 shards, failover unavailability window, zero-lost verdict)
# and BENCH_cluster.json.
bench-cluster:
	go run ./cmd/synapse-bench -exp cluster

# Regenerates the chunked live bootstrap experiment (join time vs
# publisher size under sustained write load, max publish stall,
# crash-resume from the journaled chunk cursor) and BENCH_bootstrap.json.
bench-bootstrap:
	go run ./cmd/synapse-bench -exp bootstrap

# Bench-regression gate: quick-runs every experiment and compares
# config-invariant metrics (rt counts, convergence, tail p99) against
# the committed BENCH_*.json baselines. Non-zero exit on any breach;
# committed baselines are restored afterwards.
check-bench:
	./scripts/bench_gate.sh

# The CI scenario suite (check/chaos/overload/causality/tail/cluster/
# bootstrap/benchmark/liveness/journal/orm/windows), quick sweeps — the same commands the
# workflow matrix runs.
scenarios:
	./scripts/scenarios.sh -quick

# Long-haul chaos soak: 100 seeds of long fault scripts (partitions,
# broker crash/restarts, version-store deaths) that must all converge.
chaos:
	CHAOS_SOAK=1 go test ./internal/chaos/ -run TestChaosSoak -v -timeout 30m
