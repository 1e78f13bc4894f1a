#!/bin/sh
# scenarios.sh — the CI scenario suite as runnable shell functions, so
# the workflow matrix, `make scenarios`, and a developer terminal all
# execute the exact same commands. Each scenario bundles the race tests
# that guard a subsystem with, where it has one, the bench smoke or
# benchmark workload that exercises it, and fails the run (non-zero
# exit) on any breach.
#
# Usage:
#   scripts/scenarios.sh [-quick] [scenario ...]
#
# With no scenario arguments every scenario runs. -quick shrinks the
# bench sweeps (passing -quick to synapse-bench and -short to the long
# seeded tests) — this is what the CI matrix runs; omit it locally for
# the full sweeps.
set -u

cd "$(dirname "$0")/.."

QUICK=""
SHORT=""
while [ $# -gt 0 ]; do
    case "$1" in
    -quick | --quick)
        QUICK="-quick"
        SHORT="-short"
        shift
        ;;
    -*)
        echo "usage: scripts/scenarios.sh [-quick] [scenario ...]" >&2
        exit 2
        ;;
    *)
        break
        ;;
    esac
done

# gotest is `go test` for a scenario that selects tests by -run: it
# also fails when a package matched none, so a pattern that has outlived
# the tests it named cannot pass silently.
gotest() {
    out=$(go test "$@" 2>&1)
    status=$?
    printf '%s\n' "$out"
    [ "$status" -eq 0 ] || return "$status"
    if printf '%s\n' "$out" | grep -q 'no tests to run'; then
        echo "scenario selects no tests in some package: go test $*" >&2
        return 1
    fi
}

# Build + vet + gofmt + full race suite with the coverage floor, then
# the round-trip bench smoke and the alloc microbenches. This is the
# "does the repo hold together" scenario.
scenario_check() {
    make check &&
        go run ./cmd/synapse-bench -exp fig13rt $QUICK &&
        go test ./internal/wire/ ./internal/broker/ -run '^$' \
            -bench 'BenchmarkMarshal|BenchmarkUnmarshal|NackRequeue|PublishFanout' \
            -benchtime 10x -benchmem
}

# Seeded fault scripts (partitions, broker crash/restarts, store
# deaths, copies the broker accepted and lost), the generation
# coordinator, the crash property tests, the convergence verdict every
# script ends on, the broker log's truncation and retention, and the
# workers' reattach and parked-ack flush across a broker restart, under
# the race detector. The resilient caller's half-open breaker must admit
# one probe however its callers race, so that test runs 20 times.
scenario_chaos() {
    go test -race $SHORT ./internal/chaos/ ./internal/netsim/ ./internal/coord/ &&
        gotest -race -count=20 -run 'TestCallerHalfOpenAdmitsOneProbe' ./internal/netsim/ &&
        gotest -race $SHORT -run 'TestBroker|TestCrash|TestDeadLetter|TestJournal|TestConcurrentPublish|TestStats|TestTruncationInterleaved|TestLogTruncation|TestOneRecordPerPublish|TestSlowConsumer|TestConverged|TestSettle|TestWorkersReattachAfterBrokerRestart|TestParkedAcksFlushAndDefunctDrop' \
            ./internal/broker/ ./internal/core/
}

# Sustained ~2x overload: publisher defer and republish, watermark
# backpressure, stall quarantine, drain/decommission, and the round-trip
# cost of recovering from the decommission cliff. The full-size
# TestOverloadBoundedAndConverges is the one test that holds all four
# overload invariants, so it also runs five times at full size.
scenario_overload() {
    gotest -race $SHORT -run 'TestOverload' ./internal/chaos/ &&
        gotest -race -count=5 -run 'TestOverloadBoundedAndConverges' ./internal/chaos/ &&
        gotest -race $SHORT -run 'TestPublish|TestStall|TestDrain|TestDecommission|TestRecoverQueueRoundTripsPerObject' \
            ./internal/core/
}

# Pluggable dependency trackers: DVV end-to-end (no false
# dependencies), mixed hash/DVV fabrics, the false-dependency estimate
# under hash collisions.
scenario_causality() {
    go test -race ./internal/deptrack/ &&
        gotest -race -run 'TestDVV|TestMixedTracker|TestDepTimeout|TestFalseDep|TestTrueDependency' \
            ./internal/core/
}

# Open-loop tail latency: the seeded workload generator and HDR
# recorder under the race detector, the threshold-wakeup vstore tests,
# then the tail sweep itself.
scenario_tail() {
    go test -race ./internal/workload/ ./internal/hdr/ ./internal/vstore/ &&
        go run ./cmd/synapse-bench -exp tail $QUICK
}

# Chunked live bootstrap: the chunk/cursor unit tests (the publish
# stall ceiling under live writes, crash-resume from the journaled
# cursor, a live write between a chunk's read and its apply, a join
# that sends other subscribers nothing, the drain's dead-letter test,
# and a parked drain job a worker resumes), the decommission-recovery
# path, the drain against the worker and synchronous entries, then the
# seeded bootstrap-race chaos scripts (crashes mid-walk, partitions,
# broker bounces).
scenario_bootstrap() {
    gotest -race $SHORT -run 'TestBootstrap|TestRecoverQueue|TestEveryEntryAppliesAlike' ./internal/core/ &&
        gotest -race $SHORT -run 'TestBootstrapRace' ./internal/chaos/
}

# The repository benchmark is its own Go module (tier-1 `go test ./...`
# cannot build it by design), so this is where a signature it pins is
# caught: vet and test the module, then run each workload briefly — the
# runner exits non-zero on any failed operation or oracle mismatch.
scenario_benchmark() {
    (cd benchmark && go vet ./... && go test ./...) || return 1
    for w in social_causal fanout_hetero weak_hot social_rtt; do
        bash benchmark/run.sh --workload "$w" --seconds 5 || return 1
    done
}

# Subscriber liveness: a message that is not ready parks and nothing
# blocks behind it. The two regression tests wedge a blocking worker
# deterministically (dependant ahead of its satisfier, new generation
# ahead of the last old message, one worker); the park/ready/release unit
# tests, the bootstrap drain's dead-letter test and the fixed lane count
# run under the race detector; the three entries' differential test, the
# job state table, the random-ops convergence property and the
# many-writer stress (each with a causal and a weak subscriber whose
# recorded histories must keep every object's applied versions rising),
# that history check's own table, the recycled job's lifetime tests, the
# per-object apply locks, the sliding window (deliveries refill past a
# blocked one) and its step function driven through every event sequence
# up to depth 3, the lost-message timeout recovery and the paper's six
# example programs run twenty times under it — a failing seed is a bug
# report, never a rerun. Last, without the
# race detector (they skip under it), the runtime's two budgets: a lone
# group commit allocates nothing, and a worker's delivery stays within
# its byte budget.
scenario_liveness() {
    gotest -race -run 'TestPark' ./internal/vstore/ &&
        gotest -race -run 'TestDependantAhead|TestNewGeneration|TestParked|TestStopWorkersHands|TestBootstrapDrainDeadLetters|TestWorkerPoolGoroutinesFixed' \
            ./internal/core/ &&
        gotest -race -count=20 -run 'TestJobStateTable|TestEveryEntryAppliesAlike|TestQuickConvergenceRandomOps|TestHighConcurrencyStress|TestCheckVersionsRise|TestLateDepTimeoutWakeOnReusedJob|TestParkedJobFinishedByAnotherWorker|TestRecycleOnce|TestApplyLocksArePerObject|TestWorkerWindowRefillsPastABlockedDelivery|TestWindowExhaustive' ./internal/core/ &&
        gotest -race -count=20 -run '^TestLostMsgTimeoutRecovers$' ./internal/bench/ &&
        gotest -race -count=20 ./examples/... &&
        gotest -run 'TestFlushBatchAllocBudget|TestWorkerDeliveryByteBudget' ./internal/core/
}

# Publisher outbox: the journal is a log with a high-water ack, so what
# guards it is schedules as well as states — the crash windows, the
# seeded crash/restart property, the overload defer/drain
# paths, the outbox, truncation and restart tests, the publication state
# table, the failed-write gap test and the entry rows' own payloads,
# twenty times under the race detector; then the workload that journals
# every publish, which exits non-zero on any failed operation or oracle
# mismatch.
scenario_journal() {
    gotest -race -count=20 \
        -run 'TestCrash|TestPublish|TestDrain|TestOutbox|TestJournal|TestLiveDrain|TestRestart|TestInherited|TestAbortedPublish|TestPublicationStateTable|TestFailedWriteLeavesNoGap|TestEntryRowsOwnTheirPayload' \
        ./internal/core/ &&
        bash benchmark/run.sh --workload social_causal --seconds 5
}

# Persistence: one ORM skeleton over five bindings, and one
# row-ownership rule for five engines. The allocation budgets of Save, of
# an Each that stops early, of a Delete that takes the row its engine
# hands over, and of searchdb's and coldb's updates (which only run
# without the race detector, so they come first), the
# conformance suite and the engine isolation table five times under the
# race detector, and the coldb and searchdb model tests, coldb's readers
# beside its flushes and its bounded-state test twenty times; then the
# paper's six example programs twenty times under the race detector, and
# the workload that applies every message through all five adapters.
# The recycling model test (the maps of rows reldb and docdb drop go back
# to Clone; a row a delete hands over never does) runs with coldb's and
# searchdb's.
scenario_orm() {
    go vet ./internal/orm/... ./internal/storage/... &&
        gotest -run 'TestConformance.*/(SaveAllocBudget|EachStopsEarly|DeleteHandsOverRow)' ./internal/orm/activerecord ./internal/orm/columnorm \
            ./internal/orm/documentorm ./internal/orm/graphorm ./internal/orm/searchorm &&
        gotest -run 'TestUpdateAllocBudget' ./internal/storage/coldb ./internal/storage/searchdb &&
        go test -race -count=5 ./internal/orm/... ./internal/storage/... &&
        gotest -race -count=20 -run 'TestModelAgainst|TestReadersDuringFlushes|TestStateBounded' \
            ./internal/storage/coldb ./internal/storage/searchdb &&
        gotest -race -count=20 -run 'TestRecycledRowsStayOwned' ./internal/storage/ &&
        gotest -race -count=20 ./examples/... &&
        bash benchmark/run.sh --workload fanout_hetero --seconds 5
}

# One version-store window per side: the combined probe-and-claim script
# against the two-window sequence it replaced (both trackers, 1 and 4
# shards, the cross-shard take-back), releases that do not wait, the one
# group-commit flusher, and the core one-window and park tests, twenty
# times under the race detector; then the workload whose every publish
# and apply sleeps in those windows, which exits non-zero on any failed
# operation or oracle mismatch.
scenario_windows() {
    gotest -race -count=20 -run 'TestClaimIfMet|TestReleaseDoesNotWait|TestBatchCallAllocBudget' ./internal/vstore/ &&
        gotest -race -count=20 -run 'TestOneWindowScript|TestPlanAllocBudget' ./internal/deptrack/ &&
        go test -race -count=20 ./internal/groupcommit/ &&
        gotest -race -count=20 \
            -run 'TestPublishWaitsOneWindow|TestApplyWaitsOneWindow|TestParked|TestDependantAhead|TestStopWorkersHands' \
            ./internal/core/ &&
        bash benchmark/run.sh --workload social_rtt --seconds 5
}

# A delivery from bytes to Mapper.Save through the subscription's compiled
# projection: the two live-stream alloc budgets (which only run without
# the race detector, so a plain run comes first), the token round-trip
# property against the encoding/json mirror, the parent's payloads, the
# shared nesting bound (the encoder and a publish refuse what the decoder
# refuses), ten seconds each of the full decode's fuzz against the mirror
# and of the projected-versus-full differential fuzz on top of their
# committed seed corpora, the subscribe, park, bootstrap, projection and
# stage-timer tests five times under the race detector; then the workload
# that decodes and applies every message five times over.
scenario_projection() {
    gotest -run 'TestUnmarshalPooledAllocBudget|TestProjectedDecode|TestQuickTokenRoundTrip|TestParentPayloadsRoundTrip|TestMarshalRefusesWhatDecodeRefuses' ./internal/wire/ &&
        gotest -run 'TestApplyAllocBudget|TestPublishAllocBudget|TestPublishRefusesTooDeepAttribute' ./internal/core/ &&
        go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime=10s ./internal/wire/ &&
        go test -run '^$' -fuzz 'FuzzProjectedDecode' -fuzztime=10s ./internal/wire/ &&
        gotest -race -count=5 \
            -run 'TestProjected|TestLent|TestSchemaChange|TestVirtualSetter|TestSubscribe|TestParked|TestDependantAhead|TestBootstrap|TestPolymorphic|TestStatsStagesCountEveryDelivery' \
            ./internal/core/ &&
        bash benchmark/run.sh --workload fanout_hetero --seconds 5
}

# The publisher's commit: the allocation budgets of the row-lock table,
# the row tree, the engine transaction, the pooled adapter transaction,
# the dependency plan and a journaled publish of each verb (plain runs:
# the budgets skip under the race detector) with the differential check
# of the payloads against encoding/json, the row tree's typed round
# trips, the adapter transaction's delete that loads nothing, its reset
# on Release and the destroy that must publish the state an update
# racing it left; the lock-table property test, the recycled-row model
# test and concurrent publishes through the transaction pool twenty
# times and the global-order test a hundred times under the race
# detector; then the workload whose every message is a journaled
# PostgreSQL publish, which exits non-zero on any failed operation or
# oracle mismatch.
scenario_publish() {
    gotest -run 'TestLockTableSteadyStateAllocs|TestSetStoresUnboxed|TestTypedRoundTrip|TestTypedOrderedScan|TestTxAllocBudget|TestTxDestroyLoadsNothing|TestTxReleaseResets|TestTxPoolSteadyStateAllocs|TestPlanAllocBudget|TestPublishAllocBudget|TestPublishPayloadsMatchEncodingJSON|TestDestroyPublishesStateAfterRacingUpdate' \
        ./internal/storage/ ./internal/storage/btree/ ./internal/storage/reldb/ ./internal/orm/activerecord/ ./internal/deptrack/ ./internal/core/ &&
        gotest -race -count=20 -run 'TestLockTable|TestRecycledRowsStayOwned' ./internal/storage/ &&
        gotest -race -count=20 -run 'TestTxReleaseResets|TestTxPoolConcurrentPublishes' ./internal/orm/activerecord/ &&
        gotest -race -count=100 -run 'TestGlobalModeTotalOrder' ./internal/core/ &&
        bash benchmark/run.sh --workload social_causal --seconds 5
}

ALL="check chaos overload causality tail bootstrap benchmark liveness journal orm windows projection publish"
run_list="$*"
if [ -z "$run_list" ]; then
    run_list="$ALL"
fi

failed=""
for sc in $run_list; do
    case " $ALL " in
    *" $sc "*) ;;
    *)
        echo "unknown scenario: $sc (have: $ALL)" >&2
        exit 2
        ;;
    esac
    echo "==== scenario: $sc ===="
    if "scenario_$sc"; then
        echo "==== scenario $sc: PASS ===="
    else
        echo "==== scenario $sc: FAIL ====" >&2
        failed="$failed $sc"
    fi
done

if [ -n "$failed" ]; then
    echo "FAILED scenarios:$failed" >&2
    exit 1
fi
echo "all scenarios passed:$run_list"
