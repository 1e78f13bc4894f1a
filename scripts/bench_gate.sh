#!/bin/sh
# bench_gate.sh — regression gate over the committed BENCH_*.json
# baselines. Runs the quick bench suite, compares the fresh output
# against the baselines on config-invariant metrics (round-trip counts,
# convergence, false-dependency counts, tail p99 at the anchor rate),
# restores the committed files, and exits non-zero on any breach.
#
# Only metrics that do not depend on sweep size are compared, so a
# -quick run is comparable against full-sweep baselines:
#
#   fig13     round trips per message: at every deps value the quick
#             sweep shares with the baseline, no more windows than the
#             baseline and no fewer by more than 0.25. These are
#             protocol counts, not timings.
#   chaos     converged == seeds (every seeded fault script converges).
#   overload  converged == seeds and queue bounds held; decommission
#             recovery converged with an absolute round-trip budget of
#             0.05 vstore round trips per recovered object (protocol
#             count — one bulk version-snapshot window plus one batched
#             claim window per chunk — so it is size-invariant and a
#             regenerated baseline cannot launder a chatty recovery).
#   causality dvv false_deps_suspected == 0, and dvv throughput beats
#             hash at cardinality 1 (the paper's qualitative claim).
#   tail      p99 at the anchor rate (1000 ops/s, present in quick and
#             full sweeps with identical capacity knobs) within 3x of
#             the baseline. Wall-clock latency is noisy in CI, so the
#             tolerance is generous; the gate catches collapses, not
#             jitter. Delivered capacity (best sustained delivery rate,
#             measured at the shared saturating top rate) must clear
#             1.6x the committed depth-1 ceiling — the apply window's
#             win is re-proven on every run — and must not fall below
#             0.6x the committed capacity.
#   cluster   zero_lost true (failover drain recovered every message and
#             every chaos seed converged with zero regressions), and
#             throughput at 4 shards at least 1.6x the 1-shard rate
#             (capacity knobs are identical in quick and full runs, so
#             the ratio is config-invariant).
#   bootstrap converged at every size and in the crash-resume section,
#             max publish stall under an absolute 250ms ceiling (the
#             zero-pause claim: live publishes never block for a
#             bootstrap), and the resumed join replayed strictly fewer
#             chunks than the full join (the journaled cursor actually
#             skipped work).
#
# Usage:
#   scripts/bench_gate.sh            run the gate
#   scripts/bench_gate.sh selftest   prove the gate fails on injected
#                                    regressions (no bench runs)
set -u

cd "$(dirname "$0")/.."

if ! command -v jq >/dev/null 2>&1; then
    echo "bench_gate: jq is required" >&2
    exit 2
fi

GATED="BENCH_fig13.json BENCH_chaos.json BENCH_overload.json BENCH_causality.json BENCH_tail.json BENCH_cluster.json BENCH_bootstrap.json"

tmp=$(mktemp -d)
restore_needed=""
cleanup() {
    # Put the committed baselines back even if a bench run overwrote
    # them and the gate then failed.
    if [ -n "$restore_needed" ]; then
        for f in $GATED; do
            [ -f "$tmp/committed/$f" ] && cp "$tmp/committed/$f" "$f"
        done
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fails=0
breach() {
    echo "BREACH: $*" >&2
    fails=$((fails + 1))
}

# compare BASELINE_DIR FRESH_DIR — all gate checks; increments $fails.
compare() {
    base=$1
    fresh=$2

    # fig13: protocol round-trip windows per message, joined on deps. No
    # dependency count may pay more windows than the baseline, nor fewer
    # by more than 0.25: the sweep runs one message at a time, but an
    # unlock or increment window that coalesces on a slow machine reads
    # a tenth low, and a real saving is a baseline to regenerate.
    for deps in $(jq -r '.points[].deps' "$fresh/BENCH_fig13.json"); do
        b=$(jq -r --argjson d "$deps" '.points[] | select(.deps == $d) | .batched.total_rt_per_msg' "$base/BENCH_fig13.json")
        n=$(jq -r --argjson d "$deps" '.points[] | select(.deps == $d) | .batched.total_rt_per_msg' "$fresh/BENCH_fig13.json")
        if [ -z "$b" ] || [ "$b" = "null" ]; then
            continue # deps value not in baseline sweep
        fi
        awk -v b="$b" -v n="$n" 'BEGIN { exit (n <= b + 1e-9 && n >= b - 0.25) ? 0 : 1 }' ||
            breach "fig13: rt/msg at deps=$deps is $n, baseline $b (allowed: $b down to $b - 0.25)"
    done

    # chaos: every seeded fault script converged.
    jq -e '.converged == .seeds' "$fresh/BENCH_chaos.json" >/dev/null ||
        breach "chaos: $(jq -r '"\(.converged)/\(.seeds)"' "$fresh/BENCH_chaos.json") seeds converged"

    # overload: convergence and queue bounds under sustained overload.
    jq -e '.converged == .seeds and .bounded' "$fresh/BENCH_overload.json" >/dev/null ||
        breach "overload: convergence or queue bound lost"

    # overload: decommission recovery must converge, and its per-object
    # round-trip cost is an absolute protocol budget — no baseline to
    # launder against.
    jq -e '.recovery.converged' "$fresh/BENCH_overload.json" >/dev/null ||
        breach "overload: decommission recovery did not converge"
    rt_cap=0.05
    n=$(jq -r '.recovery.rt_per_object' "$fresh/BENCH_overload.json")
    awk -v n="$n" -v cap="$rt_cap" 'BEGIN { exit (n <= cap) ? 0 : 1 }' ||
        breach "overload: recovery $n vstore rt/object above the absolute cap of $rt_cap"

    # causality: DVVs must stay exact (no false dependencies) and beat
    # the degenerate hash tracker.
    jq -e '[.points[] | select(.tracker == "dvv") | .false_deps_suspected] | length > 0 and all(. == 0)' \
        "$fresh/BENCH_causality.json" >/dev/null ||
        breach "causality: dvv tracker reported false dependencies"
    jq -e '(.points[] | select(.tracker == "dvv") | .throughput_msgs_per_sec) >
           (.points[] | select(.tracker == "hash" and .cardinality == 1) | .throughput_msgs_per_sec)' \
        "$fresh/BENCH_causality.json" >/dev/null ||
        breach "causality: dvv throughput no longer beats hash@cardinality=1"

    # tail: p99 at the shared anchor rate within tolerance.
    anchor=1000
    tol=3
    b=$(jq -r --argjson r "$anchor" '.points[] | select(.rate_ops_per_sec == $r) | .p99_ms' "$base/BENCH_tail.json")
    n=$(jq -r --argjson r "$anchor" '.points[] | select(.rate_ops_per_sec == $r) | .p99_ms' "$fresh/BENCH_tail.json")
    if [ -z "$b" ] || [ "$b" = "null" ] || [ -z "$n" ] || [ "$n" = "null" ]; then
        breach "tail: anchor rate $anchor missing from baseline or fresh run"
    else
        awk -v b="$b" -v n="$n" -v tol="$tol" 'BEGIN { exit (n <= tol * b) ? 0 : 1 }' ||
            breach "tail: p99 at ${anchor} ops/s regressed ${b}ms -> ${n}ms (>${tol}x)"
    fi

    # tail: the apply window's delivered capacity must clear 1.6x the
    # committed depth-1 ceiling and stay within 0.6x of the
    # committed capacity (both measured at the shared saturating rate,
    # so quick and full runs are comparable).
    bs=$(jq -r '.serial_capacity_msgs_per_sec' "$base/BENCH_tail.json")
    bc=$(jq -r '.delivered_capacity_msgs_per_sec' "$base/BENCH_tail.json")
    nc=$(jq -r '.delivered_capacity_msgs_per_sec' "$fresh/BENCH_tail.json")
    if [ -z "$bs" ] || [ "$bs" = "null" ] || [ -z "$bc" ] || [ "$bc" = "null" ] ||
        [ -z "$nc" ] || [ "$nc" = "null" ]; then
        breach "tail: capacity fields missing from baseline or fresh run"
    else
        awk -v n="$nc" -v s="$bs" 'BEGIN { exit (n >= 1.6 * s) ? 0 : 1 }' ||
            breach "tail: delivered capacity ${nc} msg/s below 1.6x the committed serial ceiling (${bs} msg/s)"
        awk -v n="$nc" -v b="$bc" 'BEGIN { exit (n >= 0.6 * b) ? 0 : 1 }' ||
            breach "tail: delivered capacity collapsed ${bc} -> ${nc} msg/s (below 0.6x baseline)"
    fi

    # cluster: the zero-lost invariant and the sharding payoff.
    jq -e '.zero_lost' "$fresh/BENCH_cluster.json" >/dev/null ||
        breach "cluster: zero-lost invariant broken (failover drain or chaos convergence)"
    jq -e '.chaos.converged == .chaos.seeds and .chaos.regressions == 0' \
        "$fresh/BENCH_cluster.json" >/dev/null ||
        breach "cluster: $(jq -r '"\(.chaos.converged)/\(.chaos.seeds) seeds converged, \(.chaos.regressions) regressions"' "$fresh/BENCH_cluster.json")"
    jq -e '.scaling_4x >= 1.6' "$fresh/BENCH_cluster.json" >/dev/null ||
        breach "cluster: 4-shard scaling $(jq -r '.scaling_4x' "$fresh/BENCH_cluster.json")x below the 1.6x floor"
    jq -e '.failover.unavail_ms > 0 and .failover.unavail_ms < 500' \
        "$fresh/BENCH_cluster.json" >/dev/null ||
        breach "cluster: failover window $(jq -r '.failover.unavail_ms' "$fresh/BENCH_cluster.json")ms outside (0, 500)"

    # bootstrap: every join (including the crash-resume) converged
    # exactly.
    jq -e '.converged' "$fresh/BENCH_bootstrap.json" >/dev/null ||
        breach "bootstrap: a join or the crash-resume failed to converge"
    # bootstrap: the zero-pause claim — the worst stall any live publish
    # saw while a subscriber bootstrapped, under an absolute ceiling
    # (per-chunk lock holds are bounded by the chunk size, which is
    # identical in quick and full runs).
    stall_cap=250
    n=$(jq -r '.max_publish_stall_ms' "$fresh/BENCH_bootstrap.json")
    awk -v n="$n" -v cap="$stall_cap" 'BEGIN { exit (n < cap) ? 0 : 1 }' ||
        breach "bootstrap: max publish stall ${n}ms at/above the ${stall_cap}ms ceiling"
    # bootstrap: the journaled cursor must make the resumed join
    # strictly cheaper than the full join it crashed out of.
    jq -e '.resume.converged and .resume.chunks_resumed < .resume.chunks_total' \
        "$fresh/BENCH_bootstrap.json" >/dev/null ||
        breach "bootstrap: resume replayed $(jq -r '"\(.resume.chunks_resumed)/\(.resume.chunks_total)"' "$fresh/BENCH_bootstrap.json") chunks (cursor journal not saving work)"
}

mkdir -p "$tmp/committed" "$tmp/fresh"
for f in $GATED; do
    if [ ! -f "$f" ]; then
        echo "bench_gate: missing committed baseline $f" >&2
        exit 2
    fi
    cp "$f" "$tmp/committed/$f"
done

if [ "${1:-}" = "selftest" ]; then
    # Prove the gate trips on injected regressions without running any
    # benches: perturb copies of the committed baselines and require a
    # breach for each perturbation, plus a clean pass unperturbed.
    echo "== bench_gate selftest =="
    cp "$tmp/committed/"* "$tmp/fresh/"
    compare "$tmp/committed" "$tmp/fresh"
    [ "$fails" -eq 0 ] || {
        echo "selftest: unperturbed baselines failed the gate" >&2
        exit 1
    }

    expect_breach() {
        desc=$1
        fails=0
        compare "$tmp/committed" "$tmp/fresh"
        if [ "$fails" -eq 0 ]; then
            echo "selftest: gate MISSED injected regression: $desc" >&2
            exit 1
        fi
        echo "selftest: gate caught: $desc"
        cp "$tmp/committed/"* "$tmp/fresh/" # reset for the next case
    }

    jq '.points[0].batched.total_rt_per_msg += 1' "$tmp/committed/BENCH_fig13.json" >"$tmp/fresh/BENCH_fig13.json"
    expect_breach "fig13 batched +1 round trip"

    jq '.points[0].batched.total_rt_per_msg -= 0.5' "$tmp/committed/BENCH_fig13.json" >"$tmp/fresh/BENCH_fig13.json"
    expect_breach "fig13 batched half a round trip under a stale baseline"

    # One coalesced window in a quick run (a tenth low) is not a breach.
    jq '.points[0].batched.total_rt_per_msg -= 0.1' "$tmp/committed/BENCH_fig13.json" >"$tmp/fresh/BENCH_fig13.json"
    fails=0
    compare "$tmp/committed" "$tmp/fresh"
    [ "$fails" -eq 0 ] || {
        echo "selftest: gate tripped on a single coalesced fig13 window" >&2
        exit 1
    }
    cp "$tmp/committed/"* "$tmp/fresh/"

    jq '.converged -= 1' "$tmp/committed/BENCH_chaos.json" >"$tmp/fresh/BENCH_chaos.json"
    expect_breach "chaos seed failed to converge"

    jq '(.points[] | select(.tracker == "dvv") | .false_deps_suspected) = 7' \
        "$tmp/committed/BENCH_causality.json" >"$tmp/fresh/BENCH_causality.json"
    expect_breach "causality dvv false dependencies"

    jq '(.points[] | select(.rate_ops_per_sec == 1000) | .p99_ms) *= 10' \
        "$tmp/committed/BENCH_tail.json" >"$tmp/fresh/BENCH_tail.json"
    expect_breach "tail p99 10x collapse at anchor rate"

    # Fresh capacity dropped to 1.5x the serial ceiling: below the 1.6x
    # pipeline-win floor even if the regression guard would tolerate it.
    jq '.delivered_capacity_msgs_per_sec = (.serial_capacity_msgs_per_sec * 1.5)' \
        "$tmp/committed/BENCH_tail.json" >"$tmp/fresh/BENCH_tail.json"
    expect_breach "tail delivered capacity under 1.6x the serial ceiling"

    jq '.delivered_capacity_msgs_per_sec *= 0.3' \
        "$tmp/committed/BENCH_tail.json" >"$tmp/fresh/BENCH_tail.json"
    expect_breach "tail delivered capacity 0.3x collapse"

    jq '.zero_lost = false' "$tmp/committed/BENCH_cluster.json" >"$tmp/fresh/BENCH_cluster.json"
    expect_breach "cluster zero-lost invariant broken"

    jq '.scaling_4x = 1.1' "$tmp/committed/BENCH_cluster.json" >"$tmp/fresh/BENCH_cluster.json"
    expect_breach "cluster 4-shard scaling collapse"

    jq '.failover.unavail_ms = 2000' "$tmp/committed/BENCH_cluster.json" >"$tmp/fresh/BENCH_cluster.json"
    expect_breach "cluster failover window blowout"

    jq '.recovery.converged = false' "$tmp/committed/BENCH_overload.json" >"$tmp/fresh/BENCH_overload.json"
    expect_breach "overload decommission recovery diverged"

    jq '.recovery.rt_per_object = 1.0' "$tmp/committed/BENCH_overload.json" >"$tmp/fresh/BENCH_overload.json"
    expect_breach "overload recovery rt/object over the absolute cap"

    jq '.converged = false' "$tmp/committed/BENCH_bootstrap.json" >"$tmp/fresh/BENCH_bootstrap.json"
    expect_breach "bootstrap join diverged"

    jq '.max_publish_stall_ms = 5000' "$tmp/committed/BENCH_bootstrap.json" >"$tmp/fresh/BENCH_bootstrap.json"
    expect_breach "bootstrap publish stall over the zero-pause ceiling"

    jq '.resume.chunks_resumed = .resume.chunks_total' "$tmp/committed/BENCH_bootstrap.json" >"$tmp/fresh/BENCH_bootstrap.json"
    expect_breach "bootstrap resume replayed the full walk"

    echo "selftest OK: gate trips on every injected regression"
    exit 0
fi

echo "== bench_gate: quick bench suite =="
restore_needed=1
for exp in fig13rt chaos overload causality tail cluster bootstrap; do
    go run ./cmd/synapse-bench -exp "$exp" -quick || {
        echo "bench_gate: $exp run failed" >&2
        exit 1
    }
done
for f in $GATED; do
    cp "$f" "$tmp/fresh/$f"
done
# Fresh output captured; put the committed baselines back now so a
# failing gate never leaves quick-run files in the tree.
for f in $GATED; do
    cp "$tmp/committed/$f" "$f"
done
restore_needed=""

echo "== bench_gate: comparing against committed baselines =="
compare "$tmp/committed" "$tmp/fresh"
if [ "$fails" -gt 0 ]; then
    echo "bench_gate: $fails breach(es) against committed baselines" >&2
    echo "(if intentional, regenerate the baselines: make bench bench-overload bench-causality bench-tail bench-cluster bench-bootstrap and synapse-bench -exp chaos)" >&2
    exit 1
fi
echo "bench_gate OK: all baselines within tolerance"
