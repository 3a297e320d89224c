#!/usr/bin/env bash
# Offline CI for the hermetic workspace.
#
# 1. Guard: no workspace manifest may depend on anything outside the
#    workspace (all deps must be kgm-* path crates).
# 2. Build + test fully offline — proves an empty cargo registry suffices.
# 3. Observability smoke: a profiled harness run must produce a valid JSON
#    run report and BENCH_*.json mirrors. The smokes write those mirrors at
#    the repo root, so the committed BENCH_*.json files are saved under
#    target/ first and restored on exit; the run ends by checking that
#    they are byte-identical to the committed ones.
# 4. Why-provenance gates: provenance-on output bit-identical to
#    provenance-off at 1 and 4 threads, derivation trees sound + grounded
#    against the naive oracle, recording overhead under 2x.
# 5. Incremental-maintenance gates: Engine::apply_update matches the
#    from-scratch chase at 1 and 4 threads (fixed smoke plus fuzzed
#    differential runs), and a single update stays under 10% of a full
#    re-materialization in the refreshed bench rows.
# 6. Serving gates: fixed-seed snapshot-consistency schedules at 1 and 4
#    reader threads, the pin-stability/plan-cache/termination stress suite,
#    and a BENCH_serving.json refresh with a no-global-lock throughput gate
#    (4-reader batch time <= 1.10x the 1-reader batch).
#
# Usage: scripts/ci.sh [--skip-tests]
#
# KGM_SCALE_SMOKE=1 additionally runs a 100k-node registry chase and
# requires the 1-thread and 8-thread outputs to be identical and a
# max_bytes budget to stop a third run (adds ~2s).

set -euo pipefail
cd "$(dirname "$0")/.."

# The committed perf trajectory is regenerated only on purpose, never by a
# CI smoke: keep a copy and put it back however the script exits.
bench_backup=target/ci-bench-backup
mkdir -p "$bench_backup"
cp BENCH_*.json "$bench_backup"/
restore_bench() {
    cp "$bench_backup"/BENCH_*.json .
}
trap restore_bench EXIT

echo "== dependency guard =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Collect dependency names from every [*dependencies*] table of the
    # manifest: section lines like `[dependencies]`, `[dev-dependencies]`,
    # `[target.'cfg(..)'.dependencies]`, then `name = ...` entries until the
    # next section.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) ; next }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            name = $1
            sub(/[ \t]*=.*/, "", name)
            if (name !~ /^kgm[-_]/ && name != "kgmodel") print name
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: $manifest declares non-workspace dependencies:" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "The workspace must stay hermetic (kgm-* crates only)." >&2
    exit 1
fi
echo "ok: all dependencies are workspace-internal"

echo "== cargo tree (must contain only kgm-* crates) =="
if command -v cargo >/dev/null; then
    foreign=$(cargo tree --offline --workspace --prefix none 2>/dev/null \
        | awk '{print $1}' | sort -u | grep -v '^kgm' | grep -v '^kgmodel' || true)
    if [ -n "$foreign" ]; then
        echo "ERROR: cargo resolved non-workspace crates:" >&2
        echo "$foreign" | sed 's/^/    /' >&2
        exit 1
    fi
    echo "ok: dependency graph is workspace-only"
fi

echo "== offline build =="
cargo build --release --offline --workspace

if [ "${1:-}" != "--skip-tests" ]; then
    echo "== offline tests =="
    cargo test -q --offline --workspace
fi

echo "== chaos smoke =="
# Two resilience probes against the release harness binary (built above).
# This runs *before* the observability smoke so the clean profiled run
# below writes BENCH_*.json mirrors without the truncated-chase timings
# these probes produce (the gates below read those mirrors).
#
# 1. A zero deadline must degrade gracefully: exit 0, partial results, and
#    a `chase.termination.deadline` counter in the run report — never an
#    abort or a panic.
# 2. A certain injected fault (`KGM_FAULT=<site>:1.0:<seed>`) must surface
#    as a structured error on stderr with exit code 1 — never an abort
#    (which would exit 101/134) or silent success.
harness=target/release/paper-harness
chaos_report=target/paper-artifacts/run_report_e7.json
rm -f "$chaos_report"
KGM_DEADLINE_MS=0 "$harness" e7 150 --profile >/dev/null
if ! grep -q '"chase.termination.deadline"' "$chaos_report"; then
    echo "ERROR: zero-deadline run report lacks chase.termination.deadline" >&2
    exit 1
fi
set +e
fault_err=$(KGM_FAULT=chase.insert:1.0:7 "$harness" e7 150 2>&1 >/dev/null)
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "ERROR: injected chase.insert fault exited $rc (want 1)" >&2
    exit 1
fi
case "$fault_err" in
    *"injected fault at chase.insert"*) ;;
    *)
        echo "ERROR: fault run stderr lacks the injected-fault message:" >&2
        echo "$fault_err" | sed 's/^/    /' >&2
        exit 1
        ;;
esac
echo "ok: deadline degrades gracefully; injected faults fail structurally"

echo "== differential conformance smoke =="
# Fixed-seed differential run: row-oriented naive oracle vs the columnar
# engine, with the engine forced through both the sequential and the
# sharded-parallel path (the suite itself compares 1/2/8 worker threads per
# case; the KGM_THREADS values exercise both defaults of the ambient
# config).
for threads in 1 4; do
    KGM_PROP_SEED=20220046 KGM_PROP_CASES=64 KGM_THREADS=$threads \
        cargo test --release --offline -q -p kgm-vadalog \
        --test differential >/dev/null
done
echo "ok: 64-case fixed-seed differential run agrees at 1 and 4 threads"

echo "== join-index model check =="
# Fixed-seed run of the fact store's index property: random relations of
# arity 1-3 mixing Int and equal Float values, with interleaved inserts,
# index catch-ups and tombstones; every lookup must return exactly the
# ascending live rows a filtered scan of a row-list model returns.
KGM_PROP_SEED=20220046 KGM_PROP_CASES=300 cargo test --release --offline -q \
    -p kgm-vadalog --lib factdb::tests::index_lookups_match_a_filtered_scan >/dev/null
echo "ok: 300-case fixed-seed index lookups match a filtered scan"

echo "== text-input smoke =="
# Fixed-seed run of the no-panic suite: seeded mutations (with multi-byte
# characters) of the in-repo programs, GSL schema, serving queries, Cypher
# pattern and CSV export must come back Ok or Err from every text entry
# point, never as a panic.
KGM_PROP_SEED=20220046 KGM_PROP_CASES=2000 cargo test --release --offline -q \
    --test text_inputs >/dev/null
echo "ok: 2000-case fixed-seed text-input run raises no panic"

echo "== frozen goldens =="
# Goldens must match byte-for-byte; KGM_GOLDEN_FROZEN forbids blessing and
# turns a missing golden file into a failure.
KGM_GOLDEN_FROZEN=1 cargo test --release --offline -q \
    -p kgm-metalog --test golden_mtv >/dev/null
KGM_GOLDEN_FROZEN=1 cargo test --release --offline -q \
    -p kgm-core --test golden_sst >/dev/null
KGM_GOLDEN_FROZEN=1 cargo test --release --offline -q \
    -p kgm-finance --test golden_explain >/dev/null
echo "ok: MTV + SSST + explanation goldens match byte-for-byte"

echo "== why-provenance smoke =="
# Provenance must be a pure sidecar: the provenance-on chase at 1 and 4
# worker threads produces the exact fact set (digest, derived-fact count,
# null count) of the provenance-off baseline, with identical edge counts —
# paper-harness exits non-zero on any divergence. A fixed-seed run of the
# explanations suite then checks, against the independent naive oracle,
# that every derivation tree is sound and grounded (the suite itself runs
# each case at 1 and 4 threads).
"$harness" prov-smoke 1000
KGM_PROP_SEED=20220046 KGM_PROP_CASES=48 cargo test --release --offline -q \
    -p kgm-vadalog --test explanations >/dev/null
echo "ok: provenance-on facts bit-identical at 1 and 4 threads; trees sound + grounded"

echo "== incremental maintenance smoke =="
# A fixed incorporation + shareholding retraction applied through
# Engine::apply_update must reproduce the from-scratch control relation
# (order-independent digest) at 1 and 4 worker threads without taking the
# rebuild fallback — paper-harness exits non-zero otherwise. A fixed-seed
# run of the incremental differential suite then checks the full contract:
# fuzzed update sequences, verified against the naive oracle after every
# batch, with the provenance-off variant forced through the rebuild path.
"$harness" update 2000
for threads in 1 4; do
    KGM_PROP_SEED=20220046 KGM_PROP_CASES=48 KGM_THREADS=$threads \
        cargo test --release --offline -q -p kgm-vadalog \
        --test incremental >/dev/null
done
echo "ok: incremental updates match from-scratch at 1 and 4 threads"

echo "== serving smoke =="
# Fixed-seed snapshot-consistency runs: 32 fuzzed writer/reader schedules
# per variant (provenance on + off), every reader observation required to be
# exactly some published epoch's fact set per the naive oracle. CI pins the
# reader width to 1 and then 4 (the suite's own default additionally covers
# 8); the stress suite then pins an epoch across 120 live update batches,
# proves plan-cache hits bit-identical to cold plans, and checks the
# partial-result (Termination) marker on truncated epochs.
for readers in 1 4; do
    KGM_PROP_SEED=20220046 KGM_PROP_CASES=32 KGM_SERVE_READERS=$readers \
        cargo test --release --offline -q -p kgm-vadalog \
        --test serving >/dev/null
done
KGM_PROP_SEED=20220046 KGM_PROP_CASES=32 cargo test --release --offline -q \
    -p kgm-vadalog --test serving_stress >/dev/null
echo "ok: 32-schedule consistency runs agree at 1 and 4 readers; pins stable, caches cold per epoch"

# Serving throughput gate: refresh BENCH_serving.json (mixed
# point/aggregate/path/cypher batches against pinned epochs, concurrent
# with a live incorporation-update stream) and require the 4-reader batch
# not to be slower than the 1-reader batch — a global lock across readers
# would show up as a multiple here. median_ns is compared (the workload
# drifts as the writer grows the registry, so min is the noisy statistic
# for once), with 1.10x headroom for scheduler noise. The gate is about
# lock-freedom, not speedup: it must hold even on a runner with fewer cores
# than readers, where shared per-epoch projections still make 4 readers
# faster than 1.
rm -f BENCH_serving.json
"$harness" serve-bench 2000 4096
cargo run --release --offline -q -p kgm-bench --bin paper-harness -- \
    validate-json BENCH_serving.json
serve_ratio=$(awk '
    /"group": "serving\/mixed_t1",/ {
        split($0, a, /"median_ns": /); split(a[2], b, ","); t1 = b[1]
    }
    /"group": "serving\/mixed_t4",/ {
        split($0, a, /"median_ns": /); split(a[2], b, ","); t4 = b[1]
    }
    END {
        if (t1 + 0 == 0 || t4 + 0 == 0) { print "missing"; exit }
        printf "%.2f", t4 / t1
    }
' BENCH_serving.json)
if [ "$serve_ratio" = "missing" ]; then
    echo "ERROR: BENCH_serving.json lacks the serving/mixed_t1 and mixed_t4 rows" >&2
    exit 1
fi
if ! awk -v r="$serve_ratio" 'BEGIN { exit !(r <= 1.10) }'; then
    echo "ERROR: 4-reader serving batch is ${serve_ratio}x the 1-reader batch (> 1.10:" \
        "readers are serializing)" >&2
    exit 1
fi
echo "ok: 4-reader serving throughput >= 1-reader (batch ratio ${serve_ratio}x)"

echo "== observability smoke =="
rm -f BENCH_chase.json BENCH_control_pipeline.json \
    target/paper-artifacts/run_report_e7.json
KGM_LOG=summary cargo run --release --offline -q -p kgm-bench \
    --bin paper-harness -- e7 150 --profile >/dev/null
for f in target/paper-artifacts/run_report_e7.json \
    BENCH_chase.json BENCH_control_pipeline.json; do
    if [ ! -f "$f" ]; then
        echo "ERROR: profiled run did not produce $f" >&2
        exit 1
    fi
done
cargo run --release --offline -q -p kgm-bench --bin paper-harness -- \
    validate-json target/paper-artifacts/run_report_e7.json \
    BENCH_chase.json BENCH_control_pipeline.json
echo "ok: run report + BENCH mirrors written and valid"

# Provenance overhead gate: the refresh wrote the 400-company chase with
# and without ProvStore recording; the prov row must stay under 2x the
# plain row. min_ns is compared — the least noisy statistic a 5-sample
# in-process bench produces.
overhead=$(awk '
    /"group": "chase\/control_vadalog",/ {
        split($0, a, /"min_ns": /); split(a[2], b, ","); plain = b[1]
    }
    /"group": "chase\/control_vadalog_prov",/ {
        split($0, a, /"min_ns": /); split(a[2], b, ","); prov = b[1]
    }
    END {
        if (plain + 0 == 0 || prov + 0 == 0) { print "missing"; exit }
        printf "%.2f", prov / plain
    }
' BENCH_chase.json)
if [ "$overhead" = "missing" ]; then
    echo "ERROR: BENCH_chase.json lacks the control_vadalog/control_vadalog_prov rows" >&2
    exit 1
fi
if ! awk -v r="$overhead" 'BEGIN { exit !(r < 2.0) }'; then
    echo "ERROR: provenance overhead ${overhead}x exceeds the 2x contract" >&2
    exit 1
fi
echo "ok: provenance-on chase is ${overhead}x the plain chase (< 2x)"

# Incremental-maintenance gate: the refresh also wrote a full provenance-on
# materialization and a single incorporation update against the same
# registry; the update row must stay under 10% of the full-chase row, or
# incremental maintenance has stopped paying for itself.
ratio=$(awk '
    /"group": "chase\/control_vadalog_full",/ {
        split($0, a, /"min_ns": /); split(a[2], b, ","); full = b[1]
    }
    /"group": "chase\/control_vadalog_update",/ {
        split($0, a, /"min_ns": /); split(a[2], b, ","); upd = b[1]
    }
    END {
        if (full + 0 == 0 || upd + 0 == 0) { print "missing"; exit }
        printf "%.4f", upd / full
    }
' BENCH_chase.json)
if [ "$ratio" = "missing" ]; then
    echo "ERROR: BENCH_chase.json lacks the control_vadalog_full/control_vadalog_update rows" >&2
    exit 1
fi
if ! awk -v r="$ratio" 'BEGIN { exit !(r < 0.10) }'; then
    echo "ERROR: incremental update costs ${ratio}x of a full chase (>= 0.10)" >&2
    exit 1
fi
echo "ok: a single update costs ${ratio}x of a full re-materialization (< 0.10)"

if [ "${KGM_SCALE_SMOKE:-0}" = "1" ]; then
    echo "== registry-scale smoke (KGM_SCALE_SMOKE=1) =="
    # 100k-node shareholding graph through the company-control chase at
    # 1 vs 8 worker threads; paper-harness exits non-zero unless the two
    # runs produce identical control relations (order-independent digest),
    # derived-fact counts, and null counts, and unless a max_bytes budget
    # halfway between the loaded and the chased store stops a third run
    # with MemoryBudget and a strict subset of the control pairs. This
    # guards the determinism of sharded evaluation and the memory governor
    # at a scale the unit suites never reach.
    "$harness" scale-smoke 100000
    echo "ok: 100k-node chase output identical at 1 and 8 threads; max_bytes stops it"
fi

echo "== parallel chase determinism smoke =="
# The sharded chase guarantees bit-identical output for any KGM_THREADS;
# cross-check the derived-fact counter of the E7 pipeline's own chase span
# (the first `chase.run` in the report — the global `chase.facts_derived`
# counter also accumulates the BENCH refresh, whose adaptive iteration
# count varies with wall-clock, so it is not comparable across runs).
report=target/paper-artifacts/run_report_e7.json
derived() {
    # Every stage reads its input to EOF (no head/early-exit) so no stage
    # takes a SIGPIPE, which pipefail would turn into a spurious CI failure.
    grep -o '"name": "chase.run"[^[]*' "$report" \
        | grep -o '"derived": [0-9]*' | awk 'NR == 1 { print $2 }'
}
KGM_LOG=summary KGM_THREADS=1 cargo run --release --offline -q -p kgm-bench \
    --bin paper-harness -- e7 150 --profile >/dev/null
t1=$(derived)
KGM_LOG=summary KGM_THREADS=4 cargo run --release --offline -q -p kgm-bench \
    --bin paper-harness -- e7 150 --profile >/dev/null
t4=$(derived)
if [ -z "$t1" ] || [ -z "$t4" ]; then
    echo "ERROR: run report lacks the derived record of its first chase.run span" >&2
    exit 1
fi
if [ "$t1" != "$t4" ]; then
    echo "ERROR: sharded chase diverged: $t1 derived facts at KGM_THREADS=1" \
        "vs $t4 at KGM_THREADS=4" >&2
    exit 1
fi
echo "ok: KGM_THREADS=1 and KGM_THREADS=4 both derive $t1 facts"

echo "== committed bench rows untouched =="
restore_bench
git diff --exit-code -- 'BENCH_*.json'
echo "ok: committed BENCH_*.json files are byte-identical"

echo "ci: all checks passed"
