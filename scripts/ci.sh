#!/usr/bin/env bash
# Offline CI for the hermetic workspace.
#
# 0. Format: `cargo fmt --all --check` must report nothing, and
#    `cargo clippy --workspace --all-targets` must warn about nothing.
# 1. Guard: no workspace manifest may depend on anything outside the
#    workspace (all deps must be kgm-* path crates).
# 2. Build + test fully offline — proves an empty cargo registry suffices.
# 3. Observability smoke: a profiled harness run must produce a valid JSON
#    run report whose `intensional.flush` span carries `vm_hwm_kib`, and
#    the committed reference run BENCH_kgbench.json must be
#    valid JSON. The script ends by checking that `git status --porcelain`
#    reads exactly as it did when the script started: the smokes write
#    only under target/, and none of them regenerates BENCH_kgbench.json
#    (only `kgbench all --seed 1` plus a copy does).
# 4. Why-provenance gates: provenance-on output bit-identical to
#    provenance-off at 1 and 4 threads, derivation trees sound + grounded
#    against the naive oracle.
# 5. Incremental-maintenance gates: Engine::apply_update matches the
#    from-scratch chase at 1 and 4 threads (fixed smoke plus fuzzed
#    differential runs).
# 6. Serving gates: fixed-seed snapshot-consistency schedules at 1 and 4
#    reader threads and the pin-stability/plan-cache/termination stress
#    suite.
# 7. Timing gates: one `paper-harness gates` process times three pairs of
#    legs and requires recording provenance to cost < 2x the plain chase,
#    one update < 0.10x a full chase, and a query batch on 4 readers
#    <= 1.10x the batch on 1 reader under a live writer.
# 8. Staging smoke: E10's single-pass and staged Algorithm 2 runs must
#    flush the same control pairs as the baseline algorithm, and the
#    related pairs and families of the families baseline; E8's Algorithm 2
#    pipeline and direct Vadalog program must flush the control pairs too.
# 9. Registry-scale smoke: a 100k-node registry chase must derive the same
#    control relation, derived-fact count and null count at 1, 2 and 8
#    threads, and a max_bytes budget must stop a fourth run.
#
# Usage: scripts/ci.sh [--skip-tests]

set -euo pipefail
cd "$(dirname "$0")/.."

# No smoke may leave a trace in the working tree: the last step compares
# `git status --porcelain` with this reading.
tree_at_start=$(git status --porcelain)

echo "== format check =="
cargo fmt --all --check
echo "ok: the workspace is formatted"

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "ok: clippy reports nothing"

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
# The zero-deadline probe writes run_report_e7.json; the observability and
# determinism smokes below delete and rewrite that report, so none of them
# reads another's output.
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
# arity 1-3 mixing pooled values (Int and equal Float) with inline OID cells
# of all three spaces, the largest payloads included, with interleaved
# inserts, index catch-ups and tombstones; every lookup must return exactly
# the ascending live rows a filtered scan of a row-list model returns. The
# cases cover both index layouts: indexes that keep unique keys to the end,
# and unique indexes that convert to posting segments on a repeated key.
KGM_PROP_SEED=20220046 KGM_PROP_CASES=300 cargo test --release --offline -q \
    -p kgm-vadalog --lib factdb::tests::index_lookups_match_a_filtered_scan >/dev/null
echo "ok: 300-case fixed-seed index lookups match a filtered scan"

echo "== graph model check =="
# Fixed-seed run of the property graph's layout property: random sequences
# of every mutation (repeated labels and keys, self-loops, parallel edges,
# removals, unique constraints, fresh_oid gaps); after each step every read
# accessor must agree with a one-Vec-per-element model of the graph.
KGM_PROP_SEED=20220046 KGM_PROP_CASES=300 cargo test --release --offline -q \
    -p kgm-pgstore --lib graph::tests::arena_layout_matches_a_vec_per_element_model >/dev/null
echo "ok: 300-case fixed-seed graph reads match a one-Vec-per-element model"

echo "== text-input smoke =="
# Fixed-seed run of the no-panic suite: seeded mutations (with multi-byte
# characters) of the in-repo programs, GSL schema, serving queries, Cypher
# pattern, CSV export, CSV deployment with its manifest and KGM_FAULT spec
# must come back Ok or Err from every text entry point, never as a panic.
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
    -p kgm-core --test golden_instances >/dev/null
KGM_GOLDEN_FROZEN=1 cargo test --release --offline -q \
    -p kgm-core --test golden_views >/dev/null
KGM_GOLDEN_FROZEN=1 cargo test --release --offline -q \
    -p kgm-finance --test golden_explain >/dev/null
echo "ok: MTV + SSST + instance-relation + view-program + explanation goldens match byte-for-byte"

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

echo "== timing gates =="
# One process times three pairs of legs, five samples each, every sample
# the mean call time over a batch of about 5 ms, and exits non-zero naming
# each gate that fails:
# - provenance: the 400-node chase with why-provenance recording must take
#   < 2x the plain chase (fastest samples);
# - update: one incorporation through Engine::apply_update must take
#   < 0.10x a full provenance-on chase of the 2,000-node registry (fastest
#   samples), or incremental maintenance has stopped paying for itself;
# - readers: 4,096-query mixed point/aggregate/path/cypher batches on 4
#   reader threads must take <= 1.10x the batch on 1 reader (medians of
#   legs timed in ABBA order: the writer thread streaming updates
#   meanwhile grows the registry, so the fastest sample drifts). The gate
#   is about lock-freedom, not speed-up, so it holds on fewer cores than
#   readers too; on 2 vCPUs it does not reliably catch one global lock.
"$harness" gates
echo "ok: provenance, update and reader timing gates hold"

echo "== observability smoke =="
report=target/paper-artifacts/run_report_e7.json
rm -f "$report"
KGM_LOG=summary cargo run --release --offline -q -p kgm-bench \
    --bin paper-harness -- e7 150 --profile >/dev/null
if [ ! -f "$report" ]; then
    echo "ERROR: profiled run did not produce $report" >&2
    exit 1
fi
cargo run --release --offline -q -p kgm-bench --bin paper-harness -- \
    validate-json "$report" BENCH_kgbench.json
# Each Algorithm 2 phase records the process's peak resident set as it
# closes, so the report tells which phase set the peak. Both greps read
# their input to EOF, so pipefail sees no SIGPIPE.
if ! grep -o '"name": "intensional.flush"[^[]*' "$report" |
    grep '"vm_hwm_kib": [0-9]' >/dev/null; then
    echo "ERROR: $report carries no vm_hwm_kib on intensional.flush" >&2
    exit 1
fi
echo "ok: run report written and valid, with the flush's vm_hwm_kib; BENCH_kgbench.json valid"

echo "== staging smoke =="
# E10 runs Algorithm 2 single-pass and staged over one seeded registry;
# paper-harness exits non-zero unless both modes flush the same control
# pairs, and those of the independent baseline algorithm, and unless both
# modes flush the families baseline's related pairs and families over a
# full Company KG registry. E8 exits non-zero unless the pipeline and the
# direct Example 4.2 program both find the baseline's pairs.
"$harness" e10 150 >/dev/null
"$harness" e8 150 >/dev/null
echo "ok: single-pass and staged materialization find the baselines' control pairs and families, and the direct program the control pairs"

echo "== registry-scale smoke =="
# 100k-node shareholding graph through the company-control chase at 1, 2
# and 8 worker threads; paper-harness exits non-zero unless the three runs
# produce identical control relations (order-independent digest),
# derived-fact counts, and null counts, and unless a max_bytes budget
# halfway between the loaded and the chased store stops a fourth run with
# MemoryBudget and a strict subset of the control pairs. This guards the
# determinism of sharded evaluation, which hands its output to the writer
# in waves: at this scale the largest scan ranges fit one wave at 8
# threads and span several at 2, the default on a 2-vCPU runner. It also
# guards the memory governor at a scale the unit suites never reach.
"$harness" scale-smoke 100000
echo "ok: 100k-node chase output identical at 1, 2 and 8 threads; max_bytes stops it"

echo "== parallel chase determinism smoke =="
# The sharded chase guarantees bit-identical output for any KGM_THREADS;
# cross-check the derived-fact count of the E7 pipeline's chase span (the
# first `chase.run` in the report).
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

echo "== working tree untouched =="
tree_now=$(git status --porcelain)
if [ "$tree_now" != "$tree_at_start" ]; then
    echo "ERROR: the smokes changed the working tree; git status --porcelain" \
        "read, at the start and now:" >&2
    echo "$tree_at_start" | sed 's/^/    /' >&2
    echo "    --" >&2
    echo "$tree_now" | sed 's/^/    /' >&2
    exit 1
fi
echo "ok: git status --porcelain reads as it did at the start"

echo "ci: all checks passed"
