#!/usr/bin/env bash
# CI gate: tier-1 verification plus a full quick figure regeneration.
#
# Exit status mirrors the strictest failure seen:
#   0  everything passed
#   1  build/test failure (tier 1, the `--features proptest` property
#      suites, the criterion bench targets, or the standalone benchmark
#      crate), figures could not write its CSVs, the figure output was
#      not byte-identical across job counts, or bad arguments
#   2  a rendered figure violates the paper's qualitative throughput shape
#   3  the latency gate failed: the polled kernel's p99 forwarding latency
#      is not well below the unmodified kernel's at overload (figure L-1)
#   4  the CPU-share gate failed: figure C-1's conserved cycle ledger does
#      not show the unmodified kernel's rx interrupt share reaching >= 90%
#      with delivery collapsed at wire-saturating load, or shows the
#      cycle-limited polled kernel failing to preserve user+idle share
#   5  the fault gate failed: figure R-1 violates the graceful-degradation
#      claim (the polled kernel stops delivering under the seeded storm,
#      degrades past half its fault-free baseline, or ends the sweep worse
#      than the unmodified kernel)
#   6  the chaos smoke run failed: a seeded fault storm violated a
#      graceful-degradation invariant (see `livelock chaos` exit codes)
#   7  simlint found a non-baselined finding: a determinism,
#      drop-accounting, interrupt-discipline, ledger-discipline,
#      panic-freedom, smp-isolation, flow-discipline, class-discipline,
#      unit-discipline, exit-code-registry, or stale-baseline violation, or `--fix --dry-run` found pending
#      mechanical fixes (run `cargo run -p lint` for the per-rule exit
#      code; `simlint --exit-codes` prints the full registry; on
#      failure a SARIF report lands in target/simlint.sarif)
#   8  the perf smoke failed: `perf --json` emitted a document that does
#      not match the livelock-perf-trajectory/v1 schema, or its
#      throughput fell more than 2x below what the committed
#      BENCH_PR7.json predicts for a smoke-sized run (smaller shortfalls
#      only warn — wall-clock on a shared box is noisy)
#   9  the SMP gate failed: figure S-1 violates the scaling claim (the
#      polled path's MLFRR must scale >= 1.7x at 2 CPUs and >= 2.5x at 4,
#      the shared-queue path must stay <= 1.2x / <= 1.3x, and every
#      per-CPU cycle ledger must conserve), figS_1.csv was not
#      byte-identical across job counts, or the SMP trace smoke failed
#      (`livelock trial --ncpus 4` must print the same table with and
#      without --chrome-trace, and the trace must parse, carry four
#      process groups and be byte-identical across runs)
#  10  the online-detection gate failed: figure O-1 violates the
#      detection claim (the unmodified kernel must report livelock onset
#      and starved flows above the MLFRR while the polled kernel with
#      feedback reports no onset), or figO_1.csv was not byte-identical
#      across job counts, or the JSONL event stream / folded flamegraph
#      from `livelock trial` was not byte-identical across runs
#  11  the observe smoke failed: `livelock observe` did not exit 0 on the
#      default overload (its own exit codes 3-6 name the violated
#      invariant), or its bad-argument path did not exit 2, or
#      `perf --observe` measured the observability layer perturbing the
#      trial or costing more than its wall-clock budget
#  12  the priority gate failed: figure P-1 violates the
#      priority-isolation claim (classified Control must meet its SLO and
#      never be shed across the sweep, with Bulk absorbing the shedding,
#      while the single-class kernel collapses), or figP_1.csv was not
#      byte-identical across job counts
#
# Usage: scripts/ci.sh [--jobs N] [other flags...]
#   --jobs N is validated here; any other flag is passed through to the
#   figures binary unchanged.

set -u
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ci.sh [--jobs N] [flags passed through to figures]" >&2
    exit 1
}

jobs=""
fig_args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --jobs)
        [ $# -ge 2 ] || { echo "ci: --jobs needs a thread count" >&2; usage; }
        case "$2" in
        '' | *[!0-9]* | 0) echo "ci: --jobs: bad thread count '$2'" >&2; usage ;;
        *) jobs=$2 ;;
        esac
        shift 2
        ;;
    --jobs=*)
        jobs=${1#--jobs=}
        case "$jobs" in
        '' | *[!0-9]* | 0) echo "ci: --jobs: bad thread count '$jobs'" >&2; usage ;;
        esac
        shift
        ;;
    -h | --help)
        usage
        ;;
    *)
        # Unknown flags are the figures binary's business, not ours.
        fig_args+=("$1")
        shift
        ;;
    esac
done
jobs_args=()
[ -n "$jobs" ] && jobs_args=(--jobs "$jobs")

echo "== tier 1: cargo build --release =="
cargo build --release || exit 1

echo "== tier 1: cargo test -q =="
cargo test -q || exit 1

echo "== property tests: --features proptest =="
# The property suites are opt-in per crate, so tier 1 compiles them out.
# They hold the scheduler-equivalence properties (heap == calendar, and
# streamed arrivals == arrivals scheduled up front) that the default-heap
# decision rests on; run them here so a gate actually executes them.
cargo test -q --offline --features proptest \
    -p livelock-sim -p livelock-net -p livelock-machine \
    -p livelock-core -p livelock-kernel || exit 1

echo "== bench targets: cargo build --benches =="
# Tier 1 never compiles crates/bench/benches/*.rs, so a bench target can
# rot unnoticed (fig7_1 did: it read a method as a field for several
# PRs). Build them all; nothing is run.
cargo build --release --offline --benches || exit 1

echo "== benchmark crate: build + test =="
# benchmark/ is a package of its own (outside the workspace, so tier 1
# never sees it) that links the simulator's public types — Packet,
# FramePool, Nic, StageStamps, PacketFactory. Build and test it here so
# a change to those cannot break the repo's one benchmark unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml || exit 1

repo=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== simlint: determinism / drop-accounting / interrupt-discipline =="
# The workspace's own static-analysis pass (crates/lint). It enforces the
# conventions the compiler cannot see: no wall-clock time or hash-ordered
# maps in deterministic crates, record_drop as the only drop-counter
# mutation path, interrupt handlers that only initiate polling, ledger
# charges only at executor commit points, panic-free library code,
# cross-CPU state confined to the IPI/steal channel files, per-flow
# metrics mutated only through the KernelStats attribution hooks,
# traffic classes stamped/shed only by the admission gate, no mixed time
# bases in unit-suffixed arithmetic, and every process exit code
# registered in crates/lint/src/registry.rs. Inline
# `// simlint: allow(rule): reason` and crates/lint/baseline.txt cover the
# sanctioned exceptions; anything fresh gates hard here.
if "$repo/target/release/simlint" --root "$repo"; then
    echo "ci: simlint clean"
else
    rc=$?
    echo "ci: FAIL — simlint exited $rc; JSON report follows" >&2
    "$repo/target/release/simlint" --root "$repo" --json >&2 || true
    mkdir -p "$repo/target"
    "$repo/target/release/simlint" --root "$repo" --format sarif \
        > "$repo/target/simlint.sarif" || true
    echo "ci: SARIF report written to target/simlint.sarif" >&2
    exit 7
fi

echo "== simlint --fix --dry-run: no pending mechanical fixes =="
# The autofixer (suppression normalization) must be a no-op on a clean
# tree: fixable debt is
# applied, not accumulated. A pending fix prints its diff and gates.
if "$repo/target/release/simlint" --root "$repo" --fix --dry-run; then
    echo "ci: no pending autofixes"
else
    echo "ci: FAIL — pending mechanical fixes; apply with simlint --fix" >&2
    exit 7
fi

echo "== clippy (advisory) =="
# Advisory only: clippy versions drift and this container may not ship
# it; a finding here never gates, it just surfaces in the log.
if cargo clippy --version > /dev/null 2>&1; then
    if cargo clippy --workspace --all-targets -- -D warnings; then
        echo "ci: clippy clean"
    else
        echo "ci: WARN — clippy reported findings (advisory, not gating)" >&2
    fi
else
    echo "ci: clippy not installed; skipping advisory pass"
fi

echo "== figures --quick: regenerate all figures, check shapes =="
# Run from a scratch directory: the quick-mode CSVs are a smoke check and
# must not overwrite the committed full-fidelity results/.
(cd "$scratch" && "$repo/target/release/figures" --quick "${jobs_args[@]}" \
    ${fig_args[0]+"${fig_args[@]}"})
rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ci: FAIL — rendered figures violate the paper's shapes" >&2
    exit 2
elif [ "$rc" -eq 3 ]; then
    echo "ci: FAIL — latency gate: polled p99 not well below unmodified at overload" >&2
    exit 3
elif [ "$rc" -eq 4 ]; then
    echo "ci: FAIL — CPU-share gate: figure C-1 violates the paper's cycle accounting" >&2
    exit 4
elif [ "$rc" -eq 5 ]; then
    echo "ci: FAIL — fault gate: figure R-1 violates graceful degradation" >&2
    exit 5
elif [ "$rc" -eq 6 ]; then
    echo "ci: FAIL — SMP gate: figure S-1 violates the scaling claim" >&2
    exit 9
elif [ "$rc" -eq 7 ]; then
    echo "ci: FAIL — online-detection gate: figure O-1 violates the detection claim" >&2
    exit 10
elif [ "$rc" -eq 8 ]; then
    echo "ci: FAIL — priority gate: figure P-1 violates the priority-isolation claim" >&2
    exit 12
elif [ "$rc" -ne 0 ]; then
    echo "ci: FAIL — figures exited $rc" >&2
    exit 1
fi

echo "== determinism: figure C-1 byte-identical across job counts =="
# Every trial is independently seeded, so the CSV must not depend on how
# trials were fanned out. Render the ledger figure serially and in
# parallel and compare bytes.
mkdir -p "$scratch/j1" "$scratch/jN"
(cd "$scratch/j1" && "$repo/target/release/figures" --quick --fig C-1 --jobs 1) || exit 1
(cd "$scratch/jN" && "$repo/target/release/figures" --quick --fig C-1 --jobs 4) || exit 1
if cmp -s "$scratch/j1/results/figC_1.csv" "$scratch/jN/results/figC_1.csv"; then
    echo "ci: figC_1.csv byte-identical at --jobs 1 and --jobs 4"
else
    echo "ci: FAIL — figC_1.csv differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi

echo "== determinism: figure R-1 byte-identical across job counts =="
# Same determinism contract for the fault figure: its intensity-0 column
# runs with no fault plan at all (the zero-fault baseline), and the seeded
# storms must land identically no matter how trials are fanned out.
(cd "$scratch/j1" && "$repo/target/release/figures" --quick --fig R-1 --jobs 1) || exit 1
(cd "$scratch/jN" && "$repo/target/release/figures" --quick --fig R-1 --jobs 4) || exit 1
if cmp -s "$scratch/j1/results/figR_1.csv" "$scratch/jN/results/figR_1.csv"; then
    echo "ci: figR_1.csv byte-identical at --jobs 1 and --jobs 4"
else
    echo "ci: FAIL — figR_1.csv differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi

echo "== determinism: figure S-1 byte-identical across job counts =="
# The SMP figure's trials interleave up to four per-CPU engines through
# the cluster's round-robin slices; the determinism contract extends to
# that interleaving, so the rendered CSV must not depend on host job
# count any more than the single-engine figures do.
(cd "$scratch/j1" && "$repo/target/release/figures" --quick --fig S-1 --jobs 1) || exit 1
(cd "$scratch/jN" && "$repo/target/release/figures" --quick --fig S-1 --jobs 4) || exit 1
if cmp -s "$scratch/j1/results/figS_1.csv" "$scratch/jN/results/figS_1.csv"; then
    echo "ci: figS_1.csv byte-identical at --jobs 1 and --jobs 4"
else
    echo "ci: FAIL — figS_1.csv differs between --jobs 1 and --jobs 4" >&2
    exit 9
fi

echo "== SMP trace smoke: --chrome-trace honours --ncpus, deterministically =="
# One trial pipeline serves every entry point, so tracing a 4-CPU trial
# must measure the same 4-CPU trial (it used to silently run one CPU),
# export one Chrome-trace process group per CPU, and — like every other
# artifact — come out byte-identical from two fresh processes.
smp_trial=("$repo/target/release/livelock" trial --config polled --rate 30000
    --packets 5000 --ncpus 4)
mkdir -p "$scratch/smp"
"${smp_trial[@]}" > "$scratch/smp/plain.txt" &&
    "${smp_trial[@]}" --chrome-trace "$scratch/smp/a.json" > "$scratch/smp/traced.txt" 2> /dev/null &&
    "${smp_trial[@]}" --chrome-trace "$scratch/smp/b.json" > /dev/null 2>&1 || {
    echo "ci: FAIL — livelock trial --ncpus 4 [--chrome-trace] exited nonzero" >&2
    exit 9
}
if cmp -s "$scratch/smp/plain.txt" "$scratch/smp/traced.txt"; then
    echo "ci: 4-CPU trial prints the same table with and without --chrome-trace"
else
    echo "ci: FAIL — --chrome-trace changed what a 4-CPU trial measured" >&2
    diff "$scratch/smp/plain.txt" "$scratch/smp/traced.txt" >&2
    exit 9
fi
if cmp -s "$scratch/smp/a.json" "$scratch/smp/b.json" && python3 - "$scratch/smp/a.json" <<'PYEOF'
import json, sys
pids = {e["pid"] for e in json.load(open(sys.argv[1]))["traceEvents"]}
if pids != {1, 2, 3, 4}:
    sys.exit(f"4-CPU trace carries process groups {sorted(pids)}, want [1, 2, 3, 4]")
PYEOF
then
    echo "ci: 4-CPU chrome trace parses, has four process groups, byte-identical across runs"
else
    echo "ci: FAIL — 4-CPU chrome trace differs between runs, does not parse, or lacks a CPU" >&2
    exit 9
fi

echo "== determinism: figure O-1 byte-identical across job counts =="
# The online-detection figure runs with the full observability layer on
# (per-flow registry, livelock detector, cycle fold); the determinism
# contract extends to everything the layer measures, so its CSV must not
# depend on host job count either.
(cd "$scratch/j1" && "$repo/target/release/figures" --quick --fig O-1 --jobs 1) || exit 1
(cd "$scratch/jN" && "$repo/target/release/figures" --quick --fig O-1 --jobs 4) || exit 1
if cmp -s "$scratch/j1/results/figO_1.csv" "$scratch/jN/results/figO_1.csv"; then
    echo "ci: figO_1.csv byte-identical at --jobs 1 and --jobs 4"
else
    echo "ci: FAIL — figO_1.csv differs between --jobs 1 and --jobs 4" >&2
    exit 10
fi

echo "== determinism: figure P-1 byte-identical across job counts =="
# The priority figure threads the class dimension through the whole
# stack (classifier, per-class rings, shed controller, per-class
# latency ledgers); its CSV must not depend on host job count either.
(cd "$scratch/j1" && "$repo/target/release/figures" --quick --fig P-1 --jobs 1) || exit 1
(cd "$scratch/jN" && "$repo/target/release/figures" --quick --fig P-1 --jobs 4) || exit 1
if cmp -s "$scratch/j1/results/figP_1.csv" "$scratch/jN/results/figP_1.csv"; then
    echo "ci: figP_1.csv byte-identical at --jobs 1 and --jobs 4"
else
    echo "ci: FAIL — figP_1.csv differs between --jobs 1 and --jobs 4" >&2
    exit 12
fi

echo "== determinism: event stream and flamegraph byte-identical across runs =="
# The observability artifacts themselves are part of the determinism
# contract: the JSONL event stream and the folded flamegraph from two
# fresh processes of the same trial must match byte for byte.
mkdir -p "$scratch/obs1" "$scratch/obs2"
for d in obs1 obs2; do
    "$repo/target/release/livelock" trial --config screend --rate 12000 \
        --packets 2000 --seed 7 \
        --events "$scratch/$d/events.jsonl" \
        --flamegraph "$scratch/$d/trial.folded" > /dev/null || {
        echo "ci: FAIL — livelock trial --events/--flamegraph exited nonzero" >&2
        exit 10
    }
done
if cmp -s "$scratch/obs1/events.jsonl" "$scratch/obs2/events.jsonl" \
    && cmp -s "$scratch/obs1/trial.folded" "$scratch/obs2/trial.folded"; then
    echo "ci: events.jsonl and trial.folded byte-identical across runs"
else
    echo "ci: FAIL — observability artifacts differ between identical runs" >&2
    exit 10
fi
if [ -s "$scratch/obs1/events.jsonl" ] && [ -s "$scratch/obs1/trial.folded" ]; then
    echo "ci: observability artifacts are non-empty"
else
    echo "ci: FAIL — an observability artifact is empty" >&2
    exit 10
fi

echo "== committed results: full-fidelity figures byte-identical =="
# The committed results/*.csv are the paper artifact; the engine (default
# heap scheduler, arrivals streamed from the arrival source) must
# reproduce every byte. Regenerate the full-fidelity
# set in scratch and compare file by file.
mkdir -p "$scratch/full"
(cd "$scratch/full" && "$repo/target/release/figures") || exit 1
results_ok=1
for f in "$repo"/results/*.csv; do
    base=$(basename "$f")
    if cmp -s "$f" "$scratch/full/results/$base"; then
        :
    else
        echo "ci: FAIL — committed results/$base differs from a fresh full-fidelity render" >&2
        results_ok=0
    fi
done
[ "$results_ok" -eq 1 ] || exit 1
echo "ci: all committed results/*.csv byte-identical to a fresh render"

echo "== perf --json smoke: schema + soft regression gate =="
# A smoke-sized perf-trajectory run (200 packets/trial vs the committed
# artifact's 10000): validate the livelock-perf-trajectory/v1 schema
# (including its documented stable field order) and soft-gate throughput
# against the committed BENCH_PR7.json. Smoke runs amortize setup worse,
# so the expected smoke throughput is about half the committed
# events/sec; dipping below that prints a warning, and only a >2x
# regression below it (i.e. under a quarter of the committed rate) exits
# nonzero.
"$repo/target/release/perf" --packets 200 --json > "$scratch/perf.json" || {
    echo "ci: FAIL — perf --json exited nonzero" >&2
    exit 8
}
if python3 - "$scratch/perf.json" "$repo/BENCH_PR7.json" <<'PYEOF'
import json, sys

def ordered(path):
    with open(path) as f:
        return json.load(f, object_pairs_hook=lambda ps: ps)

def keys(pairs):
    return [k for k, _ in pairs]

def get(pairs, key):
    return dict(pairs)[key]

smoke = ordered(sys.argv[1])
committed = ordered(sys.argv[2])

TOP = ["schema", "packets_per_trial", "jobs", "engines",
       "calendar_speedup_vs_heap", "seed_baseline_wall_s",
       "seed_baseline_packets_per_trial", "seed_baseline_note",
       "speedup_vs_seed"]
ENGINE = ["engine", "figures", "total_wall_s", "total_events",
          "events_per_sec"]
FIGURE = ["id", "wall_s", "events_dispatched", "events_per_sec"]

def check_doc(doc, name):
    if keys(doc) != TOP:
        sys.exit(f"{name}: top-level keys {keys(doc)} != {TOP}")
    if get(doc, "schema") != "livelock-perf-trajectory/v1":
        sys.exit(f"{name}: unexpected schema {get(doc, 'schema')!r}")
    engines = get(doc, "engines")
    if [get(e, "engine") for e in engines] != ["heap", "calendar"]:
        sys.exit(f"{name}: engines must be [heap, calendar]")
    for e in engines:
        if keys(e) != ENGINE:
            sys.exit(f"{name}: engine keys {keys(e)} != {ENGINE}")
        figures = get(e, "figures")
        if not figures:
            sys.exit(f"{name}: empty figure list")
        for fig in figures:
            if keys(fig) != FIGURE:
                sys.exit(f"{name}: figure keys {keys(fig)} != {FIGURE}")
            if get(fig, "events_dispatched") <= 0:
                sys.exit(f"{name}: figure {get(fig, 'id')} dispatched no events")
    return engines

smoke_engines = check_doc(smoke, "smoke")
committed_engines = check_doc(committed, "BENCH_PR7.json")
print("ci: perf --json matches livelock-perf-trajectory/v1 (stable field order)")

smoke_eps = get(smoke_engines[1], "events_per_sec")
committed_eps = get(committed_engines[1], "events_per_sec")
ratio = smoke_eps / committed_eps
print(f"ci: smoke calendar throughput {smoke_eps:,.0f} ev/s "
      f"({ratio:.2f}x of committed {committed_eps:,.0f} ev/s; "
      f"smoke-sized runs expect ~0.5x)")
if ratio < 0.25:
    sys.exit(f"smoke throughput is a >2x regression below the expected "
             f"smoke-scale rate ({ratio:.2f}x of committed, floor 0.25x)")
if ratio < 0.5:
    print(f"ci: WARN — smoke throughput below the expected smoke-scale "
          f"rate ({ratio:.2f}x of committed); not gating, but worth a look",
          file=sys.stderr)
PYEOF
then
    echo "ci: perf smoke OK"
else
    echo "ci: FAIL — perf smoke schema or >2x throughput regression (see above)" >&2
    exit 8
fi

echo "== perf --observe: zero-perturbation + overhead budget =="
# Paired off/on trials: the binary asserts the observed run's measured
# fields are bit-identical to the unobserved run's, and that the layer's
# wall-clock cost stays inside its budget.
if "$repo/target/release/perf" --observe --packets 200; then
    echo "ci: observability layer unperturbing and within budget"
else
    echo "ci: FAIL — perf --observe found perturbation or a budget overrun" >&2
    exit 11
fi

echo "== observe smoke: online detection exit codes =="
# The observe subcommand's contract is its exit code: 0 when the
# unmodified kernel livelocks above the MLFRR, the polled kernel does
# not, the starvation watch separates them, and every per-flow ledger
# closes exactly; 3-6 name the violated invariant; 2 is bad arguments.
if "$repo/target/release/livelock" observe; then
    echo "ci: observe invariants hold at the default overload"
else
    rc=$?
    echo "ci: FAIL — livelock observe exited $rc (see invariant list above)" >&2
    exit 11
fi
"$repo/target/release/livelock" observe --rate -5 > /dev/null 2>&1
rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ci: observe rejects bad arguments with exit 2"
else
    echo "ci: FAIL — livelock observe --rate -5 exited $rc, want 2" >&2
    exit 11
fi

echo "== chaos smoke: seeded fault storm, graceful-degradation invariants =="
# A fixed-seed storm against both kernels: the polled kernel must keep
# delivering, un-wedge every injected stall, and conserve the ledger,
# while the unmodified kernel livelocks under the identical plan. The
# binary asserts all of that and reports each violation with its own
# exit code.
if "$repo/target/release/livelock" chaos --seed 49157; then
    echo "ci: chaos invariants hold under seed 49157"
else
    rc=$?
    echo "ci: FAIL — chaos smoke run exited $rc (see invariant list above)" >&2
    exit 6
fi

echo "== chaos --priority smoke: inversion storm, per-invariant exit codes =="
# The priority storm variant: under the same seeded fault storm the
# classified polled kernel must produce no priority-inversion event
# (exit 9 if it does) while the single-class unmodified kernel must
# produce at least one (exit 10 if it does not), on top of every
# graceful-degradation invariant the plain smoke checks.
if "$repo/target/release/livelock" chaos --priority --seed 49157; then
    echo "ci: priority-inversion invariants hold under seed 49157"
else
    rc=$?
    echo "ci: FAIL — chaos --priority run exited $rc (see invariant list above)" >&2
    exit 6
fi
# The variant's bad-argument path stays exit 2 like every subcommand's.
"$repo/target/release/livelock" chaos --priority --rate -5 > /dev/null 2>&1
rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ci: chaos --priority rejects bad arguments with exit 2"
else
    echo "ci: FAIL — livelock chaos --priority --rate -5 exited $rc, want 2" >&2
    exit 6
fi

echo "ci: OK"
