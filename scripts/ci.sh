#!/usr/bin/env bash
# CI gate: tier-1 verification, static analysis (clippy),
# every figure's claims and byte-identity, the benchmark smoke and the
# CLI smokes. Needs cargo with clippy; without clippy it fails (exit 7).
#
# Exit status is the first failing step's code, 0 when everything
# passed. These rows are the only list of the codes: a test in
# crates/bench/tests/exit_codes.rs checks them both ways against every
# `exit N` below, and README's exit-code table is generated from them.
# exit 1 — build-test-io — build or test failure, a committed figure CSV or figures_full.txt differing from a fresh render, figures exiting 1, or bad arguments
# exit 2 — figure-shape — a paper figure's shape or calibration claim failed (figures exit 2)
# exit 3 — latency-gate — an L-1 latency claim failed (figures exit 3)
# exit 4 — cpu-share-gate — a C-1 CPU-share claim failed (figures exit 4)
# exit 5 — fault-gate — an R-1 fault-storm claim failed (figures exit 5)
# exit 6 — chaos-smoke — a `livelock chaos` smoke run failed
# exit 7 — static-analysis — clippy found something, clippy is missing, or the seeded crate was not rejected
# exit 8 — bench-smoke — a benchmark unit failed, or a sim_digest differs from the newest BENCH_PR<N>.json
# exit 9 — smp-gate — an S-1 SMP claim failed (figures exit 6), or the 4-CPU chrome-trace or fan-out smoke did
# exit 10 — observe-gate — an O-1 online-detection claim failed (figures exit 7), or the event-stream/flamegraph rerun smoke did
# exit 11 — observe-smoke — the `livelock observe` smoke failed
# exit 12 — priority-gate — a P-1 priority-isolation claim failed (figures exit 8)
#
# Usage: scripts/ci.sh [--jobs N] [other flags...]
#   --jobs N is validated here and sets the job count the full-fidelity
#   figure set renders at (default 4); any other flag is passed through
#   to the quick render's figures binary, which rejects what it does not
#   know.

set -u
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ci.sh [--jobs N] [flags passed through to figures]" >&2
    exit 1
}

jobs=4
fig_args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --jobs)
        [ $# -ge 2 ] || { echo "ci: --jobs needs a thread count" >&2; usage; }
        jobs=$2
        shift 2
        ;;
    --jobs=*)
        jobs=${1#--jobs=}
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
case "$jobs" in
'' | *[!0-9]* | 0) echo "ci: --jobs: bad thread count '$jobs'" >&2; usage ;;
esac

# Opens a step: prints the wall time of the one before it (printed,
# never gated) and this one's banner. `step ""` closes the last step.
step_name=
step_start=$SECONDS
step() {
    [ -z "$step_name" ] || echo "ci: $((SECONDS - step_start)) s — $step_name"
    step_name=$1
    step_start=$SECONDS
    [ -z "$step_name" ] || echo "== $step_name =="
}

step "tier 1: cargo build --release"
cargo build --release || exit 1

step "tier 1: cargo test -q"
cargo test -q || exit 1

step "benchmark crate: build + test"
# benchmark/ is a package of its own (outside the workspace, so tier 1
# never sees it) that links the simulator's public types and the figure
# table's entry points. Build and test it here so a change to those
# cannot break the repo's one measuring stick unnoticed.
bench_manifest=(--release --offline --manifest-path benchmark/Cargo.toml)
cargo build "${bench_manifest[@]}" && cargo test -q "${bench_manifest[@]}" || exit 1

repo=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

step "counted lines under crates/ and in the editable docs (printed, never gated)"
# The sizes ROADMAP tracks, reproduced rather than hand-counted. Code:
# non-blank, non-comment lines before a file's first top-level
# #[cfg(test)], with crates/**/tests left out.
# Docs: every line of the four docs a change may edit (benchmark/README.md
# belongs to the benchmark).
find crates -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*($|\/\/)/{n++} END{print "ci: crates/ counted lines:", n}'
cat README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md |
    awk 'END{print "ci: editable docs lines (README, DESIGN, EXPERIMENTS, verify skill):", NR}'

step "static analysis: clippy, and a seeded crate clippy must reject"
# One gate, exit 7. Clippy checks the determinism contract (no wall
# clock, hash-ordered container or host thread) and no `process::exit`
# (a bin returns its exit enum) on every target, both from clippy.toml's
# disallowed lists, and panic-freedom on the simulator's library
# targets. Sanctioned exceptions carry
# `#[expect(clippy::lint, reason = "...")]`; an `#[expect]` that no
# longer fires is itself a warning, so a stale one fails here too. The
# one convention clippy cannot see (no unit-named binding declared as a
# bare number) is a tier-1 test in crates/lint.
if ! cargo clippy --version > /dev/null 2>&1; then
    echo "ci: FAIL — cargo clippy is not installed; the determinism and panic-freedom checks cannot run" >&2
    exit 7
fi
# Runs both clippy passes on the cargo project whose manifest is $1, with
# the repo's clippy.toml: every target of every package with warnings
# denied, then the library targets of the packages named by the
# remaining arguments (`-p crate ...`) with the panic lints denied too.
# Library code only: a test, example or binary may panic as its failure
# report. Both passes always run; fails if either found anything.
clippy_gate() {
    local manifest=$1 rc=0
    shift
    CLIPPY_CONF_DIR="$repo" cargo clippy --offline --quiet --manifest-path "$manifest" \
        --workspace --all-targets -- -D warnings || rc=1
    CLIPPY_CONF_DIR="$repo" cargo clippy --offline --quiet --manifest-path "$manifest" \
        --lib "$@" -- -D warnings -D clippy::unwrap_used -D clippy::expect_used \
        -D clippy::panic -D clippy::todo -D clippy::unimplemented || rc=1
    return $rc
}
if clippy_gate "$repo/Cargo.toml" -p livelock-sim -p livelock-net -p livelock-machine \
    -p livelock-core -p livelock-kernel -p lint; then
    echo "ci: clippy clean (all targets; panic lints on the library targets)"
else
    echo "ci: FAIL — clippy reported findings (see above)" >&2
    exit 7
fi
# The gate must bite: a scratch library with one violation of each kind
# fails it naming every one, and a twin with the same panics only in
# test code and an example passes it.
seeded="$scratch/seeded"
mkdir -p "$seeded/bad/src" "$seeded/clean/src" "$seeded/clean/examples"
for kind in bad clean; do
    printf '[package]\nname = "seeded-%s"\nversion = "0.1.0"\nedition = "2021"\n\n[workspace]\n' \
        "$kind" > "$seeded/$kind/Cargo.toml"
done
cat > "$seeded/bad/src/lib.rs" <<'RSEOF'
use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn hashed() -> (HashMap<u8, u8>, HashSet<u8>) {
    (HashMap::new(), HashSet::new())
}

pub fn threads() {
    let _ = std::thread::spawn(|| {});
}

pub fn raw_exit() {
    std::process::exit(3);
}

pub fn panics(o: Option<u8>, r: Result<u8, ()>) -> u8 {
    if o.is_none() {
        panic!("none");
    }
    if r.is_err() {
        todo!();
    }
    if o == Some(0) {
        unimplemented!();
    }
    o.unwrap() + r.expect("ok")
}
RSEOF
cat > "$seeded/clean/src/lib.rs" <<'RSEOF'
pub fn add(a: u8, b: u8) -> Option<u8> {
    a.checked_add(b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_a_test_failure_report() {
        let o = super::add(1, 2);
        if o.is_none() {
            panic!("none");
        }
        if o == Some(0) {
            todo!();
        }
        if o == Some(1) {
            unimplemented!();
        }
        assert_eq!(o.unwrap(), o.expect("some"));
    }
}
RSEOF
cat > "$seeded/clean/examples/demo.rs" <<'RSEOF'
fn main() {
    println!("{}", seeded_clean::add(1, 2).unwrap());
}
RSEOF
clippy_gate "$seeded/bad/Cargo.toml" -p seeded-bad > "$seeded/bad.log" 2>&1
rc=$?
missing=()
for want in 'disallowed type `std::time::Instant`' 'disallowed type `std::time::SystemTime`' \
    'disallowed type `std::collections::HashMap`' 'disallowed type `std::collections::HashSet`' \
    'disallowed method `std::thread::spawn`' 'disallowed method `std::process::exit`' \
    '`-D clippy::unwrap-used`' '`-D clippy::expect-used`' \
    '`-D clippy::panic`' '`-D clippy::todo`' '`-D clippy::unimplemented`'; do
    grep -qF -- "$want" "$seeded/bad.log" || missing+=("$want")
done
if [ "$rc" -ne 0 ] && [ ${#missing[@]} -eq 0 ]; then
    echo "ci: clippy gate rejects each seeded determinism, exit and panic violation"
else
    cat "$seeded/bad.log" >&2
    echo "ci: FAIL — clippy gate exited $rc on the seeded crate; not reported: ${missing[*]:-none}" >&2
    exit 7
fi
if clippy_gate "$seeded/clean/Cargo.toml" -p seeded-clean > "$seeded/clean.log" 2>&1; then
    echo "ci: clippy gate passes the same panics in test code and an example"
else
    cat "$seeded/clean.log" >&2
    echo "ci: FAIL — clippy gate flagged panics in test code or an example" >&2
    exit 7
fi

# Renders the figure table from directory $1 (a scratch directory, so
# the committed full-fidelity results/ are never overwritten) with the
# figures flags that follow, its stdout to $1/stdout.txt, and maps a
# failed claim's figures exit to this script's code. A figures exit code
# without an arm here fails as 1.
figures_gate() {
    mkdir -p "$1"
    local dir=$1
    shift
    (cd "$dir" && "$repo/target/release/figures" "$@" > stdout.txt)
    rc=$?
    case "$rc" in
    0) ;;
    2) echo "ci: FAIL — rendered figures violate the paper's shapes" >&2 ; exit 2 ;;
    3) echo "ci: FAIL — latency gate: figure L-1" >&2 ; exit 3 ;;
    4) echo "ci: FAIL — CPU-share gate: figure C-1" >&2 ; exit 4 ;;
    5) echo "ci: FAIL — fault gate: figure R-1" >&2 ; exit 5 ;;
    6) echo "ci: FAIL — SMP gate: figure S-1" >&2 ; exit 9 ;;
    7) echo "ci: FAIL — online-detection gate: figure O-1" >&2 ; exit 10 ;;
    8) echo "ci: FAIL — priority gate: figure P-1" >&2 ; exit 12 ;;
    *) echo "ci: FAIL — figures exited $rc" >&2 ; exit 1 ;;
    esac
}

step "figures --quick: every claim"
# The claims a --quick user sees, rendered serially. That no CSV depends
# on the job count is shown at full fidelity below, against the
# committed CSVs (and the benchmark smoke renders every figure serially
# against the same CSVs).
figures_gate "$scratch/quick" --quick --jobs 1 ${fig_args[0]+"${fig_args[@]}"}
# An id outside the table renders nothing, so it must not pass as "ok".
(cd "$scratch" && "$repo/target/release/figures" --fig 9-9 > /dev/null 2>&1)
rc=$?
if [ "$rc" -eq 1 ]; then
    echo "ci: figures rejects an unknown figure id with exit 1"
else
    echo "ci: FAIL — figures --fig 9-9 exited $rc, want 1" >&2
    exit 1
fi
# A degenerate trial or storm spec is a usage error, not a panic (exit
# 101) or a hang (hence the timeout: an unbounded storm never returns);
# so is a job count over the bound, refused before any thread starts,
# an MLFRR search whose trials are too short to measure anything, an
# observe run too short for any flow to starve, and a CPU count whose
# queues the default flow set loads unevenly.
for bad_spec in "trial --packets 0" "mlfrr --loss-free nan" "chaos --intensity inf" \
    "chaos --packets 5" "trial --rate 1e-6 --packets 2" "mlfrr --jobs 65" \
    "mlfrr --packets 2 --jobs 1" "mlfrr --packets 55 --jobs 1" "observe --packets 100" \
    "trial --ncpus 5"; do
    timeout 60 "$repo/target/release/livelock" $bad_spec > /dev/null 2>&1
    rc=$?
    if [ "$rc" -eq 2 ]; then
        echo "ci: livelock $bad_spec is rejected with exit 2"
    else
        echo "ci: FAIL — livelock $bad_spec exited $rc, want 2" >&2
        exit 1
    fi
done

step "SMP trace smoke: --chrome-trace honours --ncpus, deterministically"
# One trial pipeline serves every entry point, so tracing a 4-CPU trial
# must measure the same 4-CPU trial (it used to silently run one CPU),
# export one Chrome-trace process group per CPU, and — like every other
# artifact — come out byte-identical from two fresh processes. Checked on
# both cluster shapes: polled CPUs share no channel, so each engine runs
# straight through as a parallel job of its own; unmodified CPUs share
# the ipintrq, so the cluster is sliced on one thread.
for shape in polled unmodified; do
    case $shape in
        polled) rate=30000 ;;
        unmodified) rate=16000 ;;
    esac
    smp_trial=("$repo/target/release/livelock" trial --config "$shape" --rate "$rate"
        --packets 5000 --ncpus 4)
    dir="$scratch/smp/$shape"
    mkdir -p "$dir"
    "${smp_trial[@]}" > "$dir/plain.txt" &&
        "${smp_trial[@]}" --chrome-trace "$dir/a.json" > "$dir/traced.txt" 2> /dev/null &&
        "${smp_trial[@]}" --chrome-trace "$dir/b.json" > /dev/null 2>&1 || {
        echo "ci: FAIL — livelock trial --config $shape --ncpus 4 [--chrome-trace] exited nonzero" >&2
        exit 9
    }
    if cmp -s "$dir/plain.txt" "$dir/traced.txt"; then
        echo "ci: 4-CPU $shape trial prints the same table with and without --chrome-trace"
    else
        echo "ci: FAIL — --chrome-trace changed what a 4-CPU $shape trial measured" >&2
        diff "$dir/plain.txt" "$dir/traced.txt" >&2
        exit 9
    fi
    if cmp -s "$dir/a.json" "$dir/b.json" && python3 - "$dir/a.json" <<'PYEOF'
import json, sys
pids = {e["pid"] for e in json.load(open(sys.argv[1]))["traceEvents"]}
if pids != {1, 2, 3, 4}:
    sys.exit(f"4-CPU trace carries process groups {sorted(pids)}, want [1, 2, 3, 4]")
PYEOF
    then
        echo "ci: 4-CPU $shape chrome trace parses, has four process groups, byte-identical across runs"
    else
        echo "ci: FAIL — 4-CPU $shape chrome trace differs between runs, does not parse, or lacks a CPU" >&2
        exit 9
    fi
done

# A trial whose CPUs share no channel runs them as parallel jobs; the
# same trial inside a one-job sweep runs them inline on one thread. Both
# must measure the same offered and delivered rates.
fanned=$("$repo/target/release/livelock" trial --config polled --ncpus 4 --rate 16000 \
    --packets 20000 | awk '$1 == "offered" {o = $2} $1 == "delivered" {d = $2} END {print o, d}')
inline=$("$repo/target/release/livelock" sweep --config polled --ncpus 4 --rates 16000 \
    --packets 20000 --jobs 1 2> /dev/null | awk '$1 == "16000" {print $3, $2}')
if [ -n "$inline" ] && [ "$fanned" = "$inline" ]; then
    echo "ci: 4-CPU polled trial fanned out and run inline measure the same: $fanned (offered, delivered pkts/s)"
else
    echo "ci: FAIL — 4-CPU polled trial fanned out measured '$fanned', inline '$inline' (offered, delivered)" >&2
    exit 9
fi

step "determinism: event stream and flamegraph byte-identical across runs"
# The observability artifacts themselves are part of the determinism
# contract: the JSONL event stream and the folded flamegraph from two
# fresh processes of the same trial must match byte for byte. The same
# trial unobserved must print the same table (observe on ≡ off in a
# release build).
mkdir -p "$scratch/obs1" "$scratch/obs2" "$scratch/obs0"
for d in obs1 obs2; do
    "$repo/target/release/livelock" trial --config screend --rate 12000 \
        --packets 2000 --seed 7 \
        --events "$scratch/$d/events.jsonl" \
        --flamegraph "$scratch/$d/trial.folded" > "$scratch/$d/stdout.txt" || {
        echo "ci: FAIL — livelock trial --events/--flamegraph exited nonzero" >&2
        exit 10
    }
done
"$repo/target/release/livelock" trial --config screend --rate 12000 \
    --packets 2000 --seed 7 > "$scratch/obs0/stdout.txt" || {
    echo "ci: FAIL — unobserved livelock trial exited nonzero" >&2
    exit 10
}
if cmp -s "$scratch/obs0/stdout.txt" "$scratch/obs1/stdout.txt"; then
    echo "ci: observed and unobserved trial print the same table"
else
    echo "ci: FAIL — --events/--flamegraph changed the trial's printed table" >&2
    exit 10
fi
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

step "committed results: full-fidelity figures byte-identical"
# The committed results/*.csv and results/figures_full.txt (the stdout)
# are the paper artifact, and the docs' verdict tables are read from the
# CSVs; the engine must reproduce every byte, at any job count.
# Regenerate the full-fidelity set in scratch at --jobs N (its claims
# gate like the quick set's) and compare file by file.
figures_gate "$scratch/full" --jobs "$jobs"
results_ok=1
for f in "$repo"/results/*.csv; do
    base=$(basename "$f")
    if ! cmp -s "$f" "$scratch/full/results/$base"; then
        echo "ci: FAIL — committed results/$base differs from a fresh full-fidelity render" >&2
        results_ok=0
    fi
done
if ! cmp -s "$repo/results/figures_full.txt" "$scratch/full/stdout.txt"; then
    echo "ci: FAIL — committed results/figures_full.txt differs from a fresh render's stdout" >&2
    results_ok=0
fi
[ "$results_ok" -eq 1 ] || exit 1
echo "ci: all committed results/*.csv and figures_full.txt byte-identical to a fresh render"

step "benchmark smoke: every unit checked, sim_digests as committed"
# One second per workload of the repo's benchmark: every unit it runs is
# checked (conservation, full-fidelity CSV identity, rerun bit-identity),
# and each workload's sim_digest — a hash of what was simulated,
# independent of --seconds — must equal the one in the newest committed
# BENCH_PR<N>.json. Digests are compared exactly; the times that file
# records are this trajectory's data points and are never gated here
# (the box's slow spells would make that a coin-flip; the benchmark
# pipeline bounds them on interleaved pairs instead).
committed=$(ls "$repo"/BENCH_PR*.json | sort -V | tail -n 1)
cargo run "${bench_manifest[@]}" --bin bench -- --seed 1 --seconds 1 --trace 0 \
    > "$scratch/bench.txt" || {
    echo "ci: FAIL — the benchmark exited nonzero" >&2
    exit 8
}
if python3 - "$scratch/bench.txt" "$committed" <<'PYEOF'
import json, re, sys
out = open(sys.argv[1]).read()
want = json.load(open(sys.argv[2]))["workloads"]
digests = dict(re.findall(r"^(\w+): .*sim_digest ([0-9a-f]+)$", out, re.M))
results = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
bad = [f"{r['failed']} of {r['attempted']} units failed"
       for r in results if r["failed"] or not r["correct"]]
if len(results) != len(want):
    bad.append(f"{len(results)} result lines for {len(want)} workloads")
for w, committed in want.items():
    if digests.get(w) != committed["sim_digest"]:
        bad.append(f"{w}: sim_digest {digests.get(w)} != committed {committed['sim_digest']}")
sys.exit("\n".join(bad) if bad else 0)
PYEOF
then
    echo "ci: benchmark smoke OK (failed: 0; digests match $(basename "$committed"))"
else
    echo "ci: FAIL — benchmark smoke: a unit failed or a sim_digest moved (see above)" >&2
    exit 8
fi

step "observe smoke: online detection exit codes"
# The observe subcommand's contract is its exit code: 0 when every
# `livelock observe` claim holds (README's claims table), the violated
# claim's code otherwise, 2 on bad arguments.
if "$repo/target/release/livelock" observe; then
    echo "ci: observe invariants hold at the default overload"
else
    rc=$?
    echo "ci: FAIL — livelock observe exited $rc (see invariant list above)" >&2
    exit 11
fi
# Just past the shortest spec it accepts (289 packets at 12 000 pkts/s),
# observe runs and its claims hold.
if "$repo/target/release/livelock" observe --packets 300 > /dev/null; then
    echo "ci: observe --packets 300 runs and every claim holds"
else
    rc=$?
    echo "ci: FAIL — livelock observe --packets 300 exited $rc, want 0" >&2
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

step "chaos smoke: seeded fault storm, graceful-degradation invariants"
# A fixed-seed storm against both kernels: the polled kernel must keep
# delivering, un-wedge every injected stall, and conserve the ledger,
# while the unmodified kernel livelocks under the identical plan. The
# binary evaluates every `livelock chaos` claim and exits with the
# violated claim's code.
if "$repo/target/release/livelock" chaos --seed 49157; then
    echo "ci: chaos invariants hold under seed 49157"
else
    rc=$?
    echo "ci: FAIL — chaos smoke run exited $rc (see invariant list above)" >&2
    exit 6
fi

step "chaos --priority smoke: inversion storm, per-invariant exit codes"
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

step ""
echo "ci: OK (${SECONDS} s)"
