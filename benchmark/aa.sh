#!/usr/bin/env bash
# A/A check: runs the full benchmark set twice on the same commit and
# compares the two. Prints one row per (workload, metric) with both
# values, their relative difference and the bound from BENCHMARK.json.
#
# Exit status: 0 when every end-to-end pair agrees within its bound and
# every exact (simulated) number is identical; 1 otherwise; 2 when a run
# itself failed.
#
# Usage: benchmark/aa.sh [--seed S] [--seconds N]     (from anywhere)

set -u
cd "$(dirname "$0")/.." || exit 2

exec python3 - "$@" <<'PY'
import json, subprocess, sys

args = sys.argv[1:]
opts = {"--seed": "1", "--seconds": None}
while args:
    flag = args.pop(0)
    if flag not in opts or not args:
        sys.exit(f"aa.sh: bad argument {flag!r} (usage: aa.sh [--seed S] [--seconds N])")
    opts[flag] = args.pop(0)

spec = json.load(open("BENCHMARK.json"))
seconds = opts["--seconds"] or str(spec["run_seconds"])
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# Simulated numbers and counts: identical on every run of one commit.
EXACT = ["sim.delivered_frac", "sim.latency_p99_us", "machine.events_per_pkt",
         "machine.intrs_per_pkt", "net.pool.misses", "kernel.ring_drop_frac",
         "kernel.queue_drop_frac", "lint.files_scanned"]


def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", opts["--seed"],
                             "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [l.split("sim_digest ")[1] for l in lines if "sim_digest " in l]
    return result, digests[-1]


def one_set():
    out = {}
    for w in (w["name"] for w in spec["workloads"]):
        untraced, digest = run(w, 0)
        traced, traced_digest = run(w, 1)
        out[w] = (untraced, traced, digest, traced_digest)
        print(f"  {w}: done", file=sys.stderr)
    return out


print("set A", file=sys.stderr)
a = one_set()
print("set B", file=sys.stderr)
b = one_set()

bad = 0
print(f"{'workload':<11} {'metric':<24} {'A':>14} {'B':>14} {'diff':>8} {'bound':>7}")
for w in a:
    for side, (untraced, traced, _, _) in (("A", a[w]), ("B", b[w])):
        for run_ in (untraced, traced):
            if not run_["correct"] or run_["failed"]:
                print(f"{w:<11} set {side}: {run_['failed']} of {run_['attempted']} checks FAILED")
                bad += 1
    for name, bound in bounds.items():
        va = a[w][0]["metrics"][name]["value"]
        vb = b[w][0]["metrics"][name]["value"]
        diff = abs(va - vb) / min(va, vb)
        flag = "" if diff <= bound else "  DISAGREE"
        bad += diff > bound
        print(f"{w:<11} {name:<24} {va:>14.4f} {vb:>14.4f} {diff:>7.1%} {bound:>7.0%}{flag}")
    for name in EXACT:
        va = a[w][1]["metrics"][name]["value"]
        vb = b[w][1]["metrics"][name]["value"]
        flag = "" if va == vb else "  DIFFERS"
        bad += va != vb
        print(f"{w:<11} {name:<24} {va:>14.6f} {vb:>14.6f} {'':>8} {'exact':>7}{flag}")
    digests = set(a[w][2:]) | set(b[w][2:])
    flag = "" if len(digests) == 1 else "  DIFFERS"
    bad += len(digests) != 1
    print(f"{w:<11} {'sim_digest':<24} {a[w][2]:>14} {b[w][2]:>14} {'':>8} {'exact':>7}{flag}")

print("A/A: " + ("agree" if not bad else f"{bad} disagreement(s)"))
sys.exit(1 if bad else 0)
PY
