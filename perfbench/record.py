"""Record the reference values the output check compares against.

    python3 perfbench/record.py [workload ...]
    python3 perfbench/record.py --check FROM UNTIL [workload ...]

Run from the root of a repository checkout. The first form runs the
pipeline for workload seeds 0 .. RUNS-1 through the local build-up DP in
one JVM, untimed, and writes perfbench/reference/<workload>.json: the
exact total t, the pair count of every level (both the same for every
seed), and per estimator and graphlet the mean estimate and the summed
hits (graphlets with at least KEEP_HITS of them). Only run it when a workload changes: the stored values are what the
program produced when they were recorded.

The second form writes nothing: it runs seeds FROM .. UNTIL-1 and checks
each against the stored reference, which shows the estimate tolerance
passes runs that draw other random numbers.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import build  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402

RUNS = 16
# Graphlets with fewer hits over all recorded runs are left out; no correct
# run sees such a graphlet check.MIN_HITS times.
KEEP_HITS = 50
CHUNK = 8
CHUNK_TIMEOUT_S = 900


def run_seeds(env, workload, seeds):
    rows = []
    for lo in range(seeds.start, seeds.stop, CHUNK):
        hi = min(lo + CHUNK, seeds.stop)
        out = os.path.join(env.work, f"record-{workload}-{lo}.json")
        res, err, _ = run.run_child(env, "perfbench.trace.TraceMain",
                                    ["record", workload, str(lo), str(hi), out],
                                    out, traced=True, timeout=CHUNK_TIMEOUT_S)
        if res is None:
            raise SystemExit(f"recording {workload} failed: {err}")
        rows += res["seeds"]
        print(f"[record] {workload}: {len(rows)}/{len(seeds)} seeds", file=sys.stderr, flush=True)
    return rows


def pooled(rows, kind):
    """Per graphlet: [pooled estimate, total hits]. An estimate is hits over
    a weight; the pooled one is total hits over total weight. Naive gives
    every run the same weight, so that is the mean over all runs (a missing
    graphlet estimates 0). AGS weights differ by run and are only known for
    the runs that saw the graphlet."""
    out = {}
    for c in sorted({c for r in rows for c in r[kind]["hits"]}, key=int):
        seen = [r for r in rows if c in r[kind]["hits"]]
        hits = sum(r[kind]["hits"][c] for r in seen)
        if hits < KEEP_HITS:
            continue
        if kind == "naive":
            est = sum(r[kind]["est"][c] for r in seen) / len(rows)
        else:
            est = hits / sum(r[kind]["hits"][c] / r[kind]["est"][c] for r in seen)
        out[c] = [float(f"{est:.9g}"), hits]
    return out


def write_reference(workload, rows):
    for key in ("t", "pairs"):
        if any(r[key] != rows[0][key] for r in rows):
            raise SystemExit(f"{workload}: {key} differs between seeds")
    ref = {"workload": workload, "runs": len(rows), "t": rows[0]["t"], "pairs": rows[0]["pairs"],
           "estimates": {kind: pooled(rows, kind) for kind in ("naive", "ags")
                         if rows[0][kind]["hits"]}}
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with open(os.path.join(HERE, "reference", workload + ".json"), "w") as fh:
        fh.write(json.dumps(ref, separators=(",", ":")).replace("],", "],\n") + "\n")


def validate(workload, rows):
    ref = check.load_reference(workload)
    failed = 0
    for r in rows:
        fails = check.check(r, ref)
        failed += bool(fails)
        for f in fails:
            print(f"[record] {workload} seed {r['workload_seed']}: {f}", file=sys.stderr)
    print(f"[record] {workload}: {failed} of {len(rows)} seeds failed the check")
    return failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", nargs=2, type=int, metavar=("FROM", "UNTIL"))
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    a = ap.parse_args()
    root = os.getcwd()
    env = run.Env(root, *build.build(root))
    failed = 0
    for w in a.workloads:
        if a.check:
            failed += validate(w, run_seeds(env, w, range(*a.check)))
        else:
            write_reference(w, run_seeds(env, w, range(RUNS)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
