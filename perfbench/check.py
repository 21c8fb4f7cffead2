"""Output checks of one pipeline against the reference values recorded with
the benchmark (`perfbench/reference/<workload>.json`, made by record.py).

Every workload seed gives an isomorphic colored graph (see Workloads.scala),
so one reference serves all seeds.
- Build-up totals, bit for bit: the exact colorful k-treelet total t on
  every run, and the per-level pair counts where the run reports them (the
  traced run).
- Estimates, with a statistical tolerance. The reference estimate of a
  graphlet is the mean over the recorded seeds, with their hits summed. An
  estimate from h hits has a relative standard error of about 1/sqrt(h), so
  run and reference may differ by TOL_SD combined standard errors plus
  TOL_REL. A correct change that consumes the random stream differently
  still passes. Naive sampling hits every graphlet at a fixed rate, so a
  graphlet seen often on one side must be there on the other. AGS moves its
  samples between treelet shapes as it goes, so a graphlet that only one
  side saw is not compared.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# Graphlets seen at least this often, in the run or per recorded seed in
# the reference, are compared.
MIN_HITS = 200
TOL_SD = 6.0
TOL_REL = 0.02


def load_reference(workload):
    with open(os.path.join(HERE, "reference", workload + ".json")) as fh:
        return json.load(fh)


def estimates_close(e_run, h_run, e_ref, h_ref):
    sd = math.sqrt(e_run ** 2 / max(h_run, 1) + e_ref ** 2 / max(h_ref, 1))
    return abs(e_run - e_ref) <= TOL_SD * sd + TOL_REL * max(abs(e_run), abs(e_ref))


def check_estimates(kind, run, ref, runs):
    """Failures of one estimator's output. `run` = {"hits": {code: h},
    "est": {code: e}}; `ref` = {code: [pooled estimate, total hits]} over
    `runs` recorded seeds. A graphlet missing on one side counts as
    estimate 0 from 0 hits (naive only)."""
    fails = []
    hits, est = run["hits"], run["est"]
    codes = {c for c, h in hits.items() if h >= MIN_HITS}
    codes |= {c for c, (_, h) in ref.items() if h >= MIN_HITS * runs}
    for code in sorted(codes, key=int):
        if kind == "ags" and (code not in ref or code not in hits):
            continue
        e_ref, h_ref = ref.get(code, (0.0, 0))
        h_run = hits.get(code, 0)
        e_run = est.get(code, 0.0)
        if not estimates_close(e_run, h_run, e_ref, h_ref):
            fails.append(f"{kind}: graphlet {code} estimate {e_run:.6g} ({h_run} hits) "
                         f"vs reference {e_ref:.6g} ({h_ref} hits over {runs} runs)")
    return fails


def check(result, ref):
    """All failures of one child result; an empty list means it passed."""
    fails = []
    if result["t"] != ref["t"]:
        fails.append(f"t = {result['t']} but reference t = {ref['t']}")
    if "pairs" in result and result["pairs"] != ref["pairs"]:
        fails.append(f"pairs per level {result['pairs']} but reference {ref['pairs']}")
    spark = result.get("spark") or {}
    local_t = result.get("local_t", spark.get("local_t"))
    if local_t is not None and local_t != result["t"]:
        fails.append(f"Spark build t = {result['t']} but local build t = {local_t}")
    if spark:
        if not spark.get("local_tables_equal"):
            fails.append("Spark build table differs from the local build table")
        if spark.get("listener_levels") != result["k"]:
            fails.append(f"listener saw {spark.get('listener_levels')} levels, expected {result['k']}")
    for kind in ("naive", "ags"):
        fails += check_estimates(kind, result[kind], ref["estimates"].get(kind, {}), ref["runs"])
    return fails
