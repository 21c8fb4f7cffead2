"""Motivo graph -> estimates benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a repository checkout. Builds the program from source
(perfbench/build.py) if needed, then starts fresh JVMs one after another,
each running one cold pipeline of the workload, until `--seconds` have
passed (at least one); with `--trace 0`, more JVMs that only set up
follow until there are SETUP_SAMPLES set-up times. Every pipeline's
outputs are checked (check.py). The last line of standard output is one
JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
metrics from one extra traced pipeline (`--trace 1`). See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import build  # noqa: E402
import check  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("spark-berkstan-k6", "local-yelp-k8", "local-facebook-k8")
HEAP = "3g"
SETUP_SAMPLES = 3
MAX_FAILED_STARTS = 3
CHILD_TIMEOUT_S = 150
# The module opens Spark needs on JDK 17 (the same list as build.sbt).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


class Env:
    def __init__(self, root, jars, e2e_dir, trace_dir, trace_error):
        self.root = root
        self.jars = jars
        self.e2e_dir = e2e_dir
        self.trace_dir = trace_dir
        self.trace_error = trace_error
        self.work = os.path.join(root, build.BUILD_DIR, "perfbench-run")
        self.spark_local = os.path.join(self.work, "spark-local")
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        os.makedirs(self.spark_local, exist_ok=True)

    def java(self, main, args, traced=False):
        cp = [self.e2e_dir] + ([self.trace_dir] if traced else []) + [os.path.join(self.jars, "*")]
        return (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
                 "-Djava.io.tmpdir=" + os.path.join(self.work, "tmp"),
                 "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
                 "-Djdk.reflect.useDirectMethodHandleAccessor=false"]
                + JVM_OPENS + ["-cp", os.pathsep.join(cp), main] + args)


def run_child(env, main, args, out, traced=False, timeout=CHILD_TIMEOUT_S):
    """Run one JVM to completion; return (result dict or None, error text, wall start)."""
    if os.path.exists(out):
        os.remove(out)
    log = out + ".log"
    start = time.time()
    with open(log, "w") as lf:
        p = subprocess.Popen(env.java(main, args, traced), stdout=lf, stderr=subprocess.STDOUT,
                             cwd=env.root)
        try:
            rc = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
    if rc != 0 or not os.path.exists(out):
        with open(log) as lf:
            tail = lf.read()[-3000:]
        return None, f"exit {rc}: {tail}", start
    with open(out) as fh:
        return json.load(fh), None, start


class Pipelines:
    """Runs JVMs one after another and checks their outputs. Every JVM is an
    attempt; it fails if it does not finish or its outputs fail the check."""

    def __init__(self, env, workload, seed, reference):
        self.env, self.workload, self.seed, self.reference = env, workload, seed, reference
        self.attempted = 0
        self.failed = 0
        self.results = []
        self.setup_s = []

    def _run(self, tag, main, args, traced=False, mode=()):
        out = os.path.join(self.env.work, f"{self.workload}-{self.seed}-{tag}-{self.attempted}.json")
        self.attempted += 1
        res, err, start = run_child(self.env, main,
                                    [*mode, self.workload, str(self.seed), out] + args, out, traced)
        fails = [err] if res is None else [] if tag == "setup" else check.check(res, self.reference)
        if fails:
            self.failed += 1
            for f in fails[:10]:
                print(f"[perfbench] {self.workload} {tag} JVM {self.attempted} FAILED: {f}",
                      file=sys.stderr)
        if res is not None and "setup_end_epoch_s" in res:
            self.setup_s.append(res["setup_end_epoch_s"] - start)
        return res

    def e2e(self):
        res = self._run("e2e", "perfbench.E2EMain", [self.env.spark_local])
        if res is not None:
            self.results.append(res)

    def setup_only(self):
        self._run("setup", "perfbench.E2EMain", [self.env.spark_local, "setup"])

    def traced(self):
        return self._run("trace", "perfbench.trace.TraceMain", [self.env.spark_local],
                         traced=True, mode=["trace"])


def declared_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        b = json.load(fh)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def end_to_end_metrics(results, setup_s):
    med = lambda key: statistics.median(r[key] for r in results)  # noqa: E731
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "e2e_s": (med("e2e_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
    }


def per_layer_metrics(tr, untraced_e2e):
    """Per-layer metrics from one traced result; layers a workload does not
    use read 0."""
    sp = tr["spans"]
    ags_batches = spans.find(sp, "ags.batch")
    ags_sigma = sum(b["attrs"]["sigma_s"] for b in ags_batches)
    ags_sample = sum(b["end_s"] - b["start_s"] for b in ags_batches) - ags_sigma
    ags_s = spans.total(sp, "ags")
    smp = tr["sampler"]
    e2e = spans.find(sp, "e2e")[0]
    top_cover = spans.child_cover(sp, e2e) / (e2e["end_s"] - e2e["start_s"])
    spark = tr.get("spark") or {}
    m = {
        "graph.gen_s": (tr["graph_gen_s"], "s"),
        "graph.n": (tr["graph_n"], "count"),
        "graph.m": (tr["graph_m"], "count"),
        "graph.max_deg": (tr["graph_max_deg"], "count"),
        "buildup.s": (spans.total(sp, "buildup"), "s"),
        "buildup.tasks": (sum(spark.get("level_tasks", [])), "count"),
        "collect.s": (spans.total(sp, "collect"), "s"),
        "collect.rows": (spark.get("collect_rows", 0), "count"),
        "localdp.s": (spans.total(sp, "localdp"), "s"),
        "table.compact_s": (spans.total(sp, "table.compact"), "s"),
        "table.pairs": (tr["table_pairs"], "count"),
        "table.bytes": (tr["table_bytes"], "B"),
        "table.bytes_per_pair": (tr["table_bytes"] / tr["table_pairs"], "B/pair"),
        "naive.s": (spans.total(sp, "naive"), "s"),
        "sampler.treelet_s": (smp["treelet_s"], "s"),
        "sampler.samples": (smp["samples"], "count"),
        "sampler.samples_per_s": (smp["samples"] / smp["treelet_s"], "1/s"),
        "graphlet.canonical_s": (smp["canonical_s"], "s"),
        "graphlet.distinct_raw": (smp["distinct_raw"], "count"),
        "graphlet.distinct": (smp["distinct"], "count"),
        "graphlet.sigma_s": (smp["sigma_s"], "s"),
        "graphlet.sigma_calls": (smp["sigma_calls"], "count"),
        "ags.s": (ags_s, "s"),
        "ags.sample_s": (ags_sample, "s"),
        "ags.control_s": (ags_s - ags_sample - ags_sigma if ags_batches else 0.0, "s"),
        "ags.batches": (tr["ags_stats"]["batches"], "count"),
        "ags.shape_switches": (tr["ags_stats"]["shape_switches"], "count"),
        "ags.covered": (tr["ags_stats"]["covered"], "count"),
        "ags.samples": (tr["ags_stats"]["samples"], "count"),
        "estimate.s": (spans.total(sp, "estimate"), "s"),
        "trace.overhead_s": (tr["e2e_s"] - untraced_e2e, "s"),
        "trace.top_level_coverage": (top_cover, "ratio"),
    }
    for h in range(1, 7):
        def lv(key):
            v = spark.get(key, [])
            return v[h - 1] if h <= len(v) else 0
        m[f"buildup.level_s.h{h}"] = (lv("level_s"), "s")
        m[f"buildup.shuffle_read_bytes.h{h}"] = (lv("shuffle_read_bytes"), "B")
        m[f"buildup.shuffle_write_bytes.h{h}"] = (lv("shuffle_write_bytes"), "B")
        m[f"buildup.plan_nodes.h{h}"] = (lv("plan_nodes"), "count")
        m[f"buildup.pairs.h{h}"] = (tr["pairs"][h - 1] if spark and h <= tr["k"] else 0, "count")
    for h in range(1, 9):
        local = not spark and h <= tr["k"]
        m[f"localdp.pairs.h{h}"] = (tr["pairs"][h - 1] if local else 0, "count")
    return m


def summary(workload, seed, results, setup_samples):
    r = results[0]
    return {"workload": workload, "workload_seed": seed, "motivo_seed": r["motivo_seed"],
            "graph": r["graph"], "k": r["k"], "budget": r["budget"], "nproc": r["nproc"],
            "heap": HEAP, "heap_max_mb": r["heap_max_mb"], "jdk": r["jdk"],
            "spark_version": r["spark_version"], "pipelines": len(results),
            "setup_samples": setup_samples}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    # On SIGTERM, unwind so that run_child stops the running JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    try:
        env = Env(root, *build.build(root))
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    if a.trace and env.trace_dir is None:
        print(f"[perfbench] traced part did not compile:\n{env.trace_error}", file=sys.stderr)
        return 2
    e2e_decl, layer_decl = declared_metrics()
    runner = Pipelines(env, a.workload, a.seed, check.load_reference(a.workload))

    t0 = time.monotonic()
    while not runner.results or time.monotonic() - t0 < a.seconds:
        runner.e2e()
        if runner.attempted >= MAX_FAILED_STARTS and not runner.results:
            break
    while runner.results and not a.trace and len(runner.setup_s) < SETUP_SAMPLES:
        runner.setup_only()
    if not runner.results:
        print("[perfbench] no pipeline completed", file=sys.stderr)
        return 1
    untraced = end_to_end_metrics(runner.results, runner.setup_s)

    if a.trace:
        tr = runner.traced()
        if tr is None:
            print("[perfbench] traced pipeline did not complete", file=sys.stderr)
            return 1
        metrics, decl = per_layer_metrics(tr, untraced["e2e_s"][0]), layer_decl
        trace_file = os.path.join(env.work, f"spans-{a.workload}-{a.seed}.json")
        with open(trace_file, "w") as fh:
            json.dump({"self_s": spans.self_times_by_name(tr["spans"]), "spans": tr["spans"]}, fh)
        print(f"[perfbench] spans written to {os.path.relpath(trace_file, root)}", file=sys.stderr)
    else:
        metrics, decl = untraced, e2e_decl
    if set(metrics) != set(decl) or any(metrics[n][1] != decl[n] for n in metrics):
        print(f"[perfbench] metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(decl))}", file=sys.stderr)
        return 1

    print(json.dumps({"config": summary(a.workload, a.seed, runner.results, len(runner.setup_s))}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
