"""Build file of the benchmark: compiles the repository's main Scala sources
together with the benchmark's own sources, with the Scala compiler that
ships in the Spark distribution, into `.bench_build/` of the checkout.

Two class directories are produced:
  e2e/    src/main/scala + perfbench/src/e2e   (public Motivo entry point only)
  trace/  perfbench/src/trace                  (re-composes internal layers)
The traced part is compiled separately, so a later change to internal
layer APIs can only break `--trace 1`, never the end-to-end numbers.

Run on its own with `python3 perfbench/build.py`; `run.py` calls it and
rebuilds only when a source file changed.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


class BuildError(Exception):
    pass


def spark_jars():
    """Directory of the Spark distribution's jars (Scala compiler included)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    jars = os.path.join(home, "jars")
    if not any(f.startswith("scala-compiler") for f in os.listdir(jars)):
        raise BuildError(f"no scala-compiler jar in {jars}")
    return jars


def scala_files(d):
    out = []
    for base, _, files in os.walk(d):
        out += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def digest(files, extra):
    h = hashlib.sha256(extra.encode())
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def scalac(jars, sources, out_dir, extra_cp):
    cp = os.pathsep.join(extra_cp + [os.path.join(jars, "*")])
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-nowarn", "-deprecation:false", "-d", out_dir, "-cp", cp] + sources
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return p.returncode, p.stdout


def build(root, log=sys.stderr):
    """Compile if needed; return (jars_dir, e2e_dir, trace_dir or None, trace_error)."""
    main_src = os.path.join(root, "src", "main", "scala")
    if not os.path.isdir(main_src):
        raise BuildError(f"{main_src} not found: run from the root of a repository checkout")
    jars = spark_jars()
    e2e_src = scala_files(main_src) + scala_files(os.path.join(HERE, "src", "e2e"))
    trace_src = scala_files(os.path.join(HERE, "src", "trace"))
    if not trace_src or len(e2e_src) == len(scala_files(main_src)):
        raise BuildError("benchmark sources missing")
    out = os.path.join(root, BUILD_DIR, "perfbench")
    stamp_file = os.path.join(out, "stamp")
    stamp = digest(e2e_src + trace_src, jars)
    if os.path.exists(stamp_file) and _read(stamp_file) == stamp:
        return _result(out, jars)

    print("[perfbench] compiling", file=log, flush=True)
    shutil.rmtree(out, ignore_errors=True)
    e2e_dir = os.path.join(out, "e2e")
    trace_dir = os.path.join(out, "trace")
    os.makedirs(e2e_dir)
    os.makedirs(trace_dir)
    rc, text = scalac(jars, e2e_src, e2e_dir, [])
    if rc != 0:
        shutil.rmtree(out, ignore_errors=True)
        raise BuildError("compiling the program failed:\n" + text)
    rc, text = scalac(jars, trace_src, trace_dir, [e2e_dir])
    if rc != 0:
        shutil.rmtree(trace_dir, ignore_errors=True)
        with open(os.path.join(out, "trace_error"), "w") as fh:
            fh.write(text)
        print("[perfbench] traced part did not compile; --trace 1 is unavailable",
              file=log, flush=True)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return _result(out, jars)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _result(out, jars):
    trace_dir = os.path.join(out, "trace")
    err_file = os.path.join(out, "trace_error")
    err = _read(err_file) if os.path.exists(err_file) else None
    return jars, os.path.join(out, "e2e"), (trace_dir if os.path.isdir(trace_dir) else None), err


if __name__ == "__main__":
    try:
        _, e2e, trace, err = build(os.getcwd())
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(2)
    print(e2e)
    if err:
        print(err, file=sys.stderr)
        sys.exit(1)
