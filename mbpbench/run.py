#!/usr/bin/env python3
"""Maximal k-biplex benchmark: build the program from source, run one workload.

    python3 mbpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mbpbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. The program (src/main/scala) and the
benchmark (mbpbench/src) are compiled with the Scala compiler that ships in
Spark's jars directory ($SPARK_HOME/jars, or the one next to spark-submit on
PATH) into .bench_build/mbpbench; the build is reused while no source
changes. The last line of standard output is the result JSON of the run.
Workloads, metrics and bounds are defined in BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "mbpbench"
RUN_TIMEOUT_S = 170
JAVA_OPTS = [
    "-XX:-UsePerfData",  # no hsperfdata file outside the checkout
    "-Xms2g",
    "-Xmx2g",
    "-XX:+UseG1GC",
    # C2-only: across JVMs it gave steadier times than tiered compilation.
    "-XX:-TieredCompilation",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # The module openings Spark's own launcher adds on Java 17.
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def die(msg, code=2):
    print(f"mbpbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if not jars or not any(jars.glob("scala-compiler-*.jar")):
        die("no Spark jars directory with a Scala compiler (set SPARK_HOME)")
    return jars


def sources():
    prog = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not prog:
        die("program sources src/main/scala/**/*.scala not found; run from the repository root")
    return prog + sorted((ROOT / "mbpbench" / "src").rglob("*.scala"))


def build(jars):
    """Compile program + benchmark unless the stamped build is current."""
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    h.update("\n".join(sorted(j.name for j in jars.glob("*.jar"))).encode())
    stamp = h.hexdigest()
    classes = BUILD / "classes"
    stamp_file = BUILD / "classes.stamp"
    if classes.is_dir() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return classes
    staging = BUILD / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    cp = str(jars / "*")
    cmd = ["java", "-XX:-UsePerfData", f"-Djava.io.tmpdir={BUILD / 'tmp'}", "-Xss8m", "-Xmx2g",
           "-cp", cp, "scala.tools.nsc.Main", "-nowarn", "-d", str(staging), "-classpath", cp] + [str(p) for p in srcs]
    print(f"mbpbench: compiling {len(srcs)} sources", file=sys.stderr)
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if res.returncode != 0:
        die("build failed", 3)
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp_file.write_text(stamp)
    return classes


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(classes, jars, workload, seed, seconds, trace):
    """Run one workload in a fresh JVM; return its validated result."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={ROOT / 'mbpbench' / 'log4j2.properties'}"] + JAVA_OPTS +
           ["-cp", f"{classes}{os.pathsep}{jars / '*'}", "mbpbench.Main",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(BUILD / "results")])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 4)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die(f"{workload}: benchmark exited with code {proc.returncode}", 4)
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want or any(v["value"] is None for v in result["metrics"].values()):
        print("\n".join(lines[:-1]))
        die(f"{workload}: metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}", 4)
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").exists():
        die("BENCHMARK.json not found next to mbpbench/")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    chosen = names if a.workload == "all" else [a.workload]
    if any(w not in names for w in chosen):
        die(f"unknown workload {a.workload}; known: {', '.join(names)}")
    jars = spark_jars()
    classes = build(jars)
    results = []
    for w in chosen:
        report, result = run_one(classes, jars, w, a.seed, a.seconds, a.trace)
        print("\n".join(report))
        results.append(result)
    if a.workload == "all":
        bad = [w for w, r in zip(chosen, results) if not r["correct"]]
        print(f"all workloads: {'correct' if not bad else 'FAILED: ' + ', '.join(bad)}")
        sys.exit(1 if bad else 0)
    else:
        print(json.dumps(results[0]))


if __name__ == "__main__":
    main()
