#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 mbpbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]
    python3 mbpbench/repeat.py --baseline mbpbench/baseline.json [--seeds 1-10] [--traced-seeds 1-5]

For every workload and metric prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json. With --out, writes that summary as
JSON.

--baseline records a baseline: untraced runs on --seeds and traced runs on
--traced-seeds for every workload, written as
{about, machine, workloads: {name: {end_to_end, per_layer, traced_report,
*_attempted, *_failed}}}. traced_report summarises the report lines of the
traced runs that are printed but not in their JSON (the Spark stage and core
metrics, fail_ratio, spark.session_s, trace.span_ns).
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A report line: two-space indent, name, value, unit, note.
REPORT_LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    """One run of run.py; returns (result JSON, report lines)."""
    cmd = [sys.executable, "mbpbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if res.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {res.returncode}\n{res.stdout}")
    lines = res.stdout.strip().split("\n")
    r = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={r['correct']} attempted={r['attempted']} "
          f"failed={r['failed']}", flush=True)
    return r, lines[:-1]


def summarise(unit, values, bound=None, name=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    if name:
        flag = "" if bound is None else ("  ok" if spread is not None and spread <= bound / 3 else "  WIDE") + \
            f" (bound {bound})"
        sp = "n/a" if spread is None else f"{spread:.4f}"
        print(f"  {name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp}{flag}", flush=True)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def series(spec, workload, seed_list, trace):
    """Runs of one workload; returns (summary per JSON metric, attempted, failed, report lines per run)."""
    outs = [run(spec, workload, s, trace) for s in seed_list]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r, _ in outs]
        metrics[m["name"]] = summarise(m["unit"], vals, m.get("bound"), m["name"])
    return (metrics, sum(r["attempted"] for r, _ in outs), sum(r["failed"] for r, _ in outs),
            [lines for _, lines in outs])


def report_metrics(reports, skip):
    """Summary of the report-line metrics named in every run but not in `skip`."""
    found = []
    for lines in reports:
        vals = {}
        for line in lines:
            m = REPORT_LINE.match(line)
            if m and m.group(1) not in skip:
                try:
                    vals[m.group(1)] = (float(m.group(2)), m.group(3))
                except ValueError:
                    pass
        found.append(vals)
    names = [n for n in found[0] if all(n in f for f in found)]
    return {n: summarise(found[0][n][1], [f[n][0] for f in found]) for n in names}


def machine():
    sys.path.insert(0, str(ROOT / "mbpbench"))
    from run import spark_jars
    jars = spark_jars()
    ver = lambda pat: next((p.stem.split("-")[-1] for p in sorted(jars.glob(pat))), "?")
    mem = next((int(l.split()[1]) for l in open("/proc/meminfo") if l.startswith("MemTotal")), 0)
    java = subprocess.run(["java", "-version"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True).stdout.split("\n")[0]
    return (f"{os.cpu_count()} CPUs, {mem / 2**20:.0f} GiB RAM, {platform.machine()}, {java}, "
            f"Spark {ver('spark-core_*.jar')} jars, Scala {ver('scala-library-*.jar')}")


def baseline(spec, a):
    out = {
        "about": (f"Recorded with mbpbench/repeat.py --baseline: end_to_end from --trace 0 runs with seeds {a.seeds}, "
                  f"per_layer and traced_report from --trace 1 runs with seeds {a.traced_seeds}, "
                  f"run_seconds {spec['run_seconds']}. traced_report holds the report-line metrics of the traced runs "
                  "that are printed but not in their JSON. Quartiles are statistics.quantiles(values, n=4); "
                  "spread = (q3 - q1) / median."),
        "machine": machine(),
        "workloads": {},
    }
    for w in [x["name"] for x in spec["workloads"]]:
        e2e, e_att, e_fail, _ = series(spec, w, seeds(a.seeds), 0)
        layer, l_att, l_fail, reports = series(spec, w, seeds(a.traced_seeds), 1)
        out["workloads"][w] = {
            "end_to_end": e2e, "end_to_end_attempted": e_att, "end_to_end_failed": e_fail,
            "per_layer": layer, "per_layer_attempted": l_att, "per_layer_failed": l_fail,
            "traced_report": report_metrics(reports, set(layer)),
        }
    Path(a.baseline).write_text(json.dumps(out, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--baseline", help="record a baseline into this file")
    ap.add_argument("--traced-seeds", default="1-5", help="seeds of the traced runs of --baseline")
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.baseline:
        return baseline(spec, a)
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    summary = {}
    for w in names:
        metrics, att, failed, _ = series(spec, w, seeds(a.seeds), a.trace)
        summary[w] = {"seeds": seeds(a.seeds), "attempted": att, "failed": failed, "metrics": metrics}
    if a.out:
        Path(a.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
