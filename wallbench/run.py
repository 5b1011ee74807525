#!/usr/bin/env python3
"""Wall-clock benchmark of the DEM library.

From the repository root:

    python3 wallbench/run.py --workload uniform-hot --seed 1 --seconds 10 --trace 0
    python3 wallbench/run.py --selftest

A run builds the library (src/) and the benchmark binary from source into
$CARGO_TARGET_DIR (default .bench_build), runs one workload of
BENCHMARK.json with the inputs recorded in wallbench/spec.json, and prints
the result as one JSON object on the last line of stdout: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1.  --selftest runs the benchmark's own tests: span arithmetic, and
a smoke run of every workload checking that every metric is emitted.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found: expected src/ beside wallbench/")
    out = os.path.join(build_dir(), "wallbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out


def arg(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def run_binary(bindir, spec, workload, seed, seconds, trace, overrides=None):
    """Run one workload; returns (report lines, raw result of the binary)."""
    w = spec["workloads"][workload]
    inputs = dict(w["inputs"])
    inputs.update(overrides or {})
    tmp = os.path.join(build_dir(), "tmp-%d" % os.getpid())
    cmd = [os.path.join(bindir, "wallbench"), "--kind", w["kind"], "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp,
           "--spans", os.path.join(build_dir(), "spans-%s.json" % workload)]
    for key, value in inputs.items():
        cmd += ["--set", "%s=%s" % (key, arg(value))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("benchmark binary failed with exit code %d" % proc.returncode)
    return lines[:-1], json.loads(lines[-1])


def select_metrics(bench, spec, workload, trace, raw):
    """The BENCHMARK.json metric set of this mode, read from the raw result."""
    metrics, notes = {}, []
    if not trace:
        for m in bench["end_to_end"]:
            source = spec["end_to_end"][m["name"]][workload]
            got = raw.get(source)
            if got is None or got["unit"] != m["unit"]:
                raise RuntimeError("%s: %s (%s) not measured" % (workload, source, m["unit"]))
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        return metrics, notes
    for m in bench["per_layer"]:
        got = raw.get(m["name"])
        if got is None:
            if workload in spec["per_layer"][m["name"]]["measured_on"]:
                raise RuntimeError("%s: %s not measured" % (workload, m["name"]))
            # The layer does not run on this workload: it did no work.
            got = {"value": 0.0, "unit": m["unit"]}
            notes.append("%s: layer not exercised by %s, reported as 0" % (m["name"], workload))
        elif got["unit"] != m["unit"]:
            raise RuntimeError("%s: unit %s, BENCHMARK.json says %s"
                               % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, notes


def run(args):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load(os.path.join(HERE, "spec.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise RuntimeError("unknown workload %r" % args.workload)
    bindir = build()
    lines, raw = run_binary(bindir, spec, args.workload, args.seed, args.seconds, args.trace)
    metrics, notes = select_metrics(bench, spec, args.workload, args.trace, raw["metrics"])
    for line in lines + notes:
        print(line)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


def selftest():
    """Span arithmetic tests, then a smoke run of every workload in both
    modes: every metric named in spec.json issue_metrics / per_layer must be
    emitted with its unit (or be listed under dropped with a reason), and the
    result line must hold exactly the BENCHMARK.json metric set."""
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load(os.path.join(HERE, "spec.json"))
    bindir = build()
    problems = []
    if subprocess.run([os.path.join(bindir, "wallbench_selftest")]).returncode != 0:
        problems.append("span arithmetic tests failed")
    seen = {}  # (metric, workload) -> unit
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            _, raw = run_binary(bindir, spec, name, 1, spec["smoke"]["seconds"], trace,
                                spec["smoke"]["inputs"][name])
            if not raw["correct"]:
                problems.append("%s trace=%d: incorrect result" % (name, trace))
            for metric, got in raw["metrics"].items():
                seen[(metric, name)] = got["unit"]
            metrics, _ = select_metrics(bench, spec, name, trace, raw["metrics"])
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            if sorted(metrics) != sorted(m["name"] for m in wanted):
                problems.append("%s trace=%d: result metric set differs" % (name, trace))
            print("smoke %s trace=%d: %d metrics" % (name, trace, len(metrics)))
    expected = {}
    for metric, info in spec["issue_metrics"].items():
        for workload in info["workloads"]:
            expected[(metric, workload)] = info["unit"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for metric, info in spec["per_layer"].items():
        for workload in info["measured_on"]:
            expected[(metric, workload)] = units[metric]
    for (metric, workload), unit in sorted(expected.items()):
        if seen.get((metric, workload)) != unit:
            problems.append("%s on %s: not emitted with unit %s" % (metric, workload, unit))
    for metric, reason in spec["dropped"].items():
        if not reason.strip():
            problems.append("%s dropped without a reason" % metric)
    if sorted(spec["per_layer"]) != sorted(units):
        problems.append("spec.json per_layer and BENCHMARK.json per_layer differ")
    for p in problems:
        print("FAIL", p)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        run(args)
        return 0
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print("wallbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
