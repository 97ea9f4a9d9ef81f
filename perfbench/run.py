#!/usr/bin/env python3
"""Run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The script builds perfbench/ together with the library in src/ into
.bench_build/perfbench (CMake, Release), runs one workload of the
perfbench binary, checks that it printed exactly the metrics it must,
each with the unit BENCHMARK.json declares, and prints the binary's notes
followed by the result JSON as the last line.  With --trace 0 those are
the end_to_end metrics.  With --trace 1 they are the per_layer metrics of
the layers the workload's traffic enters (perfbench/layers.json); the
result then lists every other per_layer metric as 0, because the workload
makes no call into that layer.  It exits nonzero when the build fails,
when any operation fails its correctness check, or when the printed
metrics are not the ones it must print.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ["torus1m-closed", "torus256k-open-sharded", "campaign-dynamic"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns False when that fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources at", ROOT / "src", "- run from the repository root")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False,
                                  env=env)
        except OSError as err:
            log("perfbench: cannot run", cmd[0], err)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return BINARY.is_file()


def source_version():
    """`git describe` when the tree is a git checkout, plus a digest of the sources."""
    describe = "none"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                capture_output=True, text=True, check=False, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{describe},src-sha256:{digest.hexdigest()[:12]}"


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_table():
    return json.loads((HERE / "layers.json").read_text())["metrics"]


def measured_metrics(workload, trace, declared):
    """Names the binary must print: with --trace 1, only the per-layer
    metrics whose layer the workload's traffic enters."""
    if not trace:
        return set(declared)
    layers = layer_table()
    return {n for n in declared if workload in layers.get(n, {}).get("workloads", [])}


def metric_problems(result, declared, measured):
    """The binary must print exactly `measured`, each with its declared unit."""
    problems = []
    printed = result.get("metrics", {})
    for name, metric in printed.items():
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif name not in measured:
            problems.append(f"metric {name} was printed, but layers.json says the "
                            "workload does not enter its layer")
        elif metric.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {metric.get('unit')!r}, "
                            f"BENCHMARK.json says {declared[name]!r}")
    for name in sorted(measured):
        if name not in printed:
            problems.append(f"metric {name} was not printed")
    return problems


def complete(result, declared):
    """List every declared metric: a layer the workload never calls reads 0."""
    for name, unit in declared.items():
        result["metrics"].setdefault(name, {"value": 0, "unit": unit})


def run_binary(args):
    """Run the perfbench binary; returns (returncode, stdout lines)."""
    try:
        done = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out after", RUN_TIMEOUT_S, "s")
        return 1, []
    if done.stderr:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_workload(opts):
    if not build():
        return 1
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
            str(opts.seconds), "--trace", str(opts.trace),
            "--trace-dir", str(BUILD / "traces"), "--git-describe", source_version()]
    code, lines = run_binary(args)
    result = parse_result(lines)
    if result is None:
        log("perfbench: the binary printed no result (exit code", code, ")")
        log("\n".join(lines))
        return code or 1
    declared = declared_metrics(opts.trace)
    problems = metric_problems(result, declared,
                               measured_metrics(opts.workload, opts.trace, declared))
    for problem in problems:
        log("perfbench:", problem)
    if problems:
        result["correct"] = False
    complete(result, declared)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 1 if (code != 0 or problems or not result.get("correct")) else 0


def self_test():
    """Check the benchmark's own checks; exits nonzero on the first failure set."""
    failures = []

    def expect(ok, name):
        print(f"self-test {name:<52} {'ok' if ok else 'FAIL'}", flush=True)
        if not ok:
            failures.append(name)

    if not build():
        return 1
    code, lines = run_binary(["--self-test"])
    for line in lines:
        print(line)
    expect(code == 0, "binary self-tests (fingerprints, replay faults)")

    closed = "torus1m-closed"
    for trace in (0, 1):
        declared = declared_metrics(trace)
        measured = measured_metrics(closed, trace, declared)
        good = {"metrics": {n: {"value": 1.0, "unit": declared[n]} for n in measured}}
        expect(not metric_problems(good, declared, measured), f"trace {trace}: measured set passes")
        extra = json.loads(json.dumps(good))
        extra["metrics"]["undeclared.metric"] = {"value": 1.0, "unit": "us"}
        expect(bool(metric_problems(extra, declared, measured)),
               f"trace {trace}: undeclared name is caught")
        wrong = json.loads(json.dumps(good))
        first = sorted(measured)[0]
        wrong["metrics"][first]["unit"] = "furlongs"
        expect(bool(metric_problems(wrong, declared, measured)),
               f"trace {trace}: wrong unit is caught")
        missing = json.loads(json.dumps(good))
        del missing["metrics"][first]
        expect(bool(metric_problems(missing, declared, measured)),
               f"trace {trace}: missing metric is caught")
        filled = json.loads(json.dumps(good))
        complete(filled, declared)
        expect(set(filled["metrics"]) == set(declared),
               f"trace {trace}: the result lists every declared metric")
    declared = declared_metrics(1)
    measured = measured_metrics(closed, 1, declared)
    entered = {"metrics": {n: {"value": 1.0, "unit": declared[n]} for n in measured}}
    entered["metrics"]["linalg.summary_ms"] = {"value": 1.0, "unit": "ms"}
    expect(bool(metric_problems(entered, declared, measured)),
           "trace 1: a layer the workload does not enter is caught")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = layer_table()
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    expect(set(layers) == {m["name"] for m in spec["per_layer"]},
           "layers.json covers exactly the per-layer metrics")
    expect(all(t in e2e and w in names for m in layers.values() for t, w in m["moves"]),
           "layers.json targets name end-to-end metrics and workloads")
    expect(all(m["workloads"] and set(m["workloads"]) <= names for m in layers.values()),
           "layers.json names known workloads for every metric")
    expect(names == set(WORKLOADS), "BENCHMARK.json lists the binary's workloads")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(["--workload", workload, "--seed", "2", "--seconds", "0.5",
                                      "--trace", str(trace), "--small",
                                      "--trace-dir", str(BUILD / "self-test-traces")])
            result = parse_result(lines)
            ok = code == 0 and result is not None and result.get("correct") is True
            declared = declared_metrics(trace)
            problems = (metric_problems(result, declared,
                                        measured_metrics(workload, trace, declared))
                        if result else ["no result"])
            for problem in problems:
                log("perfbench:", problem)
            expect(ok and not problems,
                   f"{workload} trace {trace}: correct, prints exactly its metrics")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.workload is None or opts.seconds is None:
        parser.error("--workload and --seconds are required")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
