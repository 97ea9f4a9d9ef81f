#!/usr/bin/env python3
"""Compare alternating parent/change perfbench runs, metric by metric.

Usage:

    python3 scripts/bench_compare.py [--json] FILE...
    python3 scripts/bench_compare.py --self-test

Each FILE holds the output of perfbench runs (python3 perfbench/run.py
--trace 0 ...), one after another.  Two kinds of line count; every other
line is ignored:

    # run workload=<name> ...        the workload of the results that follow
    [parent |change ]{result JSON}   one run's last line, the result object

A result line may carry the label `parent` or `change` in front of its
JSON.  Unlabeled result lines alternate parent, change, parent, ...
within each workload.  The i-th parent run of a workload pairs with its
i-th change run.

For every end-to-end metric the repository's BENCHMARK.json declares,
and every workload, the script prints the number of pairs, both medians,
their ratio (change / parent), the pairs the change wins (lower or
higher, per the metric's `better`), and the parent's quartiles.  The
last column flags a change median outside the parent's quartile range:
`WORSE` on the worse side, `better` on the other.  Quartiles interpolate
linearly between order statistics (statistics.quantiles, inclusive
method).

--json prints the same figures as one JSON object instead of the table.
--self-test checks the script against the committed fixture
scripts/bench_compare_fixture.txt.  Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
FIXTURE = HERE / "bench_compare_fixture.txt"
LABELS = ("parent", "change")


def read_runs(lines):
    """{workload: {"parent": [result...], "change": [result...]}} in file order."""
    runs = {}
    workload = "?"
    for raw in lines:
        line = raw.strip()
        if line.startswith("# run "):
            for field in line[len("# run "):].split():
                if field.startswith("workload="):
                    workload = field[len("workload="):]
            continue
        label = None
        for name in LABELS:
            if line.startswith(name + " "):
                label, line = name, line[len(name) + 1:].lstrip()
                break
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
            continue
        sides = runs.setdefault(workload, {"parent": [], "change": []})
        if label is None:
            label = "parent" if len(sides["parent"]) <= len(sides["change"]) else "change"
        sides[label].append(result)
    return runs


def value(result, metric):
    entry = result["metrics"].get(metric)
    if isinstance(entry, dict):
        entry = entry.get("value")
    return float(entry) if isinstance(entry, (int, float)) else None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare_metric(parents, changes, metric, better):
    pairs = [(value(p, metric), value(c, metric)) for p, c in zip(parents, changes)]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        return None
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    lower = better == "lower"
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    if c_med > q3:
        flag = "WORSE" if lower else "better"
    elif c_med < q1:
        flag = "better" if lower else "WORSE"
    else:
        flag = "inside"
    return {
        "pairs": len(pairs),
        "parent_median": p_med,
        "change_median": c_med,
        "ratio": c_med / p_med if p_med != 0 else None,
        "wins": sum(1 for p, c in pairs if (c < p if lower else c > p)),
        "parent_q1": q1,
        "parent_q3": q3,
        "flag": flag,
    }


def compare(runs, end_to_end):
    """{workload: {"pairs", "failed", "metrics": {name: figures}}}."""
    report = {}
    for workload, sides in runs.items():
        parents, changes = sides["parent"], sides["change"]
        failed = {
            side: sum(1 for r in results if not r.get("correct", True) or r.get("failed", 0))
            for side, results in sides.items()
        }
        metrics = {}
        for metric in end_to_end:
            figures = compare_metric(parents, changes, metric["name"], metric["better"])
            if figures is not None:
                metrics[metric["name"]] = figures
        report[workload] = {"pairs": min(len(parents), len(changes)), "failed": failed,
                            "metrics": metrics}
    return report


def fmt(x):
    if x is None:
        return "-"
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def table(report):
    rows = ["| workload | metric | pairs | parent median | change median | ratio | wins | "
            "parent IQR | flag |",
            "|---|---|---|---|---|---|---|---|---|"]
    for workload, entry in report.items():
        for metric, f in entry["metrics"].items():
            ratio = "-" if f["ratio"] is None else f"{f['ratio']:.3f}"
            rows.append(f"| {workload} | {metric} | {f['pairs']} | {fmt(f['parent_median'])} | "
                        f"{fmt(f['change_median'])} | {ratio} | {f['wins']}/{f['pairs']} | "
                        f"{fmt(f['parent_q1'])}–{fmt(f['parent_q3'])} | {f['flag']} |")
    notes = []
    for workload, entry in report.items():
        failed = entry["failed"]
        if failed["parent"] or failed["change"]:
            notes.append(f"{workload}: runs with a failed operation or not correct: "
                         f"parent {failed['parent']}, change {failed['change']}")
    return "\n".join(rows + notes)


def load_end_to_end(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def self_test(end_to_end):
    """The fixture's figures, worked out by hand; returns the failures."""
    with open(FIXTURE, encoding="utf-8") as f:
        report = compare(read_runs(f), end_to_end)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    expect(sorted(report) == ["alpha", "beta"], "workloads alpha and beta")
    a = report.get("alpha", {}).get("metrics", {})
    b = report.get("beta", {}).get("metrics", {})
    # alpha, unlabeled lines: peak_rss_mb parents 72.4, 72.5, 72.3, changes 36.2, 36.3, 36.1.
    rss = a.get("peak_rss_mb", {})
    expect(rss.get("pairs") == 3, "alpha pairs")
    expect(rss.get("parent_median") == 72.4 and rss.get("change_median") == 36.2,
           "alpha peak_rss_mb medians")
    expect(abs(rss.get("ratio", 0) - 0.5) < 1e-12, "alpha peak_rss_mb ratio")
    expect(rss.get("wins") == 3 and rss.get("flag") == "better", "alpha peak_rss_mb wins/flag")
    expect(abs(rss.get("parent_q1", 0) - 72.35) < 1e-9 and
           abs(rss.get("parent_q3", 0) - 72.45) < 1e-9, "alpha peak_rss_mb quartiles")
    # round_us.pool1 parents 100, 110, 90, changes 120, 121, 119: worse.
    r1 = a.get("round_us.pool1", {})
    expect(r1.get("flag") == "WORSE" and r1.get("wins") == 0, "alpha round_us.pool1 WORSE")
    # allocs_per_round equal on every run: inside, no wins.
    al = a.get("allocs_per_round", {})
    expect(al.get("flag") == "inside" and al.get("wins") == 0 and al.get("ratio") == 1.0,
           "alpha allocs_per_round inside")
    # beta, labeled lines out of order: change first, parent second.
    s = b.get("setup_s", {})
    expect(s.get("pairs") == 2 and s.get("parent_median") == 0.05 and
           s.get("change_median") == 0.04, "beta labeled pairing")
    expect(s.get("wins") == 2, "beta setup_s wins")
    expect("round_us.poolhw" not in b, "beta metric missing from every run is skipped")
    expect(report.get("beta", {}).get("failed") == {"parent": 1, "change": 0},
           "beta failed run counted")
    expect("WORSE" in table(report) and "beta: runs with a failed" in table(report),
           "table flags and notes")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="perfbench output files")
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    end_to_end = load_end_to_end(BENCHMARK)

    if opts.self_test:
        failures = self_test(end_to_end)
        for failure in failures:
            print("bench_compare self-test FAILED:", failure, file=sys.stderr)
        if not failures:
            print("bench_compare self-test passed")
        return 1 if failures else 0

    if not opts.files:
        parser.error("no input files")
    lines = []
    for name in opts.files:
        with open(name, encoding="utf-8") as f:
            lines.extend(f)
    report = compare(read_runs(lines), end_to_end)
    print(json.dumps(report, indent=2) if opts.json else table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
