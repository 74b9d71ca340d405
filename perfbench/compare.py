#!/usr/bin/env python3
"""Compares two sets of benchmark runs (parent and child).

    python3 perfbench/compare.py PARENT_DIR CHILD_DIR
    python3 perfbench/compare.py --self-test

Each directory holds run records written by run.py (`.bench_runs/*.json`).
Runs are grouped by workload and trace mode. For every metric of
BENCHMARK.json the verdict is:

* `regression` — the child's median is worse than the parent's by more
  than the metric's bound;
* `unresolved` — the spread (interquartile range over median) of either
  set is wider than the bound, unless every child run beats every parent
  run (`improved`);
* `slower` — within the bound but clearly worse: the child loses nine
  tenths of the (parent, child) pairs and the medians differ by more than
  the parent's spread. It is flagged and does not fail the comparison;
* `improved` / `ok` otherwise.

Per-layer metrics have no bound in BENCHMARK.json; they are flagged with
PER_LAYER_BOUND so that a layer that doubled shows. Runs whose host or
configuration fingerprints differ are reported with a warning and never
pass. The exit code is 0 only when every verdict is `ok`, `improved` or
`slower`, the fingerprints agree and every child run passed its checks.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PER_LAYER_BOUND = 0.25


def load_spec(path=os.path.join(os.path.dirname(HERE), "BENCHMARK.json")):
    with open(path) as f:
        bench = json.load(f)
    spec = {m["name"]: dict(m, trace=0) for m in bench["end_to_end"]}
    spec.update({m["name"]: dict(m, trace=1, bound=PER_LAYER_BOUND) for m in bench["per_layer"]})
    return spec


def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def spread(values):
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / abs(m) if m else float("inf")


def losses(parent, child, better):
    """Share of (parent, child) pairs in which the child reads worse."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(p, c) for p in parent for c in child]
    return sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)


def verdict(parent, child, better, bound):
    p_med, c_med = statistics.median(parent), statistics.median(child)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else (0.0 if c_med == p_med else float("inf"))
    all_better = (max(child) < min(parent)) if better == "lower" else (min(child) > max(parent))
    if max(spread(parent), spread(child)) > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    # Within the bound but clearly worse: the child loses nine tenths of
    # the pairs and the medians differ by more than the parent's spread.
    if worse > spread(parent) and losses(parent, child, better) >= 0.9:
        return "slower", worse
    return ("improved" if worse < -bound else "ok"), worse


def fingerprint_key(record):
    fp = record.get("fingerprint") or {}
    return json.dumps({"host": fp.get("host"), "config": fp.get("config")}, sort_keys=True)


def compare(parent, child, spec, out=print):
    """Prints a verdict per (workload, trace, metric); returns True when
    the child passes."""
    passed = True
    groups = sorted({(r["workload"], r["trace"]) for r in parent + child})
    for workload, trace in groups:
        p = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        c = [r for r in child if (r["workload"], r["trace"]) == (workload, trace)]
        out(f"== {workload} trace={trace}: {len(p)} parent runs, {len(c)} child runs")
        if not p or not c:
            out("   WARNING: one side has no runs; nothing compared")
            passed = False
            continue
        keys = {fingerprint_key(r) for r in p + c}
        if len(keys) > 1:
            out("   WARNING: host/config fingerprints differ between runs; "
                "the comparison cannot pass:")
            for k in sorted(keys):
                out(f"     {k}")
            passed = False
        failing = [r for r in c if not r.get("correct", False)]
        if failing:
            out(f"   FAIL: {len(failing)} child runs failed their output checks")
            passed = False
        for name, m in spec.items():
            if m["trace"] != trace:
                continue
            pv = [r["metrics"][name]["value"] for r in p if name in r.get("metrics", {})]
            cv = [r["metrics"][name]["value"] for r in c if name in r.get("metrics", {})]
            if not pv or not cv:
                continue
            v, worse = verdict(pv, cv, m["better"], m["bound"])
            if v not in ("ok", "improved", "slower"):
                passed = False
            flag = "FLAG " if v != "ok" else "     "
            out(f"   {flag}{name:<34} {v:<10} parent {statistics.median(pv):.6g} "
                f"(spread {spread(pv):.3f}) child {statistics.median(cv):.6g} "
                f"(spread {spread(cv):.3f}) worse {worse:+.3f} bound {m['bound']}")
    out("PASS" if passed else "NOT PASSED")
    return passed


def self_test():
    """The comparison must be able to fail."""
    spec = load_spec()

    def runs(workload, trace, values, host="h1"):
        out = []
        for i in range(10):
            metrics = {k: {"value": v[i] if isinstance(v, list) else v * (1 + 0.004 * (i % 5 - 2))}
                       for k, v in values.items()}
            out.append({"workload": workload, "trace": trace, "correct": True,
                        "metrics": metrics,
                        "fingerprint": {"host": {"cpus": 2, "name": host}, "config": {}}})
        return out

    base = {"setup_s": 2.4, "peak_rss_mb": 390.0, "wall_s": 7.2}
    layers = {"ecosystem.world_build_s": 2.4, "honeypot.probe_s": 0.5}
    parent = runs("repro-10k", 0, base) + runs("repro-10k", 1, layers)
    quiet = []

    assert compare(parent, runs("repro-10k", 0, base) + runs("repro-10k", 1, layers),
                   spec, quiet.append), "identical sets must pass"

    slower = dict(base, wall_s=7.2 * 1.2)
    lines = []
    compare(parent, runs("repro-10k", 0, slower) + runs("repro-10k", 1, layers),
            spec, lines.append)
    assert any("FLAG" in line and "wall_s" in line for line in lines), \
        "+20% repro_s must be flagged"

    doubled = dict(layers, **{"ecosystem.world_build_s": 4.8})
    lines = []
    assert not compare(parent, runs("repro-10k", 0, base) + runs("repro-10k", 1, doubled),
                       spec, lines.append), "2x world_build must be flagged"
    assert any("ecosystem.world_build_s" in line and "regression" in line for line in lines)

    noisy = dict(base, wall_s=[7.2 * f for f in (0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0)])
    lines = []
    assert not compare(parent, runs("repro-10k", 0, noisy) + runs("repro-10k", 1, layers),
                       spec, lines.append), "a spread wider than the bound must not pass"
    assert any("wall_s" in line and "unresolved" in line for line in lines)

    lines = []
    other_host = runs("repro-10k", 0, base, host="h2") + runs("repro-10k", 1, layers, host="h2")
    assert not compare(parent, other_host, spec, lines.append), "fingerprint mismatch must not pass"
    assert any("WARNING" in line for line in lines)
    print("compare.py self-test: all cases behaved as required")


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
        return 0
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, child = load_records(sys.argv[1]), load_records(sys.argv[2])
    return 0 if compare(parent, child, load_spec()) else 1


if __name__ == "__main__":
    sys.exit(main())
