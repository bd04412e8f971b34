"""Spread of one set of runs, or the verdict between two sets.

    python3 bench/compare.py RUNS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

The files are written by sweep.py. For each metric the table has one row
per workload with each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and the number of runs.

One file: the spread is (q3 - q1) / median, checked against the metric's
bound from BENCHMARK.json ("steady" when below a third of it).

Two files: each pair is classified, in this order:
  improved       the change wins at least 9 of 10 pairs (run i of each side,
                 ties count for neither) and the medians differ by more than
                 the parent's q3 - q1;
  unresolved     either side's spread is wider than the bound, unless every
                 run of the change reads better than every run of the parent
                 (then improved);
  worse          the change's median is worse than the parent's by more than
                 the bound;
  within bound   otherwise.
Per-layer metrics have no bound: they read improved, worse (the same 9-of-10
rule in the other direction) or no change shown.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): [values in run order]} from a sweep file."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec.get("result"):
                continue
            for name, m in rec["result"]["metrics"].items():
                runs[(rec["workload"], name)].append(float(m["value"]))
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def classify(old, new, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    q1_old, m_old, q3_old = summary(old)
    m_new = summary(new)[1]
    pairs = list(zip(old, new))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    gap = abs(m_new - m_old) > q3_old - q1_old
    if pairs and wins >= 0.9 * len(pairs) and gap and sign * (m_new - m_old) > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gap:
            return "worse"
        return "no change shown"
    if max(spread(old), spread(new)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "improved"
        return "unresolved"
    if sign * (m_old - m_new) > bound * abs(m_old):
        return "worse"
    return "within bound"


def fmt(values):
    q1, med, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    sets = [load(p) for p in sys.argv[1:]]
    workloads = [w["name"] for w in config["workloads"]]
    names = [n for n in specs if any((w, n) in sets[0] for w in workloads)]
    worst = 0.0
    for name in names:
        spec = specs[name]
        bound = spec.get("bound")
        print(f"\n{name} ({spec['unit']}, {spec['better']} is better"
              + (f", bound {bound})" if bound is not None else ")"))
        for w in workloads:
            old = sets[0].get((w, name))
            if not old:
                continue
            if len(sets) == 1:
                sp = spread(old)
                verdict = ""
                if bound is not None:
                    verdict = "steady" if sp < bound / 3 else (
                        "within bound" if sp <= bound else "TOO WIDE")
                    if name != "setup_s":
                        worst = max(worst, sp / bound)
                print(f"  {w:14s} {fmt(old)}  spread {sp:.4f} {verdict}")
            else:
                new = sets[1].get((w, name), [])
                if not new:
                    continue
                print(f"  {w:14s} {fmt(old)}  ->  {fmt(new)}  "
                      f"{classify(old, new, spec['better'], bound)}")
    if len(sets) == 1 and worst:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
