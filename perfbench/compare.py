"""Compare benchmark records of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py` appends to its `--results` file.
Records pair up by position within each (workload, trace) group, so
collect them interleaved: parent, change, change, parent, ... with the
same seeds on both sides (NOTES.md shows a loop). For every workload and
metric the report gives each side's median and quartiles, the share of
pairs the change wins (ties count for neither side) and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json; for metrics without a bound, the
              parent wins at least 9 of 10 pairs by more than that range
  unresolved  the parent's own spread exceeds the bound (or there is no
              bound) and neither of the above holds, unless every change
              run is better than every parent run
  unchanged   otherwise

It also says whether the two sides wrote byte-identical outputs for the
same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HIGHER_IS_BETTER_UNITS = ("windows/s", "rows/s", "share")
WIN_SHARE = 0.9


def load(path):
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def values(record):
    out = dict(record["metrics"])
    out.update(record.get("detail", {}))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from paired runs (lists of equal length)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    if better is None:
        return "unchanged" if pm == cm else "unresolved", None
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    gap = abs(cm - pm)
    if wins >= WIN_SHARE * pairs and gap > spread:
        return "improved", wins / pairs
    if bound is not None and pm and sign * (cm - pm) / abs(pm) < -bound:
        return "worse", wins / pairs
    if bound is None and losses >= WIN_SHARE * pairs and gap > spread:
        return "worse", wins / pairs
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (bound is None or (pm and spread / abs(pm) > bound)) and not all_better:
        return "unresolved", wins / pairs
    return "unchanged", wins / pairs


def direction(name, unit, declared):
    if name in declared:
        return declared[name].get("better")
    if unit == "count":
        return None
    return "higher" if unit in HIGHER_IS_BETTER_UNITS else "lower"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=str(Path(__file__).resolve().parent.parent
                                               / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.bench).read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    parents, changes = load(args.parent), load(args.change)
    for key in sorted(set(parents) & set(changes)):
        workload, trace = key
        pairs = list(zip(parents[key], changes[key]))
        print(f"\n== {workload} (trace {trace}), {len(pairs)} pairs")
        same_seed = [(p, c) for p, c in pairs if p["seed"] == c["seed"]]
        same = sum(1 for p, c in same_seed if p["digests"] == c["digests"])
        print(f"outputs byte-identical in {same} of {len(same_seed)} same-seed pairs")
        failed = [sum(r["failed"] for r, _ in pairs), sum(r["failed"] for _, r in pairs)]
        print(f"failed operations: parent {failed[0]}, change {failed[1]}")
        names = sorted(set.intersection(*(set(values(r)) for pair in pairs for r in pair)))
        print(f"{'metric':44s} {'unit':9s} {'parent median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} wins  verdict")
        for name in names:
            unit = values(pairs[0][0])[name]["unit"]
            parent = [values(p)[name]["value"] for p, _ in pairs]
            change = [values(c)[name]["value"] for _, c in pairs]
            bound = declared.get(name, {}).get("bound")
            result, share = verdict(parent, change, direction(name, unit, declared), bound)
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{name:44s} {unit:9s} "
                  f"{pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(88)
                  + f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(33)
                  + (f"{share:4.0%}  " if share is not None else "   -  ") + result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
