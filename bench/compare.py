"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the captured standard output of runs of ``bench/run.py``,
one file per run.  Runs pair up by workload, trace mode and seed, so run the
same seeds on both sides and alternate which side runs first.  For every
(metric, workload) the table gives both sides' medians and quartiles and two
verdicts:

- gain: the change wins at least nine tenths of the pairs (ties count for
  neither side), there are at least ten pairs, and the medians differ, in the
  better direction, by more than the parent's quartile spread;
- bound (end-to-end metrics only): ``regressed`` when the change's median is
  worse than the parent's by more than the metric's bound in
  ``BENCHMARK.json``; ``unresolved`` when the parent's own spread exceeds the
  bound, unless every change run beats every parent run; otherwise ``ok``.

Exits with 1 when any metric regressed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Verdict:
    pairs: int
    wins: int
    parent: tuple  # (q1, median, q3)
    change: tuple
    gain: bool
    bound: str | None  # "ok", "regressed", "unresolved", or None without a bound


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.inf


def judge(parent, change, better: str, bound: float | None = None) -> Verdict:
    """Apply the gain rule and, given a bound, the no-regression rule to
    paired values: ``parent[i]`` and ``change[i]`` ran with the same seed."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change values, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq, cq = _quartiles(parent), _quartiles(change)
    spread = pq[2] - pq[0]
    gain = n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (cq[1] - pq[1]) > spread
    status = None
    if bound is not None:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if _relative(spread, pq[1]) > bound and not all_better:
            status = "unresolved"
        elif _relative(sign * (pq[1] - cq[1]), pq[1]) > bound:
            status = "regressed"
        else:
            status = "ok"
    return Verdict(n, wins, pq, cq, gain, status)


def load_results(directory) -> dict:
    """{(workload, trace): {seed: metrics}} from the runs' captured output."""
    out: dict = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        try:
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"skipping {path}: no result at its end", file=sys.stderr)
            continue
        values = {k: m["value"] for k, m in result["metrics"].items()}
        out.setdefault((details["workload"], details["trace"]), {})[details["seed"]] = values
    return out


def compare(parent_dir, change_dir, spec: dict) -> list:
    """Rows of (workload, metric, Verdict) for every metric both sides report."""
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        for metric, (better, bound) in rules.items():
            if any(side[key][s].get(metric) is None for side in (parent, change) for s in seeds):
                continue  # not reported, or a run too broken to measure it
            p = [parent[key][s][metric] for s in seeds]
            c = [change[key][s][metric] for s in seeds]
            rows.append((key[0], metric, judge(p, c, better, bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(argv[0], argv[1], spec)
    print(f"{'workload':13s} {'metric':45s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>6s} gain  bound")
    for workload, metric, v in rows:
        side = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (v.parent, v.change)]
        print(f"{workload:13s} {metric:45s} {side[0]:>36s} {side[1]:>36s} "
              f"{v.wins:>3d}/{v.pairs:<2d} {'yes' if v.gain else 'no ':4s} {v.bound or '-'}")
    return 1 if any(v.bound == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
