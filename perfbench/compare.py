"""Compare run records written by `run.py --record PATH`.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Prints, for every metric the records share, the median of each side and
the ratio new/base.  Refuses (exit 2) to compare records of different
workloads, trace modes or kernel backends: the compiled kernels and the
pure-Python ones are different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _load(paths):
    return [json.loads(open(p, encoding="utf-8").read()) for p in paths]


def _key(rec):
    return (rec["workload"], rec["trace"], json.dumps(rec["env"]["backend"]))


def compare(base, new) -> list:
    """Rows (metric, base median, new median, ratio); raises ValueError
    when the records are not comparable."""
    keys = {_key(r) for r in base + new}
    if len(keys) != 1:
        raise ValueError(f"records differ in workload, trace mode or backend: {sorted(keys)}")
    rows = []
    for name in sorted(set.intersection(*(set(r["metrics"]) for r in base + new))):
        b = statistics.median(r["metrics"][name] for r in base)
        n = statistics.median(r["metrics"][name] for r in new)
        rows.append((name, b, n, n / b if b else float("nan")))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(_load(args.base), _load(args.new))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':32s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, b, n, ratio in rows:
        print(f"{name:32s} {b:14.6g} {n:14.6g} {ratio:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
