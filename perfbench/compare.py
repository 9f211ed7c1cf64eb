"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that ``run.py --out`` appended.  For every
workload and end-to-end metric it prints both medians and the change as a
share of the base median, and flags a change that is worse than the
metric's bound in ``BENCHMARK.json``.  Results measured under different
stamps (Python version, nproc, kernel backend) are not comparable: the
comparison is refused with exit status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stamps(records) -> set[str]:
    return {json.dumps(r["stamp"], sort_keys=True) for r in records}


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[int, list[str]]:
    """(exit status, report lines)."""
    found = stamps(base) | stamps(new)
    if len(found) != 1:
        return 2, ["refused: the results carry different stamps:", *sorted(found)]
    lines, worse = [], 0
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in sorted({r["workload"] for r in base if not r["trace"]}):

            def median(records):
                vals = [r["metrics"][name] for r in records if r["workload"] == workload and not r["trace"]]
                return statistics.median(vals) if vals else None

            b, n = median(base), median(new)
            if b is None or n is None:
                continue
            change = (n - b) / b
            bad = change > bound if lower else change < -bound
            worse += bad
            flag = "WORSE" if bad else "ok"
            lines.append(f"{workload:16s} {name:16s} {b:12.5g} -> {n:12.5g}  {change:+7.1%}  bound {bound:.0%}  {flag}")
    return (1 if worse else 0), lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    status, lines = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
