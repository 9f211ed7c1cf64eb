"""Record the reference digest of every benchmark input's answer.

Run once, on the commit whose answers are taken as right:

    python3 perfbench/make_reference.py [workload ...]

Each answer first passes the benchmark's own checks (closed forms, known
class counts, verdicts fixed by construction, Smith oracles); a failing
check aborts.  The digest covers the input and the answer, so a changed
generator shows up as a mismatch too.  CLI answers are taken in-process
through ``cli.main``; timed runs compare real ``python -m cflat``
processes against them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cflat  # noqa: E402
import workloads  # noqa: E402


def build(workload: str) -> dict[str, list[str]]:
    out = {}
    seen: dict[str, str] = {}  # input digest -> entry digest (some slots repeat inputs)
    for slot in workloads.slots(workload):
        digests = []
        for variant in range(workloads.VARIANTS[workload]):
            q = workloads.make_input(workload, slot, variant)
            key = workloads.digest([slot[1], q])
            if key not in seen:
                seen[key] = workloads.entry_digest(slot, q, workloads.RUNNERS[slot[1]](cflat, q))
            digests.append(seen[key])
        out[slot[0]] = digests
        print(f"{workload}: {slot[0]}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        data = build(workload)
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(data, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
