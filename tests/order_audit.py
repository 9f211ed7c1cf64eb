"""Order audit: run the Tier-1 suite in its default order, reversed, under
three seeded shuffles, and then each test alone in a fresh process, and
name every test whose outcome differs from the default order.

    PYTHONPATH=src python tests/order_audit.py

Every run is a fresh ``python -m pytest`` with the ``order_plugin`` of
this directory loaded by ``-p``; the runs go one at a time.  Prints one
line per run with its time, then one ``test id: order=outcome ...`` line
per differing test, and exits 1 if there is any.  Outcome files go to a
temporary directory that is removed.  Standard library and pytest only."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERS = ("reversed", "shuffle:1", "shuffle:2", "shuffle:3")


def run_suite(outcomes: Path, order: str = "default", tests: tuple[str, ...] = ()) -> dict[str, str]:
    """{test id: outcome} of one fresh pytest run in the given order, of
    the named tests or of all of Tier-1."""
    path = [str(ROOT / "src"), str(ROOT / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])]
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    argv += ["-p", "order_plugin", "--order", order, "--outcomes", str(outcomes), *tests]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    outcomes.unlink(missing_ok=True)
    subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return json.loads(outcomes.read_text()) if outcomes.exists() else {}


def differences(default: dict[str, str], runs: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    """For each test of any run whose outcome in some run differs from
    its default one: its outcome in every run, "missing" where a run did
    not report it."""
    found = {}
    for test in sorted(set(default).union(*runs.values())):
        seen = {label: outcomes.get(test, "missing") for label, outcomes in runs.items()}
        want = default.get(test, "missing")
        if any(outcome != want for outcome in seen.values()):
            found[test] = {"default": want, **seen}
    return found


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch:
        outcomes = Path(scratch) / "outcomes.json"

        def timed(label, **how):
            start = time.monotonic()
            got = run_suite(outcomes, **how)
            print(f"{label}: {len(got)} tests, {time.monotonic() - start:.1f} s", flush=True)
            return got

        default = timed("default")
        runs = {order: timed(order, order=order) for order in ORDERS}
        start = time.monotonic()
        runs["alone"] = {}
        for test in sorted(default):
            runs["alone"].update(run_suite(outcomes, tests=(test,)))
        print(f"alone: {len(runs['alone'])} tests, {time.monotonic() - start:.1f} s", flush=True)
    found = differences(default, runs)
    for test, seen in found.items():
        print(f"{test}: " + " ".join(f"{label}={outcome}" for label, outcome in seen.items()))
    failed = sum(outcome != "passed" for outcome in default.values())
    print(
        f"{len(found)} of {len(default)} tests differ from the default order "
        f"({failed} not passed there), {time.monotonic() - started:.0f} s"
    )
    return 1 if found or not default else 0


if __name__ == "__main__":
    sys.exit(main())
