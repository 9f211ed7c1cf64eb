"""One run of one workload in a fresh interpreter; started by ``run.py``.

Closed loop: one client sends one query at a time and waits for it.  Only
the call into cflat is timed; input generation and answer checks happen
between queries.  The run ends at the first round boundary after
``--seconds`` once at least ``MIN_QUERIES`` queries were timed, so every run
holds whole rounds of the same mix.

With ``--trace 1`` the run instead takes a fixed number of rounds, runs them
untraced, then again with every layer wrapped (``tracer.py``), and reports
the per-layer aggregates and the traced/untraced time ratio.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_QUERIES = 100  # p90 then has at least ten samples beyond it
HARD_STOP = 3.0  # never run longer than this many times --seconds
TRACE_ROUNDS = {"h1_lattices": 2, "bundle_classes": 1, "moduli_orbits": 4, "cli_session": 2}


class Loop:
    """Runs queries from a schedule and keeps what the result needs."""

    def __init__(self, workload, seed, cflat, reference, cli_env=None):
        import workloads

        self.w = workloads
        self.workload = workload
        self.cflat = cflat
        self.reference = reference
        self.cli_env = cli_env
        self.schedule = workloads.schedule(workload, seed)
        self.inputs = hashlib.sha256()
        self.answers = hashlib.sha256()
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def next_query(self):
        """(slot, variant, input), or None at a round boundary."""
        slot, variant = next(self.schedule)
        if slot is None:
            return None
        q = self.w.make_input(self.workload, slot, variant)
        self.inputs.update(json.dumps(q, sort_keys=True).encode())
        return slot, variant, q

    def run(self, slot, variant, q, tracer=None) -> None:
        kind = slot[1]
        if kind == "cli" and self.cli_env is not None:
            call = lambda: self.w.run_cli_subprocess(q, self.cli_env)  # noqa: E731
        else:
            call = lambda: self.w.RUNNERS[kind](self.cflat, q)  # noqa: E731
        if tracer is not None:
            tracer.query = f"{slot[0]}/{variant}"
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any raise is a failed query, InternalCheckError included
            result = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.latencies.append(elapsed)
        self._check(slot, variant, q, result)

    def _check(self, slot, variant, q, result) -> None:
        try:
            if isinstance(result, Exception):
                raise result
            got = self.w.entry_digest(slot, q, result)
            want = self.reference[slot[0]][variant]
            if got != want:
                raise self.w.WrongAnswer(f"answer digest {got} != reference {want}")
        except Exception as exc:
            got = f"failed:{type(exc).__name__}"
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{slot[0]}/{variant}: {type(exc).__name__}: {exc}")
        self.answers.update(got.encode())

    def summary(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "input_digest": self.inputs.hexdigest()[:16],
            "answer_digest": self.answers.hexdigest()[:16],
            "errors": self.errors,
        }


def timed_run(loop: Loop, seconds: float) -> dict:
    # Each round runs on the next allowed CPU in turn: on a shared box one
    # core can be slower than another for minutes, and a run that stayed
    # on one core would measure that core rather than the program.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    start = time.perf_counter()
    rounds = 0
    while True:
        item = loop.next_query()
        elapsed = time.perf_counter() - start
        if item is None:
            rounds += 1
            if elapsed >= seconds and len(loop.latencies) >= MIN_QUERIES:
                break
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            continue
        if elapsed >= HARD_STOP * seconds:
            break
        loop.run(*item)
    lat = loop.latencies
    ok = len(lat) - loop.failed
    if loop.cli_env is not None:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = loop.summary()
    out.update(
        rounds=rounds,
        wall_s=time.perf_counter() - start,
        throughput_qps=ok / sum(lat),
        latency_p50_ms=1000 * statistics.median(lat),
        latency_p90_ms=1000 * statistics.quantiles(lat, n=10)[-1],
        samples=len(lat),
        peak_rss_mb=rss_kb / 1024,
        latencies_ms=[round(1000 * x, 4) for x in lat],
    )
    return out


def traced_run(workload, seed, seconds, cflat, reference, spans_path) -> dict:
    from tracer import Tracer, layer_metrics

    plain = Loop(workload, seed, cflat, reference)
    queries, rounds = [], 0
    start = time.perf_counter()
    while rounds < TRACE_ROUNDS[workload] and time.perf_counter() - start < seconds:
        item = plain.next_query()
        if item is None:
            rounds += 1
            continue
        plain.run(*item)
        queries.append(item)

    tracer = Tracer()
    traced = Loop(workload, seed, cflat, reference)
    tracer.install()
    try:
        start = time.perf_counter()
        for item in queries:
            if time.perf_counter() - start > HARD_STOP * seconds:
                break
            traced.run(*item, tracer=tracer)
    finally:
        tracer.uninstall()
    done = len(traced.latencies)
    metrics = layer_metrics(tracer.stats)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies[:done])
    tracer.write_spans(spans_path)
    out = plain.summary()
    out.update(
        traced_answer_digest=traced.summary()["answer_digest"] if done == len(queries) else None,
        attempted=len(plain.latencies) + done,
        failed=plain.failed + traced.failed,
        errors=plain.errors + traced.errors,
        metrics=metrics,
        spans=len(tracer.spans),
        spans_dropped=tracer.dropped,
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans (gzip JSON lines)")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import cflat
    from ready import warm

    warm(cflat)
    import workloads

    reference = workloads.load_reference(args.workload)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, cflat, reference, args.spans)
    else:
        cli_env = None
        if args.workload == "cli_session":
            cli_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        loop = Loop(args.workload, args.seed, cflat, reference, cli_env)
        result = timed_run(loop, args.seconds)
    result["kernel_backend"] = getattr(cflat, "KERNEL_BACKEND", None)
    result["cflat_path"] = str(Path(cflat.__file__).resolve().parent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
