"""The cflat benchmark: one command, every metric, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload h1_lattices --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0   # every workload
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1   # per-layer metrics

``--trace 0`` prints the end-to-end metrics of each workload; ``--trace 1``
prints the per-layer metrics from a separate traced run and
``trace.overhead_ratio``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also appends every full result record, stamped with the Python version,
``nproc`` and cflat's kernel backend, for ``compare.py``.

cflat is imported from ``src/`` of the checkout and from nowhere else; the
command fails when it is missing.  See METRICS.md for the catalogue.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = (5, 4)  # fresh interpreters before and after the timed loop; setup_s is their median
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _python(args, timeout=None) -> subprocess.CompletedProcess:
    """Run a Python child in a session of its own, so that a timeout kills
    it together with every process it started."""
    cmd = [sys.executable, *args]
    with subprocess.Popen(
        cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{args[0]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args[:2]))} exited {proc.returncode}:\n{err[-2000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_seconds(mode: str, count: int) -> list[float]:
    """Interpreter start to ready, once per fresh interpreter."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = _python([str(HERE / "ready.py"), mode])
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def import_seconds() -> float:
    """cflat's cumulative import time, from ``-X importtime``, median of a few."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _python(["-X", "importtime", "-c", "import cflat.cli"])
        total = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].startswith(" cflat") and not parts[2].startswith("  "):
                total += int(parts[1])
        samples.append(total / 1e6)
    return statistics.median(samples)


def stamp(kernel_backend) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernel_backend,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        args += ["--trace", "1", "--spans", str(out_dir / f"spans_{workload}_{seed}.jsonl.gz")]
    mode = "cli" if workload == "cli_session" else "api"
    samples = [] if trace else setup_seconds(mode, SETUP_SAMPLES[0])
    proc = _python(args, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(res.pop("cflat_path")) != SRC / "cflat":
        raise BenchError("cflat was not imported from this checkout's src/")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "stamp": stamp(res.pop("kernel_backend"))}
    record.update(res)
    if trace:
        record["metrics"]["cli.import_s"] = import_seconds()
        record["correct"] = res["failed"] == 0 and res["traced_answer_digest"] == res["answer_digest"]
    else:
        samples += setup_seconds(mode, SETUP_SAMPLES[1])
        record["setup_samples"] = samples
        record["metrics"] = {"setup_s": statistics.median(samples)}
        for name, _ in END_TO_END[1:]:
            record["metrics"][name] = res.pop(name)
        record["correct"] = res["failed"] == 0
    return record


def print_record(rec: dict) -> None:
    from tracer import PER_LAYER

    st = rec["stamp"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}")
    print(f"   stamp: python={st['python']} nproc={st['nproc']} kernel_backend={st['kernel_backend']}")
    print(f"   inputs {rec['input_digest']}  answers {rec['answer_digest']}")
    for err in rec["errors"]:
        print(f"   FAILED {err}")
    m = rec["metrics"]
    if rec["trace"]:
        print(f"   traced run: {rec['attempted']} queries (untraced, then traced), {rec['spans']} spans kept")
        print("   no wait metrics: cflat's layers have no queues")
        for name, unit, _ in PER_LAYER:
            print(f"   {name:42s} {m[name]:14.6g} {unit}")
        return
    n = rec["samples"]
    print(f"   closed loop, 1 client, 1 query in flight: {rec['rounds']} rounds, {n} queries, {rec['wall_s']:.1f} s")
    print(f"   {'setup_s':16s} {m['setup_s']:10.4f} s    (median of {sum(SETUP_SAMPLES)} fresh interpreters)")
    print(f"   {'throughput_qps':16s} {m['throughput_qps']:10.3f} 1/s")
    print(f"   {'latency_p50_ms':16s} {m['latency_p50_ms']:10.3f} ms   (n={n})")
    print(f"   {'latency_p90_ms':16s} {m['latency_p90_ms']:10.3f} ms   (n={n}, {n - int(0.9 * n)} beyond)")
    print(f"   {'failed_frac':16s} {rec['failed'] / rec['attempted']:10.4g}      ({rec['failed']}/{rec['attempted']})")
    print(f"   {'peak_rss_mb':16s} {m['peak_rss_mb']:10.2f} MB")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import PER_LAYER

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed length of each run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append full result records (JSON lines) to this file")
    args = ap.parse_args(argv)

    if not (SRC / "cflat" / "__init__.py").is_file():
        print(f"error: no cflat sources at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "cflat"), quiet=1)  # the build: set-up should not pay for it

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    units = {row[0]: row[1] for row in (PER_LAYER if args.trace else END_TO_END)}
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
