"""Tests of the benchmark itself (not of cflat).

    python3 -m pytest perfbench -q

The repository's own test run does not collect this file.
"""

from __future__ import annotations

import fractions
import hashlib
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cflat  # noqa: E402
import compare  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ready import warm  # noqa: E402

warm(cflat)


def input_digest(workload: str, seed: int, count: int) -> str:
    h = hashlib.sha256()
    queries = (item for item in workloads.schedule(workload, seed) if item[0] is not None)
    for slot, variant in islice(queries, count):
        h.update(json.dumps(workloads.make_input(workload, slot, variant), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    n = 2 * len(workloads.slots(workload))
    assert input_digest(workload, 7, n) == input_digest(workload, 7, n)
    assert input_digest(workload, 7, n) != input_digest(workload, 8, n)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_holds_every_slot_once(workload):
    names = sorted(s[0] for s in workloads.slots(workload))
    assert len(names) % 10 == 5  # p50 and p90 then fall inside one slot's samples
    stream = workloads.schedule(workload, 3)
    for _ in range(3):
        round_ = []
        for slot, _variant in stream:
            if slot is None:
                break
            round_.append(slot[0])
        assert sorted(round_) == names


def test_reference_covers_every_input():
    for workload in workloads.WORKLOADS:
        ref = workloads.load_reference(workload)
        for name, _kind, _spec in workloads.slots(workload):
            assert len(ref[name]) == workloads.VARIANTS[workload]


def test_small_smith_oracle():
    assert workloads.gcd_minor_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert workloads.gcd_minor_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert workloads.bareiss_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3


def test_closed_forms():
    F = fractions.Fraction
    assert workloads.torus_closed_form((F(3, 4), F(1, 6))) == (0, F(1, 12))
    assert workloads.torus_closed_form((F(0), F(0))) == (0, 0)
    assert workloads.klein_closed_form((F(3, 4), F(5, 8))) == (F(1, 4), F(1, 8))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = {}
    for workload in workloads.WORKLOADS:
        spans = tmp_path_factory.mktemp("spans") / f"{workload}.jsonl.gz"
        ref = workloads.load_reference(workload)
        out[workload] = worker.traced_run(workload, 5, 60, cflat, ref, spans)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_agree(traced_runs, workload):
    run = traced_runs[workload]
    assert run["failed"] == 0, run["errors"]
    assert run["traced_answer_digest"] == run["answer_digest"]


def test_per_layer_metrics_nonzero_where_exercised(traced_runs):
    for name, _unit, workload in tracer.PER_LAYER:
        targets = workloads.WORKLOADS if workload == "*" else (workload,)
        for w in targets:
            if name == "cli.import_s":  # measured by run.py, outside the traced process
                continue
            assert traced_runs[w]["metrics"][name] > 0, (name, w)


def _namespace_snapshot():
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cflat" or mod_name.startswith("cflat."):
            for attr, value in vars(mod).items():
                snap[(mod_name, attr)] = value
    for cls in (cflat.IntMatrix, cflat.LineRep, cflat.SNFDecomposition, fractions.Fraction):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_uninstall_restores_every_original():
    before = _namespace_snapshot()
    t = tracer.Tracer()
    t.install()
    assert _namespace_snapshot() != before
    t.active = True
    cflat.h1_report(cflat.make_glattice(cflat.IntMatrix([[0, -1], [1, -1]])))
    t.active = False
    t.uninstall()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert t.stats["glattice.h1_report"].calls == 1


def test_compare_refuses_different_stamps():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = {"workload": "h1_lattices", "trace": 0, "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]}}
    base = [dict(rec, stamp={"python": "3.11.7", "nproc": 2, "kernel_backend": "python"})]
    same = [dict(rec, stamp=dict(base[0]["stamp"]))]
    other = [dict(rec, stamp={"python": "3.11.7", "nproc": 2, "kernel_backend": "c"})]
    assert compare.compare(base, same, spec)[0] == 0
    assert compare.compare(base, other, spec)[0] == 2


def test_fails_without_cflat_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "moduli_orbits", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
