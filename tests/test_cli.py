"""The command-line interface: round-trips, determinism, exit codes,
and every command shown in the README."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cflat import bieberbach, cli, glattice, serialize
from cflat.errors import DomainError, InternalCheckError
from cflat.glattice import make_glattice
from cflat.zlinalg import IntMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_snf_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["divisors"] == [2, 4]
    d = serialize.matrix_from_json(payload["d"])
    u = serialize.matrix_from_json(payload["u"])
    v = serialize.matrix_from_json(payload["v"])
    assert u * IntMatrix([[2, 4], [6, 8]]) * v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("[[6]]"))
    code, out, _ = run_cli(capsys, "snf")
    assert code == 0
    assert json.loads(out)["divisors"] == [6]


def test_snf_reads_stdin_as_json_not_as_a_file_name(tmp_path, monkeypatch, capsys):
    """Stdin holds the matrix itself: text starting with @ is invalid JSON,
    even when a file of that name exists; --matrix @file still reads it."""
    import io

    (tmp_path / "m.json").write_text("[[2,4],[6,8]]")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("@m.json"))
    code, out, err = run_cli(capsys, "snf")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1, err
    code, out, _ = run_cli(capsys, "snf", "--matrix", "@m.json")
    assert code == 0 and json.loads(out)["divisors"] == [2, 4]


def test_snf_accepts_string_entries(capsys):
    huge = str(10**40)
    code, out, _ = run_cli(capsys, "snf", "--matrix", f'[["{huge}"]]')
    assert code == 0
    assert json.loads(out)["divisors"] == [10**40]


def test_h1_verb(capsys):
    code, out, _ = run_cli(capsys, "h1", "--g0", "[[0,-1],[1,-1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["group"]["name"] == "Z/3"
    assert payload["cardinality"] == payload["formula_value"] == 3
    assert payload["certificate"] == "inconclusive"


def test_homology_verb_all_names(capsys):
    from cflat.bieberbach import CATALOG_NAMES

    for name in CATALOG_NAMES:
        code, out, _ = run_cli(capsys, "homology", "--group", name)
        assert code == 0
        assert json.loads(out)["name"] == name


def test_classify_verb(capsys):
    code, out, _ = run_cli(capsys, "classify", "--base", "K", "--dim", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["count_matches_published"] is True
    code, out, _ = run_cli(capsys, "classify", "--base", "K", "--dim", "5")
    payload = json.loads(out)
    assert payload["count"] == 6 and payload["published_count"] == 5
    assert payload["count_matches_published"] is False
    code, out, _ = run_cli(
        capsys, "classify", "--base", "T2", "--dim", "4", "--format", "tsv"
    )
    assert code == 0
    assert out.startswith("label\t") and len(out.rstrip("\n").split("\n")) == 4


def test_classify_at_the_dimension_cap_is_bounded(capsys):
    """classify's largest allowed input, total dimension 40, answers
    within 0.5 s on every base; dimension 41 is refused with exit 1."""
    for base in ("S1", "T2", "K"):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "classify", "--base", base, "--dim", "40")
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out)["total_dim"] == 40
        assert elapsed < 0.5, (base, elapsed)
        code, out, err = run_cli(capsys, "classify", "--base", base, "--dim", "41")
        assert code == 1 and out == "" and "bound 40" in err


def test_output_is_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "classify", "--base", "K", "--dim", "6")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("\n")


def test_equivalence_verbs(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(
        json.dumps(
            {"base": "K", "summands": [{"kind": "real", "free": ["1/2"], "torsion": ["1/2"]}]}
        )
    )
    right.write_text(
        json.dumps(
            {"base": "K", "summands": [{"kind": "real", "free": ["0"], "torsion": ["1/2"]}]}
        )
    )
    code, out, _ = run_cli(capsys, "affine-eq", "--left", f"@{left}", "--right", f"@{right}")
    assert code == 0
    assert json.loads(out)["equivalent"] is True
    code, out, _ = run_cli(capsys, "stable-eq", "--left", f"@{left}", "--right", f"@{right}")
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["left"]["w1_orbit_min"] == payload["right"]["w1_orbit_min"]


def test_moduli_verb(capsys):
    code, out, _ = run_cli(capsys, "moduli", "--space", "T2xR2", "--angles", "1/2,0")
    assert code == 0
    assert json.loads(out)["canonical"] == ["0", "1/2"]
    code, out, _ = run_cli(capsys, "moduli", "--space", "S1xR3", "--angles", "2/3")
    assert json.loads(out)["canonical"] == ["1/3"]
    code, out, _ = run_cli(capsys, "moduli", "--space", "TK", "--angles", "1/2,1/2")
    assert json.loads(out)["canonical"] == ["1/2", "0"]


def test_moduli_angle_count_errors_exit_one(capsys):
    """A wrong angle count exits 1 with one error line and no stdout; the
    torus and Klein counts are checked by the canonical forms themselves."""
    for space, angles, message in (
        ("T2xR2", "1/2,1/3,1/4", "expected 2 angles, got 3"),
        ("T2xR2", "1/2", "expected 2 angles, got 1"),
        ("TK", "1/2,1/3,1/4", "expected 2 angles, got 3"),
        ("TK", "0", "expected 2 angles, got 1"),
        ("S1xR3", "1/2,1/3", "S1xR3 takes one angle"),
    ):
        code, out, err = run_cli(capsys, "moduli", "--space", space, "--angles", angles)
        assert (code, out, err) == (1, "", f"error: {message}\n"), space


def test_dim4_and_bound_and_family(capsys):
    code, out, _ = run_cli(capsys, "dim4-table")
    assert code == 0
    assert json.loads(out)["count"] == 14
    code, out, _ = run_cli(capsys, "bound", "--rank", "2", "--order", "2", "--fiber-dim", "1")
    assert json.loads(out)["bound"] == 6
    code, out, _ = run_cli(capsys, "family", "--base", "T2", "--count", "3")
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["members"][0]["summands"][0]["free"] == ["1/2", "0"]


def test_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "snf", "--matrix", "[[1,2],[3]]")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "snf", "--matrix", "not json")
    assert code == 1
    code, _, err = run_cli(capsys, "h1", "--g0", "[[2]]")
    assert code == 1
    code, _, err = run_cli(capsys, "homology", "--group", "Q8")
    assert code == 1
    code, _, err = run_cli(capsys, "moduli", "--space", "T2xR2", "--angles", "1/2")
    assert code == 1
    # argparse problems are input problems too
    code, _, err = run_cli(capsys, "no-such-verb")
    assert code == 1
    code, _, err = run_cli(capsys, "classify", "--base", "RP2", "--dim", "4")
    assert code == 1


def test_h1_rejections_print_one_error_line(capsys):
    """h1 refuses a g0 that is not square, not unimodular (singular too) or
    of infinite order with exit 1, one exact stderr line and nothing on stdout."""
    cases = [
        ("[[1,2,3]]", "error: automorphism matrix must be square, got 1x3\n"),
        ("[[2]]", "error: matrix is not a lattice automorphism (det != +-1)\n"),
        # a zero first column: the determinant is 0 before any elimination
        ("[[0,1],[0,2]]", "error: matrix is not a lattice automorphism (det != +-1)\n"),
        ("[[1,1],[0,1]]", "error: matrix order exceeds bound 10000\n"),
    ]
    for g0, message in cases:
        assert run_cli(capsys, "h1", "--g0", g0) == (1, "", message)


def test_bundle_shape_rejections_print_one_error_line(capsys):
    """A summand that is not an object, angle lists that are not arrays,
    summands that are not an array and a torsion angle count that does
    not match the base each exit 1 with one exact error line."""
    right = '{"base": "S1", "summands": []}'
    cases = [
        ('{"base": "K", "summands": [1]}', "each summand must be an object"),
        ('{"base": "K", "summands": [{"kind": "real", "free": "0"}]}', "summand angle lists must be arrays"),
        ('{"base": "K", "summands": {}}', "summands must be an array"),
        (
            '{"base": "K", "summands": [{"kind": "real", "free": ["0"], "torsion": []}]}',
            "K has 1 torsion generators, got 0 angles",
        ),
    ]
    for left, message in cases:
        argv = ("stable-eq", "--left", left, "--right", right)
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n"), left


def test_integer_angles_read_as_their_fractions(capsys):
    """JSON integer angles are accepted and read as the same angles as
    their string forms, against an equivalent and an inequivalent bundle."""
    for other in ('["0", "0"]', '["1/2", "0"]'):
        right = f'{{"base": "T2", "summands": [{{"kind": "real", "free": {other}}}]}}'
        outputs = []
        for free in ("[0, 0]", '["0", "0"]'):
            left = f'{{"base": "T2", "summands": [{{"kind": "real", "free": {free}}}]}}'
            code, out, err = run_cli(capsys, "affine-eq", "--left", left, "--right", right)
            assert (code, err) == (0, ""), free
            outputs.append(out)
        assert outputs[0] == outputs[1], other


def test_bound_at_its_caps_is_bounded(capsys):
    """bound answers within 0.5 s at its caps (order^rank 2,000,000,
    fiber dimension 1000) and refuses past them with exit 1."""
    for rank, order in ((1, 2_000_000), (2, 1414), (20, 2)):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "bound", "--rank", str(rank), "--order", str(order), "--fiber-dim", "1000"
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out)["bound"] > 0
        assert elapsed < 0.5, (rank, order, elapsed)
    for rank, order, fiber in ((1, 2_000_001, 1), (21, 2, 1), (10**12, 2, 1), (1, 2, 1001)):
        code, out, err = run_cli(
            capsys, "bound", "--rank", str(rank), "--order", str(order), "--fiber-dim", str(fiber)
        )
        assert code == 1 and out == "" and "exceeds bound" in err


def test_h1_prime_at_its_cap_is_bounded(capsys):
    """h1 answers within 0.5 s with the auxiliary prime at its cap
    (2^31 - 1, itself prime) and refuses a larger one with exit 1."""
    rot4 = "[[0,-1],[1,0]]"
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "h1", "--g0", rot4, "--prime", str(2**31 - 1))
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["q_used"] == 2**31 - 1
    assert elapsed < 0.5, elapsed
    for prime in (2**31, 1_000_000_000_000_000_003):
        code, out, err = run_cli(capsys, "h1", "--g0", rot4, "--prime", str(prime))
        assert code == 1 and out == "" and "exceeds bound" in err


def _rank48_worst_orders():
    """The rank-48 unipotent Jordan block (infinite order) and a rank-48
    permutation lattice of order 5 * 7 * 9 * 11 * 13 = 45,045."""
    n = 48
    jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    image, at = list(range(n)), 0
    for length in (5, 7, 9, 11, 13):
        for i in range(length):
            image[at + i] = at + (i + 1) % length
        at += length
    cycles = [[int(image[j] == i) for j in range(n)] for i in range(n)]
    return jordan, cycles


def test_worst_matrix_orders_are_refused_fast(capsys):
    """make_glattice refuses both within 0.5 s, and h1 exits 1 with one
    error line and nothing on stdout."""
    for rows in _rank48_worst_orders():
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^matrix order exceeds bound 10000$"):
            make_glattice(IntMatrix(rows))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, elapsed
        code, out, err = run_cli(capsys, "h1", "--g0", json.dumps(rows))
        assert (code, out, err) == (1, "", "error: matrix order exceeds bound 10000\n")


def test_homology_walks_the_holonomy_once(monkeypatch, capsys):
    """homology reads one holonomy walk for the H_1 relator, the order
    and the cyclicity check; counted as the holonomy_group calls that
    multiply matrices, on specs no earlier call has walked."""
    fresh = {name: dataclasses.replace(spec) for name, spec in bieberbach.catalog().items()}
    monkeypatch.setattr(bieberbach, "_CATALOG", fresh)
    products = [0]
    mul = IntMatrix.__mul__

    def counting_mul(self, other):
        products[0] += 1
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    holonomy_group = bieberbach.holonomy_group
    walks = []

    def counting_holonomy_group(spec):
        before = products[0]
        hol = holonomy_group(spec)
        if products[0] > before:
            walks.append(len(hol))
        return hol

    for module in (bieberbach, cli):
        monkeypatch.setattr(module, "holonomy_group", counting_holonomy_group)
    code, out, _ = run_cli(capsys, "homology", "--group", "G5")
    assert code == 0 and json.loads(out)["holonomy_order"] == 6
    assert walks == [6]


def test_numbers_python_cannot_convert_exit_one(capsys):
    """A signed denominator, a number past Python's int-string digit
    limit in an argument, and a result past it are rejected inputs: one
    error line, exit 1, nothing on stdout."""
    digits = sys.get_int_max_str_digits()
    huge = "1" * (digits + 1)
    a, b = 10 ** (digits - 10) + 1, 10 ** (digits - 10)  # coprime; SNF holds a*b
    cases = [
        ("moduli", "--space", "S1xR3", "--angles", "1/-2"),
        ("moduli", "--space", "S1xR3", "--angles", f"1/{huge}"),
        ("snf", "--matrix", f"[[{huge}]]"),
        ("snf", "--matrix", f'[["{huge}"]]'),
        ("affine-eq", "--left", f'{{"base": "S1", "summands": [{{"free": ["{huge}"]}}]}}',
         "--right", '{"base": "S1", "summands": []}'),
        ("snf", "--matrix", f'[["{a}", "0"], ["0", "{b}"]]'),
        ("bound", "--rank", "1", "--order", "2000000", "--fiber-dim", "4000"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    with pytest.raises(DomainError):
        serialize.dump_json({"n": 10 ** (digits + 1)})


def test_input_that_is_not_utf8_exits_one(tmp_path, monkeypatch, capsys):
    """A file argument or stdin that is not UTF-8 is a rejected input:
    one error line, exit 1, nothing on stdout."""
    import io

    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[[1]]")
    bundle = '{"base": "S1", "summands": []}'
    for argv in (
        ("snf", "--matrix", f"@{bad}"),
        ("h1", "--g0", f"@{bad}"),
        ("stable-eq", "--left", f"@{bad}", "--right", bundle),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: cannot read {str(bad)!r}: 'utf-8' codec") and err.count("\n") == 1, err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict"))
    code, out, err = run_cli(capsys, "snf")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read stdin: 'utf-8' codec") and err.count("\n") == 1, err


def test_json_nested_past_the_recursion_limit_exits_one(tmp_path, capsys):
    """JSON nested deeper than the interpreter can parse is invalid JSON:
    one error line, exit 1, nothing on stdout."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 50_000 + "]" * 50_000)
    for argv in (
        ("snf", "--matrix", f"@{deep}"),
        ("affine-eq", "--left", f"@{deep}", "--right", f"@{deep}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded") and err.count("\n") == 1, err


def test_bundle_base_that_is_not_a_string_exits_one(capsys):
    """A list or an object as a bundle's base is a rejected input, not a
    crash in the cached base tables."""
    line = '{"kind": "real", "free": ["1/2"]}'
    for verb in ("affine-eq", "stable-eq"):
        for base in ('["S1"]', '{"a": 1}'):
            left = f'{{"base": {base}, "summands": [{line}]}}'
            argv = (verb, "--left", left, "--right", '{"base": "S1", "summands": []}')
            assert run_cli(capsys, *argv) == (1, "", "error: bundle base must be a string\n"), argv


def test_boolean_angles_exit_one(capsys):
    """JSON booleans are not angles: false is not read as 0, nor true as 1."""
    right = '{"base": "S1", "summands": []}'
    for value in ("false", "true"):
        left = f'{{"base": "S1", "summands": [{{"free": [{value}]}}]}}'
        message = f"error: not a rational number: {value.capitalize()}\n"
        for verb in ("stable-eq", "affine-eq"):
            assert run_cli(capsys, verb, "--left", left, "--right", right) == (1, "", message)


def test_internal_check_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InternalCheckError("forced")

    monkeypatch.setattr(cli, "smith_normal_form", boom)
    code, out, err = run_cli(capsys, "snf", "--matrix", "[[1]]")
    assert code == 2 and out == "" and "internal check failed" in err
    # one H^1 route disagreeing with the oracle (Z/3 here)
    monkeypatch.setattr(glattice, "h1_card_formula", lambda lat, q: 1)
    code, out, err = run_cli(capsys, "h1", "--g0", "[[0, -1], [1, -1]]")
    assert code == 2 and out == ""
    assert err == "internal check failed: counting formula 1 disagrees with oracle 3\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cflat", "homology", "--group", "G6"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h1"]["name"] == "Z/4 + Z/4"


def test_cli_import_builds_no_base_tables():
    """Importing the CLI computes nothing per base: the base data, cup
    tables, automorphism tables, the table of cyclotomic polynomials and
    the totient tables are built on first use, since every CLI call pays
    the import."""
    import cflat

    script = (
        "import cflat.cli\n"
        "from cflat.classify import aut_action\n"
        "from cflat.flatbundle import base_data, cup_table\n"
        "from cflat.zlinalg.matrix import _cyclotomic, _cyclotomic_candidates\n"
        "tables = (base_data, cup_table, aut_action, _cyclotomic, _cyclotomic_candidates)\n"
        "print([f.cache_info().currsize for f in tables])\n"
    )
    src = str(Path(cflat.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"


def test_readme_commands_run_clean(capsys):
    """Every ``cflat ...`` line in the README must exit 0."""
    readme = (REPO_ROOT / "README.md").read_text()
    commands = re.findall(r"^\$?\s*(cflat\s+\S.*)$", readme, flags=re.MULTILINE)
    assert len(commands) >= 8, "README should demonstrate the CLI verbs"
    for line in commands:
        argv = shlex.split(line)[1:]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, f"README command failed: {line}\n{captured.err}"
