"""CLI stdout pinned by digest: a fixed sweep of argv lists, each with the
exit code and the sha256 of the stdout it gave when it was recorded.

The sweep covers every verb and its rejections; ``classify`` on S1, T2,
K and G1 at total dimensions 1 to 41, in JSON and TSV; ``homology`` on
every catalog group and an unknown name; ``moduli`` with the wrong
angle counts; small ``snf`` and ``h1`` matrices; ``bound`` at its caps;
``family`` and ``dim4-table``.  stderr is not pinned by digest, but every
argv that exits 1 writes exactly one ``error: `` line to it, and every
argv that exits 0 writes nothing.

A change that means to change stdout says why, and records the sweep
again with ``python tests/test_cli_golden.py`` (run from the repository
root with ``src`` on the path), which rewrites ``cli_stdout_digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from cflat import cli
from cflat.bieberbach import CATALOG_NAMES

DIGESTS = Path(__file__).resolve().parent / "cli_stdout_digests.json"


def _bundle(base: str, *summands: tuple) -> str:
    return json.dumps(
        {
            "base": base,
            "summands": [
                {"kind": kind, "free": list(free), "torsion": list(tors)} for kind, free, tors in summands
            ],
        }
    )


_BUNDLE_PAIRS = (
    (_bundle("K", ("real", ["1/2"], ["1/2"])), _bundle("K", ("real", ["0"], ["1/2"]))),
    (_bundle("K", ("real", ["1/2"], ["0"])), _bundle("K", ("real", ["0"], ["1/2"]))),
    (_bundle("T2", ("complex", ["1/3", "0"], [])), _bundle("T2", ("complex", ["0", "2/3"], []))),
    (_bundle("T2", ("complex", ["1/4", "0"], [])), _bundle("T2", ("complex", ["1/3", "0"], []))),
    (
        _bundle("T2", ("real", ["1/2", "0"], []), ("real", ["0", "1/2"], [])),
        _bundle("T2", ("real", ["1/2", "1/2"], []), ("real", ["0", "0"], [])),
    ),
    (_bundle("S1", ("complex", ["1/5"], [])), _bundle("S1", ("complex", ["4/5"], []))),
    (_bundle("S1", ("real", ["1/2"], [])), _bundle("S1", ("real", ["0"], []))),
    (_bundle("K", ("complex", ["1/3"], ["1/2"])), _bundle("K", ("complex", ["2/3"], ["0"]))),
    # rejections: bases that differ, a bad angle, a base with no cup table,
    # malformed JSON, a missing key
    (_bundle("K", ("real", ["0"], ["0"])), _bundle("T2", ("real", ["0", "0"], []))),
    (_bundle("K", ("real", ["1/3"], ["0"])), _bundle("K", ("real", ["0"], ["0"]))),
    (_bundle("G3", ("real", ["0"], ["0"])), _bundle("G3", ("real", ["0"], ["0"]))),
    (_bundle("T2", ("real", ["0"], [])), _bundle("T2", ("real", ["0", "0"], []))),
    ("not json", _bundle("S1", ("real", ["0"], []))),
    ('{"base": "S1"}', _bundle("S1", ("real", ["0"], []))),
)

_MATRICES = (
    "[[2,4],[6,8]]",
    "[[1]]",
    "[[0]]",
    "[[0,0],[0,0]]",
    "[[1,2,3],[4,5,6]]",
    "[[2],[4],[6]]",
    "[[6,0,0],[0,10,0],[0,0,15]]",
    '[["3","-4"],[5,"6"]]',
    "[[1,2],[3]]",
    "[[1.5]]",
    "[[true]]",
    "[]",
    "not json",
)

_AUTOMORPHISMS = (
    "[[-1]]",
    "[[1]]",
    "[[0,-1],[1,0]]",
    "[[0,-1],[1,-1]]",
    "[[0,-1],[1,1]]",
    "[[0,1],[1,0]]",
    "[[-1,0],[0,-1]]",
    "[[0,0,1],[1,0,0],[0,1,0]]",
    "[[2]]",
    "[[1,1],[0,1]]",
    "[[1,2],[3]]",
)

_ANGLES = {
    "T2xR2": ("1/2,0", "1/3,1/4", "0,0", "5/6,7/8", "1/2", "1/2,1/3,1/4", "1/65,0", "1/2,x"),
    "TK": ("1/2,1/2", "1/3,2/5", "0,1/4", "3/8,5/8", "1/2", "1/2,1/3,1/4", "1/65,0", "1/0,0"),
    "S1xR3": ("2/3", "0", "1/2", "7/12", "1/2,1/3", "1/65", "-1/3", ""),
}


def golden_argvs() -> list[list[str]]:
    argvs: list[list[str]] = []
    for m in _MATRICES:
        argvs.append(["snf", "--matrix", m])
    for g0 in _AUTOMORPHISMS:
        argvs.append(["h1", "--g0", g0])
    for prime in ("5", "7", "4", "2147483647", "2147483648"):
        argvs.append(["h1", "--g0", "[[0,-1],[1,-1]]", "--prime", prime])
    for name in (*CATALOG_NAMES, "Q8"):
        argvs.append(["homology", "--group", name])
    for base in ("S1", "T2", "K", "G1"):
        for dim in range(1, 42):
            for fmt in ("json", "tsv"):
                argvs.append(["classify", "--base", base, "--dim", str(dim), "--format", fmt])
    for left, right in _BUNDLE_PAIRS:
        argvs.append(["stable-eq", "--left", left, "--right", right])
        argvs.append(["affine-eq", "--left", left, "--right", right])
    for space, angle_lists in _ANGLES.items():
        for angles in angle_lists:
            argvs.append(["moduli", "--space", space, "--angles", angles])
    argvs.append(["moduli", "--space", "S2", "--angles", "0"])
    for fmt in ("json", "tsv", "xml"):
        argvs.append(["dim4-table", "--format", fmt])
    for base in ("S1", "T2", "K"):
        for count in ("1", "2", "5", "63", "64", "0"):
            argvs.append(["family", "--base", base, "--count", count])
    for rank, order, fiber in (
        (1, 2_000_000, 1000),
        (2, 1414, 1000),
        (20, 2, 1000),
        (2, 2, 1),
        (3, 12, 4),
        (1, 2_000_001, 1),
        (2, 1415, 1),
        (21, 2, 1),
        (1, 2, 1001),
        (0, 2, 1),
        (1, 0, 1),
    ):
        argvs.append(["bound", "--rank", str(rank), "--order", str(order), "--fiber-dim", str(fiber)])
    argvs += [
        [],
        ["no-such-verb"],
        ["h1"],
        ["homology"],
        ["classify", "--base", "T2"],
        ["classify", "--base", "T2", "--dim", "four"],
        ["moduli", "--space", "T2xR2"],
        ["family", "--base", "T2", "--count", "2", "--extra"],
        ["bound", "--rank", "2", "--order", "2"],
    ]
    return argvs


def run_sweep(stderr: dict[str, str] | None = None) -> dict[str, list]:
    """argv (as a JSON list) -> [exit code, sha256 of stdout]; each
    argv's stderr text goes into ``stderr`` when one is given."""
    record = {}
    for argv in golden_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        key = json.dumps(argv)
        record[key] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
        if stderr is not None:
            stderr[key] = err.getvalue()
    return record


def test_cli_stdout_and_exit_codes_match_the_record():
    recorded = json.loads(DIGESTS.read_text())
    stderr: dict[str, str] = {}
    got = run_sweep(stderr)
    assert list(got) == list(recorded), "the sweep and the record list different argv"
    changed = [key for key in got if got[key] != recorded[key]]
    assert not changed, f"{len(changed)} argv changed stdout or exit code, first: {changed[:5]}"
    for key, (code, _) in got.items():
        err = stderr[key]
        if code == 0:
            assert err == "", key
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (key, err)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(run_sweep(), indent=1) + "\n")
