"""Seeded inputs, query runners and answer checks for the cflat benchmark.

Inputs are generated here and nowhere else: nothing is imported from the
repository's test suite, so editing its fixtures never moves a benchmark
input.  Every input is plain JSON (ints, strings, lists) so it can be
digested byte for byte.

A workload is a fixed list of *slots*.  A slot fixes the shape of a query
(its kind and size); its *variants* are the concrete inputs, each drawn
from a random stream keyed by ``workload/slot/variant`` and independent of
the run seed.  A run visits the slots in rounds: every round holds every
slot once, in an order shuffled by the run seed, and each visit takes the
next variant of a seeded permutation.  So every run has the same mix of
shapes, which keeps percentiles steady across seeds, while different seeds
still send different inputs.  Because the variants form a finite pool, the
digest of every answer could be recorded once (``reference/``) and every
later run is checked against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

WORKLOADS = ("h1_lattices", "bundle_classes", "moduli_orbits", "cli_session")

# Variants per slot.  A run visits a slot once per round, so a slot is only
# revisited with the same input after this many rounds.
VARIANTS = {"h1_lattices": 48, "bundle_classes": 48, "moduli_orbits": 96, "cli_session": 24}

# The fixed stream that picks the h1 lattice shapes; never the run seed.
_SHAPE_SEED = "cflat-bench-shapes-1"


class WrongAnswer(Exception):
    """An answer failed one of the benchmark's own checks."""


def digest(obj) -> str:
    """Short stable digest of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _fstr(f: Fraction) -> str:
    return str(Fraction(f))


# ======================================================================
# integer helpers (the benchmark's own, independent of cflat)
# ======================================================================


def _cyclotomic(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div(poly, _cyclotomic(d))
    return poly


def _poly_div(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]  # den is monic
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _companion(m: int) -> list[list[int]]:
    coeffs = _cyclotomic(m)
    k = len(coeffs) - 1
    block = [[0] * k for _ in range(k)]
    for i in range(1, k):
        block[i][i - 1] = 1
    for i in range(k):
        block[i][k - 1] = -coeffs[i]
    return block


def _totient(m: int) -> int:
    return sum(1 for i in range(1, m + 1) if gcd(i, m) == 1)


def _signed_cycle(k: int, sign: int) -> list[list[int]]:
    """e_i -> e_{i+1}, and e_{k-1} -> sign * e_0: order k or 2k."""
    block = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        block[i + 1][i] = 1
    block[0][k - 1] = sign
    return block


def _block_size(block: tuple) -> int:
    return _totient(block[1]) if block[0] == "cyc" else block[1]


def _block_order(block: tuple) -> int:
    if block[0] == "cyc":
        return block[1]
    _, k, sign = block
    return k if sign == 1 else 2 * k


def _block_matrix(block: tuple) -> list[list[int]]:
    if block[0] == "cyc":
        return _companion(block[1])
    return _signed_cycle(block[1], block[2])


def _block_sum(blocks) -> list[list[int]]:
    mats = [_block_matrix(b) for b in blocks]
    n = sum(len(b) for b in mats)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in mats:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def _conjugate(m: list[list[int]], rng: random.Random, steps: int) -> list[list[int]]:
    """E m E^-1 for a random product E of shears, swaps and sign flips."""
    m = [row[:] for row in m]
    n = len(m)
    for _ in range(steps):
        kind = rng.randrange(4)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind <= 1 and i != j:  # row_i += c row_j, then col_j -= c col_i
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
        elif kind == 2 and i != j:
            m[i], m[j] = m[j], m[i]
            for row in m:
                row[i], row[j] = row[j], row[i]
        else:
            m[i] = [-a for a in m[i]]
            for row in m:
                row[i] = -row[i]
    return m


def _random_matrix(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def gcd_minor_divisors(m: list[list[int]]) -> list[int]:
    """Elementary divisors as ratios of gcds of k x k minors (small m only)."""
    n_rows, n_cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                g = gcd(g, bareiss_det([[m[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# ======================================================================
# slots: (name, kind, spec) -- spec fixes the shape, variants fill it in
# ======================================================================

# Every workload has a number of slots that is 5 modulo 10.  A run holds r
# whole rounds, so with S slots the median of its r*S latencies falls in the
# middle of the r samples of one slot (S odd), and so does the 90th
# percentile (0.9*S ends in .5).  With other counts a percentile can sit on
# the edge between two slots of different cost and jump between them.

_PHI_CAP = 8
_CYC_ORDERS = [m for m in range(1, 31) if _totient(m) <= _PHI_CAP]
_H1_ORDER_CAP = 60


def _shape_order(blocks) -> int:
    order = 1
    for b in blocks:
        order = lcm(order, _block_order(b))
    return order


def _h1_shapes() -> list[tuple[int, tuple]]:
    """Two block shapes per rank 4..16, drawn once from a fixed stream: one
    of prime order (so h1_report runs its third, prime-order route) and one
    of any order up to the cap."""
    rng = random.Random(_SHAPE_SEED)
    shapes = []
    for n in range(4, 17):
        p = rng.choice([p for p in (2, 3, 5, 7) if p - 1 <= n])
        nontrivial = [("cyc", p), ("perm", p, 1)] if p <= n else [("cyc", p)]
        blocks = [rng.choice(nontrivial)]
        while sum(_block_size(b) for b in blocks) < n:
            b = rng.choice(nontrivial + [("cyc", 1), ("cyc", 2 if p == 2 else 1)])
            if sum(_block_size(x) for x in blocks) + _block_size(b) <= n:
                blocks.append(b)
        shapes.append((n, tuple(blocks)))
        while True:
            blocks, rank = [], 0
            while rank < n:
                if rng.random() < 0.6:
                    b = ("cyc", rng.choice(_CYC_ORDERS))
                else:
                    b = ("perm", rng.randint(2, 6), rng.choice((1, -1)))
                if rank + _block_size(b) <= n:
                    blocks.append(b)
                    rank += _block_size(b)
            if 2 <= _shape_order(blocks) <= _H1_ORDER_CAP:
                shapes.append((n, tuple(blocks)))
                break
    return shapes


def _slots_h1() -> list[tuple]:
    slots = [
        (f"h1_n{n}_{i % 2}", "h1", {"blocks": blocks})
        for i, (n, blocks) in enumerate(_h1_shapes())
    ]
    for n in (8, 12, 16, 20):
        slots.append((f"snf_witnessed_n{n}", "snf_witnessed", {"n": n}))
    slots.append(("snf_small_n4", "snf_witnessed", {"n": 4}))
    for n in (16, 20):
        slots.append((f"cokernel_n{n}", "cokernel", {"n": n}))
    for n in (14, 20):
        slots.append((f"fixed_card_n{n}", "fixed_card_mod", {"n": n}))
    return slots


_CLASSIFY_DIMS = {
    "S1": (2, 8, 12, 16, 20),
    "T2": (4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20),
    "K": (4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20),
}


def _slots_bundles() -> list[tuple]:
    slots = []
    for base, dims in _CLASSIFY_DIMS.items():
        for dim in dims:
            slots.append((f"classify_{base}_{dim}", "classify", {"base": base, "dim": dim}))
    for base in ("S1", "T2", "K"):
        for s in (4, 10, 20):
            for equivalent in (True, False):
                tag = "eq" if equivalent else "neq"
                slots.append(
                    (
                        f"stable_{base}_s{s}_{tag}",
                        "stable",
                        {"base": base, "s": s, "equivalent": equivalent},
                    )
                )
    return slots


def _slots_moduli() -> list[tuple]:
    slots = []
    for q in (4, 8, 12, 16, 24, 32, 48, 64):
        slots.append((f"torus_q{q}", "torus", {"q": q}))
    for q in (6, 12, 24, 64):
        slots.append((f"klein_q{q}", "klein", {"q": q}))
    slots.append(("circle_q64", "circle", {"q": 64}))
    for base, r, q in (("T2", 1, 16), ("T2", 1, 32), ("T2", 2, 4), ("T2", 2, 6), ("K", 1, 32), ("K", 2, 12)):
        for equivalent in (True, False):
            tag = "eq" if equivalent else "neq"
            slots.append(
                (
                    f"affine_{base}_r{r}_q{q}_{tag}",
                    "affine",
                    {"base": base, "r": r, "q": q, "equivalent": equivalent},
                )
            )
    return slots


def _slots_cli() -> list[tuple]:
    verbs = [
        ("snf", 2), ("h1", 2), ("homology", 2), ("classify", 3), ("stable-eq", 2),
        ("affine-eq", 2), ("moduli", 3), ("dim4-table", 2), ("family", 2), ("bound", 1),
    ]
    slots = [(f"cli_{verb}_{i}", "cli", {"verb": verb, "index": i}) for verb, count in verbs for i in range(count)]
    for what in ("classify_dim", "moduli_denominator", "bound_size", "family_count"):
        slots.append((f"cli_reject_{what}", "cli", {"verb": "reject", "what": what}))
    return slots


SLOTS = {
    "h1_lattices": _slots_h1,
    "bundle_classes": _slots_bundles,
    "moduli_orbits": _slots_moduli,
    "cli_session": _slots_cli,
}


def slots(workload: str) -> list[tuple]:
    return SLOTS[workload]()


# ======================================================================
# input generation
# ======================================================================


def _gen_h1(rng, spec):
    core = _block_sum(spec["blocks"])
    n = len(core)
    return {"g0": _conjugate(core, rng, steps=n + rng.randint(0, n)), "order": _shape_order(spec["blocks"])}


def _gen_square(rng, spec):
    n = spec["n"]
    return {"m": _random_matrix(rng, n, 9 if n <= 4 else 5)}


def _gen_fixed_card(rng, spec):
    out = _gen_square(rng, spec)
    out["modulus"] = rng.randint(2, 60)
    return out


# real line classes over each base, as mod-2 bits in the base's own order
_BITS = {"S1": 1, "T2": 2, "K": 2}
# generators of the automorphism action on degree-one mod-2 classes
_AUT = {
    "S1": [((1,),)],
    "T2": [((1, 1), (0, 1)), ((0, 1), (1, 0))],
    "K": [((1, 0), (1, 1))],
}


def _apply_bits(m, bits):
    return tuple(sum(r * b for r, b in zip(row, bits)) % 2 for row in m)


def _gen_stable(rng, spec):
    base, s = spec["base"], spec["s"]
    d = _BITS[base]
    left = [tuple(rng.randrange(2) for _ in range(d)) for _ in range(s)]
    right = left[:]
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(_AUT[base])
        right = [_apply_bits(g, b) for b in right]
    rng.shuffle(right)
    if not spec["equivalent"]:
        # change an orbit invariant: w1 over the circle, w2 over a surface
        if base == "S1":
            right.append((1,))
        elif base == "T2":
            right += [(1, 0), (0, 1), (1, 1)]  # w1 kept, w2 + x.y
        else:
            right += [(1, 0), (1, 0)]  # w1 kept, w2 + alpha^2
    return {
        "left": _real_bundle(base, left),
        "right": _real_bundle(base, right),
        "equivalent": spec["equivalent"],
    }


def _real_bundle(base, lines):
    """JSON bundle of real lines from mod-2 bits (K bits are alpha=torsion, beta=free)."""
    summands = []
    for bits in lines:
        half = ["1/2" if b else "0" for b in bits]
        if base == "K":
            summands.append({"kind": "real", "free": [half[1]], "torsion": [half[0]]})
        else:
            summands.append({"kind": "real", "free": half, "torsion": []})
    return {"base": base, "summands": summands}


def _angle(rng, q):
    return Fraction(rng.randrange(q), q)


def _pair_with_lcm(rng, q):
    """Two angles whose denominators have lcm exactly q."""
    while True:
        a, b = _angle(rng, q), _angle(rng, q)
        if lcm(a.denominator, b.denominator) == q:
            return a, b


def _gen_torus(rng, spec):
    return {"angles": [_fstr(a) for a in _pair_with_lcm(rng, spec["q"])]}


_gen_klein = _gen_torus


def _gen_circle(rng, spec):
    return {"angles": [_fstr(_angle(rng, spec["q"]))]}


def _affine_summands(rng, base, r, q):
    """r complex characters whose angles have lcm of denominators exactly q."""
    while True:
        out = []
        for _ in range(r):
            if base == "T2":
                out.append((_angle(rng, q), _angle(rng, q)))
            else:
                out.append((_angle(rng, q), Fraction(rng.randrange(2), 2)))
        den = 1
        for pair in out:
            for a in pair:
                den = lcm(den, a.denominator)
        if den == q:
            return out


_T2_MOVES = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((-1, 0), (0, 1)))


def _move(base, rng, summands):
    """Apply one base automorphism to every summand at once."""
    if base == "T2":
        m = rng.choice(_T2_MOVES)
        return [((a * m[0][0] + b * m[1][0]) % 1, (a * m[0][1] + b * m[1][1]) % 1) for a, b in summands]
    sigma, eps = rng.choice((1, -1)), rng.randrange(2)
    return [((sigma * f + eps * t) % 1, t) for f, t in summands]


def _complex_bundle(base, summands):
    out = []
    for a, b in summands:
        if base == "T2":
            out.append({"kind": "complex", "free": [_fstr(a), _fstr(b)], "torsion": []})
        else:
            out.append({"kind": "complex", "free": [_fstr(a)], "torsion": [_fstr(b)]})
    return {"base": base, "summands": out}


def _gen_affine(rng, spec):
    base, r, q = spec["base"], spec["r"], spec["q"]
    left = _affine_summands(rng, base, r, q)
    if spec["equivalent"]:
        right = left
        for _ in range(rng.randint(1, 6)):
            right = _move(base, rng, right)
        right = [((-a) % 1, (-b) % 1) if rng.random() < 0.5 else (a, b) for a, b in right]
        rng.shuffle(right)
    else:
        # a different lcm of denominators means a different holonomy order
        right = _affine_summands(rng, base, r, rng.choice(list(range(2, q))))
    return {
        "left": _complex_bundle(base, left),
        "right": _complex_bundle(base, right),
        "equivalent": spec["equivalent"],
    }


_CATALOG = ("S1", "T2", "T3", "K", "G1", "G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4")


def _gen_cli(rng, spec):
    verb = spec["verb"]
    i = spec.get("index", 0)
    if verb == "snf":
        m = _random_matrix(rng, 2 + i, 9)
        return {"argv": ["snf", "--matrix", json.dumps(m)], "exit": 0}
    if verb == "h1":
        shape = [("cyc", 3), ("cyc", 4), ("cyc", 6), ("perm", 2, -1), ("perm", 3, 1)]
        blocks = [rng.choice(shape) for _ in range(1 + i)]
        g0 = _conjugate(_block_sum(blocks), rng, steps=4)
        return {"argv": ["h1", "--g0", json.dumps(g0)], "exit": 0}
    if verb == "homology":
        return {"argv": ["homology", "--group", rng.choice(_CATALOG)], "exit": 0}
    if verb == "classify":
        base = ("S1", "T2", "K")[i]
        dim = rng.randint(4, 8)
        fmt = rng.choice(("json", "tsv"))
        return {"argv": ["classify", "--base", base, "--dim", str(dim), "--format", fmt], "exit": 0}
    if verb == "stable-eq":
        b = _gen_stable(rng, {"base": ("T2", "K")[i], "s": 4, "equivalent": rng.random() < 0.5})
        return {"argv": ["stable-eq", "--left", json.dumps(b["left"]), "--right", json.dumps(b["right"])], "exit": 0}
    if verb == "affine-eq":
        b = _gen_affine(rng, {"base": ("T2", "K")[i], "r": 1, "q": 8, "equivalent": rng.random() < 0.5})
        return {"argv": ["affine-eq", "--left", json.dumps(b["left"]), "--right", json.dumps(b["right"])], "exit": 0}
    if verb == "moduli":
        space = ("T2xR2", "TK", "S1xR3")[i]
        angles = _pair_with_lcm(rng, rng.randint(2, 12)) if i < 2 else (_angle(rng, 12),)
        return {"argv": ["moduli", "--space", space, "--angles", ",".join(_fstr(a) for a in angles)], "exit": 0}
    if verb == "dim4-table":
        return {"argv": ["dim4-table", "--format", ("json", "tsv")[i]], "exit": 0}
    if verb == "family":
        return {"argv": ["family", "--base", ("S1", "T2")[i], "--count", str(rng.randint(2, 12))], "exit": 0}
    if verb == "bound":
        return {
            "argv": ["bound", "--rank", str(rng.randint(1, 3)), "--order", str(rng.randint(2, 12)),
                     "--fiber-dim", str(rng.randint(1, 8))],
            "exit": 0,
        }
    # out-of-bounds inputs, each rejected with exit 1 before any heavy work
    what = spec["what"]
    if what == "classify_dim":
        argv = ["classify", "--base", rng.choice(("S1", "T2", "K")), "--dim", str(rng.randint(41, 99))]
    elif what == "moduli_denominator":
        argv = ["moduli", "--space", "T2xR2", "--angles", f"1/{rng.randint(65, 200)},0"]
    elif what == "bound_size":
        argv = ["bound", "--rank", "4", "--order", str(rng.randint(40, 90)), "--fiber-dim", "2"]
    else:
        argv = ["family", "--base", "T2", "--count", str(rng.randint(64, 200))]
    return {"argv": argv, "exit": 1}


_GENERATORS = {
    "h1": _gen_h1,
    "snf_witnessed": _gen_square,
    "cokernel": _gen_square,
    "fixed_card_mod": _gen_fixed_card,
    "classify": lambda rng, spec: dict(spec),
    "stable": _gen_stable,
    "torus": _gen_torus,
    "klein": _gen_klein,
    "circle": _gen_circle,
    "affine": _gen_affine,
    "cli": _gen_cli,
}


def make_input(workload: str, slot: tuple, variant: int) -> dict:
    name, kind, spec = slot
    rng = random.Random(f"{workload}/{name}/{variant}")
    return _GENERATORS[kind](rng, spec)


def schedule(workload: str, seed: int):
    """Endless stream of (slot, variant): seeded rounds over every slot."""
    rng = random.Random(f"{workload}#{seed}")
    all_slots = slots(workload)
    n_var = VARIANTS[workload]
    perms = {slot[0]: rng.sample(range(n_var), n_var) for slot in all_slots}
    visits = dict.fromkeys(perms, 0)
    while True:
        order = all_slots[:]
        rng.shuffle(order)
        for slot in order:
            k = visits[slot[0]]
            visits[slot[0]] = k + 1
            yield slot, perms[slot[0]][k % n_var]
        yield None, None  # round boundary


# ======================================================================
# running a query (the timed part) and checking its answer (untimed)
# ======================================================================


def _run_h1(cflat, q):
    lat = cflat.make_glattice(cflat.IntMatrix(q["g0"]))
    report = cflat.h1_report(lat)
    holonomy = cflat.holonomy_group(cflat.mapping_torus(lat))
    return lat, report, cflat.tors_h1_two_ways(lat), holonomy


def _run_snf(cflat, q):
    dec = cflat.smith_normal_form(cflat.IntMatrix(q["m"]))
    dec.check()
    return dec


def _run_cokernel(cflat, q):
    return cflat.cokernel(cflat.IntMatrix(q["m"]))


def _run_fixed_card(cflat, q):
    return cflat.fixed_card_mod(cflat.IntMatrix(q["m"]), q["modulus"])


def _run_classify(cflat, q):
    return cflat.classification_report(q["base"], q["dim"])


def _bundle(cflat, obj):
    return cflat.FlatBundleSpec(
        obj["base"],
        tuple(
            cflat.LineRep(s["kind"], tuple(map(Fraction, s["free"])), tuple(map(Fraction, s["torsion"])))
            for s in obj["summands"]
        ),
    )


def _run_stable(cflat, q):
    return cflat.stably_diffeomorphic(_bundle(cflat, q["left"]), _bundle(cflat, q["right"]))


def _run_torus(cflat, q):
    return cflat.torus_moduli_canonical(tuple(map(Fraction, q["angles"])))


def _run_klein(cflat, q):
    return cflat.klein_rho_canonical(tuple(map(Fraction, q["angles"])))


def _run_circle(cflat, q):
    return cflat.circle_canonical(Fraction(q["angles"][0]))


def _run_affine(cflat, q):
    return cflat.affine_equivalent(_bundle(cflat, q["left"]), _bundle(cflat, q["right"]))


def run_cli_subprocess(q, env):
    """One ``python -m cflat`` process; the way a user meets the CLI."""
    proc = subprocess.run(
        [sys.executable, "-m", "cflat", *q["argv"]], capture_output=True, env=env, timeout=120, check=False
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(cflat, q):
    """``cli.main(argv)`` in this interpreter, stdout captured."""
    import cflat.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cflat.cli.main(q["argv"])
    return code, out.getvalue().encode()


RUNNERS = {
    "h1": _run_h1,
    "snf_witnessed": _run_snf,
    "cokernel": _run_cokernel,
    "fixed_card_mod": _run_fixed_card,
    "classify": _run_classify,
    "stable": _run_stable,
    "torus": _run_torus,
    "klein": _run_klein,
    "circle": _run_circle,
    "affine": _run_affine,
    "cli": run_cli_inprocess,
}


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _group(g) -> list:
    return [g.free_rank, list(g.torsion)]


def _check_h1(q, res):
    lat, report, (tors_mt, tors_coinv), holonomy = res
    _require(lat.order == q["order"], f"order {lat.order} != {q['order']} fixed by the blocks")
    _require(len(holonomy) == lat.order, "mapping-torus holonomy is not cyclic of the lattice's order")
    _require(tors_mt == tors_coinv, "mapping-torus and coinvariant torsion disagree")
    _require(tors_mt == report.group, "torsion of H_1(mapping torus) != H^1")
    return {
        "order": lat.order,
        "group": _group(report.group),
        "formula": report.formula_value,
        "prime_formula": report.prime_formula_value,
        "q": report.q_used,
        "certificate": report.certificate.value,
    }


def _check_divisors(m, divisors, rank):
    if len(m) <= 4:
        _require(list(divisors) == gcd_minor_divisors(m), "divisors != gcd-of-minors oracle")
    det = bareiss_det(m)
    if det:
        prod = 1
        for d in divisors:
            prod *= d
        _require(rank == len(m) and prod == abs(det), "product of divisors != |det|")
    else:
        _require(rank < len(m), "singular matrix reported at full rank")


def _check_snf(q, dec):
    _check_divisors(q["m"], dec.divisors, dec.rank)
    return {"divisors": list(dec.divisors)}


def _check_cokernel(q, group):
    tors = list(group.torsion)
    rank = len(q["m"]) - group.free_rank
    # unit divisors are dropped from the torsion, so pad them back for the check
    _check_divisors(q["m"], [1] * (rank - len(tors)) + tors, rank)
    return {"group": _group(group)}


def _check_fixed_card(q, count):
    _require(count >= 1 and q["modulus"] ** len(q["m"]) % count == 0, "count does not divide modulus^n")
    return {"count": count}


# Expected class counts: the published ones, except over the Klein bottle above
# dimension 4, where the oracle's 6 differs from the published 5 (kept as data).
def known_class_count(base: str, dim: int) -> int:
    if base == "S1":
        return 2
    if base == "T2":
        return 3 if dim == 4 else 4
    return 5 if dim == 4 else 6


def _check_classify(q, report):
    expected = known_class_count(q["base"], q["dim"])
    _require(report.oracle_count == expected, f"{report.oracle_count} classes, expected {expected}")
    return {
        "count": report.oracle_count,
        "published": report.published_count,
        "classes": [[c.label, list(c.w1), c.w2, len(c.orbit)] for c in report.classes],
    }


def _check_verdict(q, verdict):
    _require(verdict is q["equivalent"], f"verdict {verdict}, {q['equivalent']} by construction")
    return {"equivalent": verdict}


def torus_closed_form(angles) -> tuple:
    """(0, 1/n) with n the lcm of the denominators, or (0, 0)."""
    n = lcm(*(Fraction(a).denominator for a in angles))
    return (Fraction(0), Fraction(0) if n == 1 else Fraction(1, n))


def klein_closed_form(angles) -> tuple:
    """a -> min(a, -a); b reduced mod <a>, then min of it and its negative."""
    a, b = (Fraction(x) % 1 for x in angles)
    step = Fraction(1, a.denominator)
    b = b % step
    return (min(a, (-a) % 1), min(b, (-b) % step))


def _check_canonical(closed_form):
    def check(q, canon):
        canon = canon if isinstance(canon, tuple) else (canon,)
        want = closed_form(tuple(map(Fraction, q["angles"])))
        _require(canon == want, f"canonical form {canon} != closed form {want}")
        return {"canonical": [_fstr(c) for c in canon]}

    return check


def _circle_closed_form(angles):
    a = angles[0] % 1
    return (min(a, (-a) % 1),)


def _check_cli(q, result):
    code, stdout = result
    _require(code == q["exit"], f"exit code {code}, expected {q['exit']}")
    _require(code == 0 or not stdout, "a rejected input printed to stdout")
    return {"exit": code, "stdout": hashlib.sha256(stdout).hexdigest()}


CHECKS = {
    "h1": _check_h1,
    "snf_witnessed": _check_snf,
    "cokernel": _check_cokernel,
    "fixed_card_mod": _check_fixed_card,
    "classify": _check_classify,
    "stable": _check_verdict,
    "torus": _check_canonical(torus_closed_form),
    "klein": _check_canonical(klein_closed_form),
    "circle": _check_canonical(_circle_closed_form),
    "affine": _check_verdict,
    "cli": _check_cli,
}


# ======================================================================
# reference digests, recorded once on the seed commit
# ======================================================================

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def entry_digest(slot: tuple, q: dict, result) -> str:
    """Check one answer and digest it together with its query kind and input."""
    return digest([slot[1], q, CHECKS[slot[1]](q, result)])


def load_reference(workload: str) -> dict[str, list[str]]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
