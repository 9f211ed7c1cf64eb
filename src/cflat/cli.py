"""Command-line interface.

Verbs:
    snf         Smith form of an integer matrix, with witnesses
    h1          first cohomology of a finite-order lattice automorphism
    homology    first homology and holonomy of a catalog group
    classify    diffeomorphism classes of line-bundle sums over a base
    stable-eq   stable diffeomorphism of two bundle total spaces
    affine-eq   affine equivalence of two bundles
    moduli      canonical form of a point in a rank-2 moduli space
    dim4-table  the fourteen flat 4-dimensional classes
    family      an explicit pairwise-inequivalent bundle family
    bound       upper bound for affine classes with cyclic holonomy

All verbs print deterministic JSON (sorted keys, two-space indent) on
stdout; ``classify`` and ``dim4-table`` also take ``--format tsv``.
Matrix and bundle arguments are inline JSON, or ``@path`` to read a
file; stdin (``snf`` without ``--matrix``) is JSON only.  Exit status:
0 success, 1 rejected input, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .bieberbach import (
    abelianization,
    catalog_group,
    holonomy_group,
    is_holonomy_cyclic,
)
from .classify import (
    affine_class_bound,
    affine_equivalent,
    aut_action,
    circle_canonical,
    classification_report,
    dim4_table,
    inequivalent_family,
    klein_rho_canonical,
    stably_diffeomorphic,
    torus_moduli_canonical,
)
from .errors import DomainError, InternalCheckError
from .flatbundle import SURFACES, mod2_str, sw_vector
from .glattice import h1_report, make_glattice
from .zlinalg import smith_normal_form

_MODULI_SPACES = ("T2xR2", "TK", "S1xR3")


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: route them to exit status 1."""

    def error(self, message):
        raise DomainError(message)


def _arg_text(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read {value[1:]!r}: {exc}") from None
    return value


def _stdin_text() -> str:
    try:
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read stdin: {exc}") from None


def _matrix_arg(value: str):
    return serialize.matrix_from_json(serialize.loads(_arg_text(value)))


def _bundle_arg(value: str):
    return serialize.bundle_from_json(serialize.loads(_arg_text(value)))


# ----------------------------------------------------------------------
# one handler per verb, each returning the payload to print
# ----------------------------------------------------------------------


def _cmd_snf(args) -> dict:
    text = _arg_text(args.matrix) if args.matrix is not None else _stdin_text()
    m = serialize.matrix_from_json(serialize.loads(text))
    dec = smith_normal_form(m)
    dec.check()
    return {
        "d": serialize.matrix_to_json(dec.d),
        "u": serialize.matrix_to_json(dec.u),
        "v": serialize.matrix_to_json(dec.v),
        "divisors": list(dec.divisors),
        "rank": dec.rank,
    }


def _cmd_h1(args) -> dict:
    lat = make_glattice(_matrix_arg(args.g0))
    report = h1_report(lat, args.prime)
    return {
        "rank": lat.rank,
        "order": lat.order,
        "group": serialize.group_to_json(report.group),
        "cardinality": report.cardinality,
        "formula_value": report.formula_value,
        "prime_formula_value": report.prime_formula_value,
        "q_used": report.q_used,
        "certificate": report.certificate.value,
    }


def _cmd_homology(args) -> dict:
    spec = catalog_group(args.group)
    ab = abelianization(spec)
    return {
        "name": spec.name,
        "dim": spec.dim,
        "h1": serialize.group_to_json(ab.group),
        "holonomy_order": len(holonomy_group(spec)),
        "holonomy_cyclic": is_holonomy_cyclic(spec),
    }


def _classify_payload(args) -> dict:
    report = classification_report(args.base, args.dim)
    classes = []
    for c in report.classes:
        classes.append(
            {
                "label": c.label,
                "w1": list(c.w1),
                "w1_name": mod2_str(c.base, c.w1),
                "w2": c.w2,
                "orbit_size": len(c.orbit),
                "bundle": serialize.bundle_to_json(c.bundle),
            }
        )
    return {
        "base": report.base,
        "total_dim": report.total_dim,
        "count": report.oracle_count,
        "published_count": report.published_count,
        "count_matches_published": report.count_matches,
        "classes": classes,
    }


def _cmd_classify(args):
    payload = _classify_payload(args)
    if args.format == "tsv":
        lines = ["label\tw1\tw2"]
        for c in payload["classes"]:
            w2 = "" if c["w2"] is None else str(c["w2"])
            lines.append(f"{c['label']}\t{c['w1_name']}\t{w2}")
        return "\n".join(lines) + "\n"
    return payload


def _cmd_stable_eq(args) -> dict:
    b1 = _bundle_arg(args.left)
    b2 = _bundle_arg(args.right)
    answer = stably_diffeomorphic(b1, b2)
    aut_orbits = aut_action(b1.base)
    out = {"equivalent": answer, "base": b1.base}
    for side, b in (("left", b1), ("right", b2)):
        vec = sw_vector(b)
        out[side] = {
            "w1": list(vec.w1),
            "w1_orbit_min": list(aut_orbits[vec.w1][0]),
            "w2": vec.w2,
        }
    return out


def _cmd_affine_eq(args) -> dict:
    b1 = _bundle_arg(args.left)
    b2 = _bundle_arg(args.right)
    return {"equivalent": affine_equivalent(b1, b2), "base": b1.base}


def _cmd_moduli(args) -> dict:
    angles = serialize.parse_angles(args.angles)
    if args.space == "T2xR2":
        canon = torus_moduli_canonical(angles)
    elif args.space == "TK":
        canon = klein_rho_canonical(angles)
    else:
        if len(angles) != 1:
            raise DomainError("S1xR3 takes one angle")
        canon = (circle_canonical(angles[0]),)
    return {
        "space": args.space,
        "angles": [serialize.format_fraction(a) for a in angles],
        "canonical": [serialize.format_fraction(a) for a in canon],
    }


def _cmd_dim4_table(args):
    rows = dim4_table()
    if args.format == "tsv":
        lines = ["label\tbase\tfiber_dim\torientable_total"]
        for e in rows:
            lines.append(f"{e.label}\t{e.base}\t{e.fiber_dim}\t{str(e.orientable_total).lower()}")
        return "\n".join(lines) + "\n"
    return {
        "count": len(rows),
        "entries": [
            {
                "label": e.label,
                "base": e.base,
                "fiber_dim": e.fiber_dim,
                "orientable_total": e.orientable_total,
            }
            for e in rows
        ],
    }


def _cmd_family(args) -> dict:
    members = inequivalent_family(args.base, args.count)
    return {
        "base": args.base,
        "count": len(members),
        "members": [serialize.bundle_to_json(b) for b in members],
    }


def _cmd_bound(args) -> dict:
    b = affine_class_bound(args.rank, args.order, args.fiber_dim)
    return {
        "epimorphisms": b.epimorphisms,
        "representation_classes": b.representation_classes,
        "bound": b.bound,
    }


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cflat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("snf", help="Smith form with unimodular witnesses")
    p.add_argument("--matrix", help="matrix JSON, @file, or omit to read stdin")
    p.set_defaults(run=_cmd_snf)

    p = sub.add_parser("h1", help="H^1 of a finite-order lattice automorphism")
    p.add_argument("--g0", required=True, help="automorphism matrix JSON or @file")
    p.add_argument("--prime", type=int, default=None, help="auxiliary prime coprime to the order")
    p.set_defaults(run=_cmd_h1)

    p = sub.add_parser("homology", help="H_1 and holonomy of a catalog group")
    p.add_argument("--group", required=True, help="catalog name, e.g. K or G3")
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("classify", help="diffeomorphism classes over a base")
    p.add_argument("--base", required=True, choices=tuple(SURFACES))
    p.add_argument("--dim", required=True, type=int, help="total dimension")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("stable-eq", help="stable diffeomorphism of two bundles")
    p.add_argument("--left", required=True, help="bundle JSON or @file")
    p.add_argument("--right", required=True, help="bundle JSON or @file")
    p.set_defaults(run=_cmd_stable_eq)

    p = sub.add_parser("affine-eq", help="affine equivalence of two bundles")
    p.add_argument("--left", required=True, help="bundle JSON or @file")
    p.add_argument("--right", required=True, help="bundle JSON or @file")
    p.set_defaults(run=_cmd_affine_eq)

    p = sub.add_parser("moduli", help="canonical form in a rank-2 moduli space")
    p.add_argument("--space", required=True, choices=_MODULI_SPACES)
    p.add_argument("--angles", required=True, help='comma-separated, e.g. "1/2,0"')
    p.set_defaults(run=_cmd_moduli)

    p = sub.add_parser("dim4-table", help="the fourteen flat 4-dimensional classes")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(run=_cmd_dim4_table)

    p = sub.add_parser("family", help="pairwise affinely inequivalent plane bundles")
    p.add_argument("--base", required=True, choices=("S1", "T2"))
    p.add_argument("--count", required=True, type=int)
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser("bound", help="affine class bound for cyclic holonomy")
    p.add_argument("--rank", required=True, type=int, help="rank of the torus base group")
    p.add_argument("--order", required=True, type=int, help="cyclic holonomy order")
    p.add_argument("--fiber-dim", required=True, type=int)
    p.set_defaults(run=_cmd_bound)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.run(args)
        text = payload if isinstance(payload, str) else serialize.dump_json(payload)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
