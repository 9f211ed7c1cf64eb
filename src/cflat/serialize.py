"""JSON-boundary conversions.

Matrix entries cross the boundary as decimal strings so arbitrary
precision survives any JSON reader; plain JSON integers are accepted
on input.  Rational angles travel as "p/q" strings.  All emitted JSON
is sorted-key, two-space indented, with a trailing newline, so output
is byte-reproducible.

Python converts an int to or from decimal text only up to
``sys.get_int_max_str_digits()`` digits.  A number past that limit, in
an argument or in a result, is a rejected input (``DomainError``).
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import DomainError
from .flatbundle import FlatBundleSpec, LineRep
from .zlinalg import AbelianGroup, IntMatrix

_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")


@contextmanager
def _digit_limit(what: str):
    """Report a number past Python's int-string limit as a DomainError."""
    try:
        yield
    except DomainError:
        raise
    except ValueError:
        raise DomainError(
            f"{what} has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_fraction(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _FRACTION_RE.match(value.strip()):
        try:
            with _digit_limit("a rational number"):
                return Fraction(value.strip())
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {value!r}") from None
    raise DomainError(f"not a rational number: {value!r}")


def format_fraction(f: Fraction) -> str:
    return str(Fraction(f))


def parse_angles(text: str) -> tuple[Fraction, ...]:
    """Comma-separated angle list, e.g. ``1/2,0``."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise DomainError("empty angle list")
    return tuple(parse_fraction(p) for p in parts)


def _parse_entry(value) -> int:
    if isinstance(value, bool):
        raise DomainError("matrix entries must be integers, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        s = value.strip()
        if re.match(r"^-?\d+$", s):
            with _digit_limit("a matrix entry"):
                return int(s)
    raise DomainError(f"not an integer matrix entry: {value!r}")


def matrix_from_json(obj) -> IntMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DomainError("matrix must be a non-empty array of arrays")
    return IntMatrix([[_parse_entry(x) for x in row] for row in obj])


def matrix_to_json(m: IntMatrix) -> list[list[str]]:
    with _digit_limit("a result entry"):
        return [[str(x) for x in row] for row in m.to_lists()]


def group_to_json(g: AbelianGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "name": str(g),
    }


def line_to_json(rep: LineRep) -> dict:
    return {
        "kind": rep.kind,
        "free": [format_fraction(a) for a in rep.free],
        "torsion": [format_fraction(a) for a in rep.torsion],
    }


def line_from_json(obj) -> LineRep:
    if not isinstance(obj, dict):
        raise DomainError("each summand must be an object")
    kind = obj.get("kind", "real")
    free = obj.get("free", [])
    torsion = obj.get("torsion", [])
    if not isinstance(free, list) or not isinstance(torsion, list):
        raise DomainError("summand angle lists must be arrays")
    return LineRep(
        kind,
        tuple(parse_fraction(a) for a in free),
        tuple(parse_fraction(a) for a in torsion),
    )


def bundle_to_json(bundle: FlatBundleSpec) -> dict:
    return {
        "base": bundle.base,
        "summands": [line_to_json(rep) for rep in bundle.summands],
    }


def bundle_from_json(obj) -> FlatBundleSpec:
    if not isinstance(obj, dict) or "base" not in obj or "summands" not in obj:
        raise DomainError('a bundle is {"base": ..., "summands": [...]}')
    if not isinstance(obj["base"], str):
        raise DomainError("bundle base must be a string")
    if not isinstance(obj["summands"], list):
        raise DomainError("summands must be an array")
    return FlatBundleSpec(
        obj["base"], tuple(line_from_json(s) for s in obj["summands"])
    )


def loads(text: str):
    """Parse JSON text; nesting past the interpreter's recursion limit is
    invalid JSON too."""
    with _digit_limit("a JSON number"):
        try:
            return json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DomainError(f"invalid JSON: {exc}") from None


def dump_json(payload) -> str:
    with _digit_limit("a result number"):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
