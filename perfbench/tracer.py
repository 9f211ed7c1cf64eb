"""Outside-in tracing of cflat's layers, from the benchmark's own code.

``Tracer.install()`` wraps public functions of every layer, the
``IntMatrix`` and ``LineRep`` constructors, the four integer kernels behind
``zlinalg.backend``, and the ``Fraction`` constructor and operators.  A
function is patched in every ``cflat`` module namespace that bound it (for
example ``glattice`` binds ``rank_mod`` by ``from .zlinalg import``), so
calls are seen whichever name they go through.  ``uninstall()`` puts every
original back.

Each wrapped call is a span: name, start, end, parent span and query id.
Spans of hot leaf functions (constructors, kernels, ``Fraction`` operators,
``serialize``) are aggregated but not stored, and at most ``_SPANS_PER_NAME``
spans of any other name are stored, so memory stays bounded.  Self
time is a span's duration minus the time its direct child spans cover.
Nothing is recorded outside a query (``active`` is false), so the
benchmark's own input generation and answer checks are never counted.

Layers have no queues, so no wait metrics exist.
"""

from __future__ import annotations

import fractions
import gzip
import json
import sys
import time

_SPANS_PER_NAME = 5_000  # stored spans per name; later calls are aggregated only

_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__divmod__", "__rdivmod__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__pos__", "__neg__", "__abs__", "__hash__", "__eq__", "__lt__", "__gt__",
    "__le__", "__ge__", "__bool__",
)

_LAYERS = ("zlinalg", "glattice", "bieberbach", "flatbundle", "classify")


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("calls", "self_time", "amount", "peak", "inner")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.amount = 0  # sum of the span's measure, e.g. cells handed to a kernel
        self.peak = 0  # largest single measure
        self.inner = {}  # watched span name -> calls made inside this span


def _cells(args, result):
    m = args[0]
    return len(m) * (len(m[0]) if m else 0)


def _entries(args, result):
    return args[0].rows * args[0].cols


def _snf_bits(args, result):
    return max(
        (abs(e).bit_length() for mat in (result.u, result.v, result.d) for row in mat.to_lists() for e in row),
        default=0,
    )


def _count(args, result):
    return len(result)


# Layer functions that are not in cflat.__all__ but matter to a metric.
_EXTRA = {
    "cflat.glattice": ("h1_card_formula", "h1_card_prime_formula", "h1_triviality_certificate"),
    "cflat.cli": ("main",),
}
# span name -> the quantity summed (and maxed) over its calls
_MEASURES = {
    "zlinalg.kernel.snf_inplace": _cells,
    "zlinalg.kernel.rank_mod_inplace": _cells,
    "zlinalg.kernel.det_inplace": _cells,
    "zlinalg.kernel.matmul": _cells,
    "zlinalg.IntMatrix.init": _entries,
    "zlinalg.smith_normal_form": _snf_bits,
    "classify.diffeo_classes": _count,
}
# span name -> span names whose calls are counted inside it
_INNER = {
    "glattice.make_glattice": ("zlinalg.IntMatrix.mul",),
    "glattice.h1_report": (
        "zlinalg.rank_mod", "glattice.h1_oracle", "glattice.h1_card_formula", "glattice.h1_card_prime_formula",
    ),
    "bieberbach.holonomy_group": ("zlinalg.IntMatrix.mul",),
    "classify.diffeo_classes": ("flatbundle.sw_vector",),
}
_HOT_PREFIXES = ("zlinalg.kernel.", "zlinalg.IntMatrix.", "fractions.", "serialize.", "flatbundle.LineRep.")


class Tracer:
    def __init__(self):
        self.active = False
        self.query = None
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list[float]] = []
        self._current = -1
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original raw value)

    # -- wrapping -------------------------------------------------------

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _wrap(self, fn, name):
        tracer = self
        stat = self.stat(name)
        keep = not name.startswith(_HOT_PREFIXES)
        measure = _MEASURES.get(name)
        watched = [(w, self.stat(w)) for w in _INNER.get(name, ())]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            before = [s.calls for _, s in watched]
            kept = keep and stat.calls <= _SPANS_PER_NAME
            if kept:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = tracer._current
                tracer._current = sid
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if kept:
                    tracer._current = parent
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.query))
                elif keep:
                    tracer.dropped += 1
                for (w, s), b in zip(watched, before):
                    stat.inner[w] = stat.inner.get(w, 0) + s.calls - b
            if measure is not None:
                tm = clock()
                value = measure(args, result)
                stat.amount += value
                stat.peak = max(stat.peak, value)
                if stack:  # the measuring is not the caller's own work
                    stack[-1][0] += clock() - tm
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch_everywhere(self, original, name) -> None:
        """Replace ``original`` in every cflat module namespace that bound it."""
        wrapper = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cflat" or mod_name.startswith("cflat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, name) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, name))
        else:
            new = self._wrap(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        import cflat
        import cflat.cli
        import cflat.serialize
        from cflat.zlinalg import backend

        if self._patches:
            raise RuntimeError("tracer already installed")
        done = set()

        def patch(fn, name):
            if id(fn) not in done:
                done.add(id(fn))
                self._patch_everywhere(fn, name)

        for kernel in ("snf_inplace", "rank_mod_inplace", "det_inplace", "matmul"):
            patch(getattr(backend, kernel), f"zlinalg.kernel.{kernel}")
        for public in cflat.__all__:
            fn = getattr(cflat, public)
            if callable(fn) and not isinstance(fn, type) and fn.__module__.startswith("cflat."):
                layer = _layer_of(fn.__module__)
                if layer:
                    patch(fn, f"{layer}.{public}")
        for mod_name, names in _EXTRA.items():
            mod = sys.modules[mod_name]
            for attr in names:
                patch(getattr(mod, attr), f"{mod_name.split('.')[-1]}.{attr}")
        for attr, fn in list(vars(cflat.serialize).items()):
            if callable(fn) and getattr(fn, "__module__", None) == "cflat.serialize" and not isinstance(fn, type):
                patch(fn, f"serialize.{attr}")
        self._patch_attr(cflat.IntMatrix, "__init__", "zlinalg.IntMatrix.init")
        self._patch_attr(cflat.IntMatrix, "__mul__", "zlinalg.IntMatrix.mul")
        self._patch_attr(cflat.SNFDecomposition, "check", "zlinalg.SNFDecomposition.check")
        self._patch_attr(cflat.LineRep, "__init__", "flatbundle.LineRep.init")
        self._patch_attr(fractions.Fraction, "__new__", "fractions.new")
        for op in _FRACTION_OPS:
            self._patch_attr(fractions.Fraction, op, f"fractions.op.{op.strip('_')}")

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, query in sorted(self.spans):
                fh.write(json.dumps([sid, name, round(t0, 7), round(t1, 7), parent, query]) + "\n")


def _layer_of(module: str) -> str | None:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[1] in _LAYERS else None


# ======================================================================
# per-layer metrics
# ======================================================================

PER_LAYER = (
    # name, unit, the workload that must exercise it ("*": every workload)
    ("zlinalg.kernel.calls", "count", "h1_lattices"),
    ("zlinalg.kernel.self_s", "s", "h1_lattices"),
    ("zlinalg.kernel.cells", "count", "h1_lattices"),
    ("zlinalg.IntMatrix.init.calls", "count", "h1_lattices"),
    ("zlinalg.IntMatrix.init.self_s", "s", "h1_lattices"),
    ("zlinalg.IntMatrix.init.entries", "count", "h1_lattices"),
    ("zlinalg.IntMatrix.mul.calls", "count", "h1_lattices"),
    ("zlinalg.smith_normal_form.calls", "count", "h1_lattices"),
    ("zlinalg.smith_normal_form.self_s", "s", "h1_lattices"),
    ("zlinalg.snf.max_entry_bits", "bits", "h1_lattices"),
    ("zlinalg.SNFDecomposition.check.self_s", "s", "h1_lattices"),
    ("zlinalg.rank_mod.calls", "count", "h1_lattices"),
    ("glattice.make_glattice.self_s", "s", "h1_lattices"),
    ("glattice.make_glattice.products", "count", "h1_lattices"),
    ("glattice.h1_report.calls", "count", "h1_lattices"),
    ("glattice.h1_report.self_s", "s", "h1_lattices"),
    ("glattice.routes_per_report", "ratio", "h1_lattices"),
    ("glattice.rank_mod_per_report", "ratio", "h1_lattices"),
    ("bieberbach.abelianization.calls", "count", "h1_lattices"),
    ("bieberbach.abelianization.self_s", "s", "h1_lattices"),
    ("bieberbach.holonomy_group.self_s", "s", "h1_lattices"),
    ("bieberbach.holonomy_group.products", "count", "h1_lattices"),
    ("bieberbach.mapping_torus.calls", "count", "h1_lattices"),
    ("flatbundle.sw_vector.calls", "count", "bundle_classes"),
    ("flatbundle.sw_vector.self_s", "s", "bundle_classes"),
    ("flatbundle.cup_table.calls", "count", "bundle_classes"),
    ("flatbundle.line_with_w1.calls", "count", "bundle_classes"),
    ("flatbundle.LineRep.init.calls", "count", "bundle_classes"),
    ("classify.diffeo_classes.self_s", "s", "bundle_classes"),
    ("classify.sw_vector_per_class", "ratio", "bundle_classes"),
    ("classify.stably_diffeomorphic.self_s", "s", "bundle_classes"),
    ("classify.affine_equivalent.calls", "count", "moduli_orbits"),
    ("classify.affine_equivalent.self_s", "s", "moduli_orbits"),
    ("classify.torus_moduli_canonical.self_s", "s", "moduli_orbits"),
    ("classify.klein_rho_canonical.self_s", "s", "moduli_orbits"),
    ("fractions.new.calls", "count", "moduli_orbits"),
    ("fractions.ops", "count", "moduli_orbits"),
    ("fractions.self_s", "s", "moduli_orbits"),
    ("cli.import_s", "s", "*"),
    ("cli.main.self_s", "s", "cli_session"),
    ("serialize.self_s", "s", "cli_session"),
    ("trace.overhead_ratio", "ratio", "*"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """Per-layer values from the tracer's aggregates (without the two
    metrics measured outside the tracer: cli.import_s, trace.overhead_ratio)."""

    def s(name) -> Stat:
        return stats.get(name) or Stat()

    def group(prefix) -> list[Stat]:
        return [v for k, v in stats.items() if k.startswith(prefix)]

    kernels = group("zlinalg.kernel.")
    frac_ops = group("fractions.op.")
    report = s("glattice.h1_report")
    routes = sum(
        report.inner.get(r, 0)
        for r in ("glattice.h1_oracle", "glattice.h1_card_formula", "glattice.h1_card_prime_formula")
    )
    diffeo = s("classify.diffeo_classes")
    out = {
        "zlinalg.kernel.calls": sum(k.calls for k in kernels),
        "zlinalg.kernel.self_s": sum(k.self_time for k in kernels),
        "zlinalg.kernel.cells": sum(k.amount for k in kernels),
        "zlinalg.IntMatrix.init.calls": s("zlinalg.IntMatrix.init").calls,
        "zlinalg.IntMatrix.init.self_s": s("zlinalg.IntMatrix.init").self_time,
        "zlinalg.IntMatrix.init.entries": s("zlinalg.IntMatrix.init").amount,
        "zlinalg.IntMatrix.mul.calls": s("zlinalg.IntMatrix.mul").calls,
        "zlinalg.smith_normal_form.calls": s("zlinalg.smith_normal_form").calls,
        "zlinalg.smith_normal_form.self_s": s("zlinalg.smith_normal_form").self_time,
        "zlinalg.snf.max_entry_bits": s("zlinalg.smith_normal_form").peak,
        "zlinalg.SNFDecomposition.check.self_s": s("zlinalg.SNFDecomposition.check").self_time,
        "zlinalg.rank_mod.calls": s("zlinalg.rank_mod").calls,
        "glattice.make_glattice.self_s": s("glattice.make_glattice").self_time,
        "glattice.make_glattice.products": s("glattice.make_glattice").inner.get("zlinalg.IntMatrix.mul", 0),
        "glattice.h1_report.calls": report.calls,
        "glattice.h1_report.self_s": report.self_time,
        "glattice.routes_per_report": _ratio(routes, report.calls),
        "glattice.rank_mod_per_report": _ratio(report.inner.get("zlinalg.rank_mod", 0), report.calls),
        "bieberbach.abelianization.calls": s("bieberbach.abelianization").calls,
        "bieberbach.abelianization.self_s": s("bieberbach.abelianization").self_time,
        "bieberbach.holonomy_group.self_s": s("bieberbach.holonomy_group").self_time,
        "bieberbach.holonomy_group.products": s("bieberbach.holonomy_group").inner.get("zlinalg.IntMatrix.mul", 0),
        "bieberbach.mapping_torus.calls": s("bieberbach.mapping_torus").calls,
        "flatbundle.sw_vector.calls": s("flatbundle.sw_vector").calls,
        "flatbundle.sw_vector.self_s": s("flatbundle.sw_vector").self_time,
        "flatbundle.cup_table.calls": s("flatbundle.cup_table").calls,
        "flatbundle.line_with_w1.calls": s("flatbundle.line_with_w1").calls,
        "flatbundle.LineRep.init.calls": s("flatbundle.LineRep.init").calls,
        "classify.diffeo_classes.self_s": diffeo.self_time,
        "classify.sw_vector_per_class": _ratio(diffeo.inner.get("flatbundle.sw_vector", 0), diffeo.amount),
        "classify.stably_diffeomorphic.self_s": s("classify.stably_diffeomorphic").self_time,
        "classify.affine_equivalent.calls": s("classify.affine_equivalent").calls,
        "classify.affine_equivalent.self_s": s("classify.affine_equivalent").self_time,
        "classify.torus_moduli_canonical.self_s": s("classify.torus_moduli_canonical").self_time,
        "classify.klein_rho_canonical.self_s": s("classify.klein_rho_canonical").self_time,
        "fractions.new.calls": s("fractions.new").calls,
        "fractions.ops": sum(o.calls for o in frac_ops),
        "fractions.self_s": s("fractions.new").self_time + sum(o.self_time for o in frac_ops),
        "cli.main.self_s": s("cli.main").self_time,
        "serialize.self_s": sum(v.self_time for v in group("serialize.")),
    }
    return out
