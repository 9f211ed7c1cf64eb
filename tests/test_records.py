"""Every frozen record class of cflat, one table: construction by
position and by keyword, defaults, equality and hashing over the
compared fields only, refused writes, the exact repr, and copies."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import cflat
from cflat.bieberbach import (
    AbelianizationData,
    AffineMap,
    BieberbachGroupSpec,
    CyclicSplitting,
    H1Element,
    abelianization,
    catalog_group,
    mapping_torus,
)
from cflat.classify import AffineClassBound, ClassificationReport, DiffeoClass, Dim4Entry
from cflat.flatbundle import (
    SURFACES,
    BaseData,
    C1Class,
    CharClassVector,
    CupTable,
    CyclicStructureResult,
    FlatBundleSpec,
    LineRep,
    Surface,
    TangentStructureResult,
    base_data,
)
from cflat.glattice import GLattice, H1Report, h1_report
from cflat.zlinalg import AbelianGroup, IntMatrix, SNFDecomposition, smith_normal_form


def _fields(obj, *names):
    return {name: getattr(obj, name) for name in names}


_QUARTER_TURN = IntMatrix([[0, -1], [1, 0]])
_HALF = LineRep("real", (F(1, 2),))
_S1 = catalog_group("S1")

# (class, keyword arguments in field order, one field changed, repr)
ROWS = [
    (
        AffineMap,
        {"linear": IntMatrix([[-1]]), "translation": (F(1, 2),)},
        {"translation": (F(0),)},
        "AffineMap(linear=IntMatrix([[-1]]), translation=(Fraction(1, 2),))",
    ),
    (
        BieberbachGroupSpec,
        {"name": "K", "dim": 2, "screws": catalog_group("K").screws},
        {"name": "K2"},
        "BieberbachGroupSpec(name='K', dim=2, screws=(AffineMap(linear=IntMatrix([[-1, 0], [0, 1]]), "
        "translation=(Fraction(0, 1), Fraction(1, 2))),))",
    ),
    (H1Element, {"free": (1,), "torsion": (0,)}, {"free": (2,)}, "H1Element(free=(1,), torsion=(0,))"),
    (
        AbelianizationData,
        _fields(abelianization(_S1), "spec", "group", "relation_matrix", "dec", "free_positions", "torsion_positions"),
        {"free_positions": ()},
        "AbelianizationData(spec=BieberbachGroupSpec(name='S1', dim=1, screws=()), "
        "group=AbelianGroup(free_rank=1, torsion=()), relation_matrix=IntMatrix([[]]), "
        "dec=SNFDecomposition(matrix=IntMatrix([[]]), d=IntMatrix([[]]), u=IntMatrix([[1]]), v=IntMatrix([])), "
        "free_positions=(0,), torsion_positions=())",
    ),
    (
        CyclicSplitting,
        {
            "a": H1Element((1,), ()),
            "a_character_value": 1,
            "b_free_gens": (),
            "b_group": AbelianGroup(0),
            "holonomy_order": 2,
        },
        {"a_character_value": 3},
        "CyclicSplitting(a=H1Element(free=(1,), torsion=()), a_character_value=1, b_free_gens=(), "
        "b_group=AbelianGroup(free_rank=0, torsion=()), holonomy_order=2)",
    ),
    (GLattice, {"g0": _QUARTER_TURN}, {"g0": IntMatrix([[-1]])}, "GLattice(g0=IntMatrix([[0, -1], [1, 0]]))"),
    (
        H1Report,
        _fields(
            h1_report(GLattice(_QUARTER_TURN)),
            "lattice", "group", "cardinality", "formula_value", "prime_formula_value", "q_used", "certificate",
        ),
        {"q_used": 5},
        "H1Report(lattice=GLattice(g0=IntMatrix([[0, -1], [1, 0]])), group=AbelianGroup(free_rank=0, torsion=(2,)), "
        "cardinality=2, formula_value=2, prime_formula_value=None, q_used=3, "
        "certificate=<TrivialityCertificate.INCONCLUSIVE: 'inconclusive'>)",
    ),
    (AbelianGroup, {"free_rank": 1, "torsion": (2,)}, {"torsion": (3,)}, "AbelianGroup(free_rank=1, torsion=(2,))"),
    (
        SNFDecomposition,
        _fields(smith_normal_form(IntMatrix([[2, 4]])), "matrix", "d", "u", "v"),
        {"matrix": IntMatrix([[2, 6]])},
        "SNFDecomposition(matrix=IntMatrix([[2, 4]]), d=IntMatrix([[2, 0]]), u=IntMatrix([[1]]), "
        "v=IntMatrix([[1, -2], [0, 1]]))",
    ),
    (
        Surface,
        _fields(SURFACES["S1"], "mod2_labels", "mod2_positions", "line_names", "cup", "actions"),
        {"cup": ((1,),)},
        "Surface(mod2_labels=('x',), mod2_positions=(0,), line_names=('Theta', 'mu'), cup=((0,),), "
        "actions=(((-1,),),))",
    ),
    (
        BaseData,
        _fields(base_data("S1"), "ab", "holonomy_order", "mod2_labels", "mod2_positions"),
        {"holonomy_order": 2},
        "BaseData(ab=AbelianizationData(spec=BieberbachGroupSpec(name='S1', dim=1, screws=()), "
        "group=AbelianGroup(free_rank=1, torsion=()), relation_matrix=IntMatrix([[]]), "
        "dec=SNFDecomposition(matrix=IntMatrix([[]]), d=IntMatrix([[]]), u=IntMatrix([[1]]), v=IntMatrix([])), "
        "free_positions=(0,), torsion_positions=()), holonomy_order=1, "
        "mod2_labels=('x',), mod2_positions=(0,))",
    ),
    (
        LineRep,
        {"kind": "real", "free": (F(1, 2),), "torsion": (F(0),)},
        {"kind": "complex"},
        "LineRep(kind='real', free=(Fraction(1, 2),), torsion=(Fraction(0, 1),))",
    ),
    (
        FlatBundleSpec,
        {"base": "S1", "summands": (_HALF,)},
        {"summands": ()},
        "FlatBundleSpec(base='S1', summands=(LineRep(kind='real', free=(Fraction(1, 2),), torsion=()),))",
    ),
    (C1Class, {"values": (1,), "modulus": 2}, {"modulus": 4}, "C1Class(values=(1,), modulus=2)"),
    (CupTable, {"pairing": ((0, 1), (1, 0))}, {"pairing": ((1, 1), (1, 0))}, "CupTable(pairing=((0, 1), (1, 0)))"),
    (
        CharClassVector,
        {"base": "T2", "w1": (0, 1), "w2": 0, "c1": (C1Class((), 1),)},
        {"w2": 1},
        "CharClassVector(base='T2', w1=(0, 1), w2=0, c1=(C1Class(values=(), modulus=1),))",
    ),
    (
        CyclicStructureResult,
        {"trivial_rank": 1, "det_summand": _HALF},
        {"det_summand": None},
        "CyclicStructureResult(trivial_rank=1, det_summand=LineRep(kind='real', free=(Fraction(1, 2),), torsion=()))",
    ),
    (
        TangentStructureResult,
        {"parallelizable": False, "total_dim": 3, "split_line_w1": (1,)},
        {"total_dim": 4},
        "TangentStructureResult(parallelizable=False, total_dim=3, split_line_w1=(1,))",
    ),
    (
        DiffeoClass,
        {
            "base": "S1",
            "total_dim": 2,
            "label": "S1 x R",
            "w1": (0,),
            "w2": None,
            "orbit": ((0,),),
            "bundle": FlatBundleSpec("S1", (LineRep("real", (F(0),)),)),
        },
        {"label": "M"},
        "DiffeoClass(base='S1', total_dim=2, label='S1 x R', w1=(0,), w2=None, orbit=((0,),), "
        "bundle=FlatBundleSpec(base='S1', summands=(LineRep(kind='real', free=(Fraction(0, 1),), torsion=()),)))",
    ),
    (
        ClassificationReport,
        {"base": "S1", "total_dim": 2, "classes": (), "oracle_count": 0, "published_count": 2},
        {"oracle_count": 2},
        "ClassificationReport(base='S1', total_dim=2, classes=(), oracle_count=0, published_count=2)",
    ),
    (
        Dim4Entry,
        {"label": "R^4", "base": "point", "fiber_dim": 4, "orientable_total": True},
        {"fiber_dim": 3},
        "Dim4Entry(label='R^4', base='point', fiber_dim=4, orientable_total=True)",
    ),
    (
        AffineClassBound,
        {"epimorphisms": 3, "representation_classes": 2},
        {"epimorphisms": 8},
        "AffineClassBound(epimorphisms=3, representation_classes=2)",
    ),
]

# a CupTable's sums and cups are read-only mapping views, which neither
# deepcopy nor pickle
_SHALLOW_ONLY = {CupTable}


def test_the_table_holds_every_record_class():
    """A record class is one that refuses attribute writes with its own
    __setattr__; IntMatrix, which does too, has tests of its own."""
    found = set()
    for info in pkgutil.walk_packages(cflat.__path__, "cflat."):
        if info.name == "cflat.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == info.name and "__setattr__" in vars(obj):
                found.add(obj)
    assert found - {IntMatrix} == {cls for cls, *_ in ROWS}
    assert len(ROWS) == 22


@pytest.mark.parametrize("cls, kwargs, differs, text", ROWS, ids=[cls.__name__ for cls, *_ in ROWS])
def test_record_semantics(cls, kwargs, differs, text):
    obj = cls(**kwargs)
    assert cls(*kwargs.values()) == obj and hash(cls(*kwargs.values())) == hash(obj)
    first, *rest = kwargs
    assert cls(kwargs[first], **{name: kwargs[name] for name in rest}) == obj
    assert cls(**{**kwargs, **differs}) != obj
    assert obj != object() and obj.__eq__(object()) is NotImplemented
    assert repr(obj) == text
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert repr(obj) == text
    twins = [copy.copy(obj)]
    if cls not in _SHALLOW_ONLY:
        twins += [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    for twin in twins:
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj) and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(kwargs)), None)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)
    with pytest.raises(TypeError):
        cls(kwargs[first], **kwargs)
    with pytest.raises(TypeError):
        cls()


def test_defaults_and_fields_left_out_of_init_and_comparison():
    """A default fills a field left out; a kept cache or relator is no
    argument and takes no part in equality, hashing or the repr."""
    assert AbelianGroup(1) == AbelianGroup(1, ()) == AbelianGroup(free_rank=1)
    assert LineRep("real", (F(0),)) == LineRep("real", (F(0),), ())
    for cls, kwargs, extra in [
        (BieberbachGroupSpec, {"name": "S1", "dim": 1, "screws": ()}, "_cyclic_relator"),
        (GLattice, {"g0": _QUARTER_TURN}, "_fixed_dims"),
        (CupTable, {"pairing": ((0,),)}, "sums"),
        (CupTable, {"pairing": ((0,),)}, "cups"),
    ]:
        with pytest.raises(TypeError):
            cls(**kwargs, **{extra: None})
    lat = GLattice(_QUARTER_TURN)
    lat.fixed_dim(3)
    fresh = GLattice(_QUARTER_TURN)
    assert lat == fresh and hash(lat) == hash(fresh) and repr(lat) == repr(fresh)
    torus = mapping_torus(GLattice(IntMatrix([[-1]])))
    twin = BieberbachGroupSpec(torus.name, torus.dim, torus.screws)
    assert torus._cyclic_relator is not None and twin._cyclic_relator is None
    assert torus == twin and hash(torus) == hash(twin) and repr(torus) == repr(twin)
    table = CupTable(((0, 1), (1, 0)))
    assert table.cups[(1, 0), (0, 1)] == 1 and table.sums[(1, 0), (0, 1)] == (1, 1)
    assert copy.copy(table).cups is table.cups
