"""What loading the package builds, and the records it builds instead of
dataclasses: equality, hashing, immutability, pickling and repr."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import monogenity
from monogenity import (
    INFINITY,
    IndexBound,
    PureFieldParams,
    Side,
    SplittingShape,
    ValuedPoint,
    classify,
)
from monogenity.general import ExtensionField
from monogenity.polygon import NewtonPolygon
from monogenity.residue import PrimeField, ResidueField, residue_field
from monogenity.zpoly import PhiExpansion, pure_shift_expansion

SRC = Path(__file__).resolve().parents[1] / "src"

# Loaded by --verify, render, scan, Side.slope, a Cantor-Zassenhaus split or
# a polynomial outside the pure family only, never by a load of the CLI: each
# would be built or compiled on every command.
NOT_LOADED = (
    "monogenity.oracle",
    "monogenity.render",
    "monogenity.general",
    "dataclasses",
    "fractions",
    "csv",
    "typing",
    "random",
)

# (module, name) for every public name that moved into monogenity.general
MOVED = [
    ("zpoly", name) for name in ("add", "sub", "mul", "divmod_monic", "phi_expansion")
] + [
    ("polygon", name) for name in ("valued_points", "index_lattice_points")
] + [
    ("classify", "ComIndexEvidence"),
    ("classify", "is_common_index_divisor"),
    ("classify", "dedekind_divides_index"),
    ("residue", "ExtensionField"),
]
# the old paths that still resolve, through a PEP 562 hook: bench/checks.py reads them
BENCH_READS = {("zpoly", "phi_expansion"), ("classify", "dedekind_divides_index")}


def _run_bare(code: str) -> str:
    """Run code in a fresh python -S process on src/ and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportGraph:
    def test_cli_import_loads_only_what_analyze_runs(self):
        code = (
            "import sys\n"
            "import monogenity.cli\n"
            f"print(' '.join(sorted(set({NOT_LOADED!r}) & set(sys.modules))))\n"
        )
        assert _run_bare(code).split() == []

    def test_analyze_and_scan_never_load_the_general_engine(self, tmp_path):
        out = tmp_path / "scan"
        code = (
            "import contextlib, io, sys\n"
            "from monogenity.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for fmt in ('json', 'human'):\n"
            "        for p, r, m in ((2, 12, 17), (61, 2, 3), (3, 2, 10), (2, 3, -15)):\n"
            "            main(['analyze', '--p', str(p), '--r', str(r), '--m', str(m), '--format', fmt])\n"
            "    for fmt in ('csv', 'jsonl'):\n"
            "        for p, r in ((7, 1), (2, 8), (3, 2), (5, 1)):\n"
            "            main(['scan', '--p', str(p), '--r', str(r), '--m-from', '-60',\n"
            f"                  '--m-to', '60', '--format', fmt, '--out', {str(out)!r}])\n"
            "print('monogenity.general' in sys.modules, 'typing' in sys.modules,\n"
            "      'random' in sys.modules)\n"
            "from monogenity.residue import residue_field\n"
            "residue_field(7, (3, 1))\n"
            "print('monogenity.general' in sys.modules)\n"
            "residue_field(3, (1, 0, 1))\n"
            "print('monogenity.general' in sys.modules)\n"
        )
        assert _run_bare(code).split() == ["False", "False", "False", "False", "True"]

    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys\n"
            "import monogenity\n"
            "print(' '.join(sorted(n for n in sys.modules if n.startswith('monogenity.'))))\n"
            "missing = set(monogenity.__all__) - set(dir(monogenity))\n"
            "print(' '.join(sorted(missing)) or 'none')\n"
            "print(' '.join(sorted(n for n in sys.modules if n.startswith('monogenity.'))))\n"
        )
        assert _run_bare(code).split() == ["none"]

    def test_every_exported_name_resolves(self):
        # resolved in a fresh process, where each name loads its module on first use
        code = (
            "import sys\n"
            "import monogenity\n"
            "monogenity.ValidationError\n"
            "print(' '.join(sorted(n for n in sys.modules if n.startswith('monogenity.'))))\n"
            "for name in monogenity.__all__:\n"
            "    value = getattr(monogenity, name)\n"
            "    home = getattr(value, '__module__', None)\n"
            "    if home and home.startswith('monogenity.') and name != '__version__':\n"
            "        assert getattr(sys.modules[home], name) is value, name\n"
            "import monogenity.classify\n"
            "print(callable(monogenity.classify), monogenity.classify.__module__)\n"
        )
        assert _run_bare(code).split() == ["monogenity.errors", "True", "monogenity.classify"]
        assert set(monogenity.__all__) <= set(dir(monogenity))
        for name in monogenity.__all__:
            assert getattr(monogenity, name) is not None
        with pytest.raises(AttributeError):
            monogenity.no_such_name

    @pytest.mark.parametrize("module, name", MOVED, ids=[".".join(pair) for pair in MOVED])
    def test_moved_name_resolves_to_the_general_engine(self, module, name):
        import importlib

        from monogenity import general

        old = importlib.import_module(f"monogenity.{module}")
        assert name in vars(general) and name not in vars(old)
        if (module, name) in BENCH_READS:
            assert getattr(old, name) is getattr(general, name)
        else:
            with pytest.raises(AttributeError):
                getattr(old, name)
        with pytest.raises(AttributeError):
            getattr(old, "no_such_name")

    def test_only_the_bench_paths_keep_a_hook(self):
        import importlib
        import pkgutil

        hooked = {
            info.name
            for info in pkgutil.iter_modules(monogenity.__path__)
            if not info.name.startswith("_")
            and "__getattr__" in vars(importlib.import_module(f"monogenity.{info.name}"))
        }
        assert hooked == {module for module, _ in BENCH_READS}

    def test_analyze_prime_lives_in_ore(self):
        from monogenity import general, ore

        assert "analyze_prime" in vars(ore) and "analyze_prime" not in vars(general)
        assert monogenity.analyze_prime is ore.analyze_prime
        assert "analyze_prime" in monogenity.__all__

    def test_lazy_modules_still_load(self):
        code = (
            "import sys\n"
            "from monogenity import Side, ValuedPoint, oracle, render\n"
            "print(Side(ValuedPoint(0, 2), ValuedPoint(4, 0)).slope)\n"
            "print('fractions' in sys.modules)\n"
        )
        assert _run_bare(code).split() == ["-1/2", "True"]


def _side(a, b):
    return Side(ValuedPoint(*a), ValuedPoint(*b))


VERDICT = classify(PureFieldParams(p=3, r=3, m=10))
REPORT = VERDICT.certificate.analyses[0].reports[0]


def _analysis(p=3, r=3, m=10):
    # built afresh on every call, so that two calls give equal, distinct records
    return classify(PureFieldParams(p, r, m)).certificate.analyses[0]


def _figure():
    from monogenity.render import figure_for

    return figure_for(PureFieldParams(3, 3, 10), 3)


# one instance of every tuple record, built by the code that builds it
TUPLE_RECORDS = {
    "ValuedPoint": lambda: ValuedPoint(1, 2),
    "ResidualPolynomial": lambda: _analysis().reports[0].sides[0].residual,
    "PureShiftExpansion": lambda: pure_shift_expansion(PureFieldParams(3, 3, 10)),
    "SideAnalysis": lambda: _analysis().reports[0].sides[0],
    "PhiReport": lambda: _analysis().reports[0],
    "IndexBound": lambda: _analysis().index,
    "SplittingShape": lambda: _analysis(2, 2, 17).shape,
    "PrimeAnalysis": _analysis,
    "Certificate": lambda: classify(PureFieldParams(3, 3, 10)).certificate,
    "MonogenityVerdict": lambda: classify(PureFieldParams(3, 3, 10)),
    "PolygonFigure": _figure,
}


class TestRecordSemantics:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PureFieldParams(p=2, r=3, m=17),
            lambda: _side((0, 4), (2, 2)),
            lambda: NewtonPolygon((_side((0, 4), (2, 2)), _side((2, 2), (8, 0)))),
            lambda: ResidueField(3, (1, 0, 1)),
            lambda: ResidueField(7, (3, 1)),
            lambda: PhiExpansion((0, 1), ((5,), (), (1,))),
            lambda: IndexBound(value=3, exact=False),
            lambda: SplittingShape.from_pairs([(2, 1), (1, 1)]),
            *TUPLE_RECORDS.values(),
        ],
    )
    def test_equal_and_hashed_by_value(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_across_values_and_classes(self):
        assert PureFieldParams(p=2, r=3, m=17) != PureFieldParams(p=2, r=3, m=-17)
        assert _side((0, 4), (2, 2)) != _side((0, 4), (2, 3))
        assert ResidueField(3, (1, 0, 1)) != ResidueField(3, (2, 1))
        assert PhiExpansion((0, 1), ((1,),)) != ((0, 1), ((1,),))

    @pytest.mark.parametrize(
        "record, name",
        [
            (PureFieldParams(p=2, r=3, m=17), "m"),
            (PureFieldParams(p=2, r=3, m=17), "m_primes"),
            (_side((0, 4), (2, 2)), "h"),
            (NewtonPolygon(()), "sides"),
            (ResidueField(7, (3, 1)), "p"),
            (ResidueField(3, (1, 0, 1)), "_folds"),
            (PhiExpansion((0, 1), ((1,),)), "phi"),
            (VERDICT, "status"),
            (VERDICT.certificate.analyses[0].index, "value"),
            *((make(), make()._fields[0]) for make in TUPLE_RECORDS.values()),
        ],
    )
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 0)

    @pytest.mark.parametrize(
        "record",
        [ResidueField(7, (3, 1)), ResidueField(3, (1, 0, 1))]
        + [make() for make in TUPLE_RECORDS.values()],
        ids=["PrimeField", "ExtensionField", *TUPLE_RECORDS],
    )
    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record and hash(back) == hash(record)

    def test_pickled_fields_keep_their_class_and_arithmetic(self):
        f9 = pickle.loads(pickle.dumps(residue_field(3, (1, 0, 1))))
        assert isinstance(f9, ExtensionField)
        assert f9.mul((0, 1), (0, 1)) == (2,)  # x^2 = -1
        assert isinstance(pickle.loads(pickle.dumps(residue_field(7, (3, 1)))), PrimeField)
        params = pickle.loads(pickle.dumps(VERDICT.certificate.params))
        assert params.m_primes == (2, 5)

    def test_repr(self):
        assert repr(SplittingShape(((1, 1), (2, 1)))) == "SplittingShape(pairs=((1, 1), (2, 1)))"
        assert str(SplittingShape(((1, 1), (2, 1)))) == "1:1,2:1"
        assert repr(IndexBound(value=3, exact=False)) == "IndexBound(value=3, exact=False)"
        assert repr(ValuedPoint(4, 0)) == "ValuedPoint(i=4, v=0)"
        assert str(ValuedPoint(4, 0)) == "ValuedPoint(i=4, v=0)"
        assert repr(PureFieldParams(p=2, r=3, m=17)) == "PureFieldParams(p=2, r=3, m=17)"
        assert repr(ResidueField(3, (1, 0, 1))) == "ExtensionField(p=3, modulus=(1, 0, 1))"
        assert repr(_side((0, 2), (4, 0))) == (
            "Side(start=ValuedPoint(i=0, v=2), end=ValuedPoint(i=4, v=0))"
        )

    def test_residue_field_dispatches(self):
        assert type(ResidueField(7, (3, 1))) is PrimeField
        assert type(ResidueField(3, (1, 0, 1))) is ExtensionField

    def test_infinity_unpickles_to_the_one_instance(self):
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY

    def test_plain_record_takes_fields_by_position_or_keyword(self):
        assert PhiExpansion(phi=(0, 1), coefficients=((1,),)) == PhiExpansion((0, 1), ((1,),))
        assert PhiExpansion((0, 1), coefficients=((1,),)).coefficients == ((1,),)
        bad = [(((0, 1),), {}), (((0, 1), ()), {"phi": (0, 1)}), ((), {"coeffs": ()})]
        for args, named in bad:
            with pytest.raises(TypeError):
                PhiExpansion(*args, **named)


class TestTupleRecords:
    """Every former typing.NamedTuple is a record.TupleRecord, a tuple whose
    fields come from its annotations."""

    @pytest.mark.parametrize("name", TUPLE_RECORDS)
    def test_builds_by_position_and_keyword(self, name):
        record = TUPLE_RECORDS[name]()
        cls = type(record)
        assert cls.__name__ == name
        assert cls(*record) == record and type(cls(*record)) is cls
        named = dict(zip(cls._fields, record))
        assert cls(**named) == record
        first, *rest = cls._fields
        assert cls(record[0], **{field: named[field] for field in rest}) == record
        bad = [
            (tuple(record)[:-1], {}),
            (tuple(record) + (0,), {}),
            ((), {**named, "extra": 0}),
            (tuple(record), {first: record[0]}),
        ]
        for args, kwargs in bad:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    @pytest.mark.parametrize("name", TUPLE_RECORDS)
    def test_reads_unpacks_and_compares_as_a_tuple(self, name):
        record = TUPLE_RECORDS[name]()
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
        assert len(record) == len(record._fields) >= 1
        for index, field in enumerate(record._fields):
            assert getattr(record, field) is record[index]
        *values, last = record
        assert (*values, last) == tuple(record)
        assert record == tuple(record) and tuple(record) == record
        assert hash(record) == hash(tuple(record))
        assert record[-1] is last and record[:1] == (record[0],)

    def test_valued_points_unpack_as_pairs(self):
        i, v = ValuedPoint(3, 1)
        assert (i, v) == (3, 1) == ValuedPoint(i=3, v=1)
        assert sorted([ValuedPoint(2, 0), (1, 5)]) == [(1, 5), (2, 0)]
        for vertex in REPORT.polygon.vertices:
            assert type(vertex) is ValuedPoint
            i, v = vertex
            assert (i, v) == (vertex.i, vertex.v) == tuple(vertex)


class TestIntegerSlopes:
    def test_side_keeps_h_and_e_in_lowest_terms(self):
        side = _side((1, 7), (7, 3))
        assert (side.h, side.e, side.length, side.height, side.degree) == (2, 3, 6, 4, 2)
        flat = _side((2, 3), (6, 3))
        assert (flat.h, flat.e, flat.degree) == (0, 1, 4)
        rising = _side((0, 0), (4, 2))
        assert (rising.h, rising.e, rising.degree) == (-1, 2, 2)

    def test_chain_check_compares_by_cross_multiplication(self):
        from monogenity.errors import InvariantError

        with pytest.raises(InvariantError, match="strictly increase"):
            NewtonPolygon((_side((0, 4), (2, 2)), _side((2, 2), (4, 0))))  # -1 then -1
        with pytest.raises(InvariantError, match="strictly increase"):
            NewtonPolygon((_side((0, 4), (3, 2)), _side((3, 2), (5, 0))))  # -2/3 then -1
        NewtonPolygon((_side((0, 4), (2, 2)), _side((2, 2), (5, 0))))  # -1 then -2/3
