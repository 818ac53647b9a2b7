"""What loading the package builds, and the records it builds instead of
dataclasses: equality, hashing, immutability, pickling and repr."""

import pickle

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
from monogenity.ore import ExtensionField, PhiExpansion
from monogenity.polygon import NewtonPolygon
from monogenity.residue import PrimeField, residue_field
from monogenity.zpoly import pure_shift_expansion
from pinned_outputs import PROBES, probe_problem

# (module, name) for every name that moved out of module, by its new home:
# into monogenity.ore, the reference engine, the dense Z[x] arithmetic and
# the phi-expansion, the hull and the residuals of a dense expansion, the
# polynomial arithmetic and the factorization over F_q, F_(p^k) and
# Dedekind's criterion; into monogenity.output, analyze's output layer; into
# monogenity.oracle, the one enumerator of the lattice points, which
# brute_phi_index counts and render draws
MOVED = {
    "ore": [
        ("zpoly", name)
        for name in (
            "add", "sub", "mul", "divmod_monic", "phi_expansion", "PhiExpansion", "is_monic",
            "_poly_valuation",
        )
    ] + [
        ("polygon", name)
        for name in ("valued_points", "_dedupe", "lower_convex_hull", "residual_polynomial")
    ] + [
        ("classify", "dedekind_divides_index"),
        ("residue", "ExtensionField"),
        ("residue", "residue_class"),
    ] + [
        ("residue", name)
        for name in (
            "ff_add", "ff_sub", "ff_mul", "ff_divmod", "ff_mod", "ff_quo", "ff_mulmod", "ff_gcd",
            "ff_pow_mod", "ff_derivative", "ff_pth_root", "ff_factor", "_product", "_divide",
            "_squarefree_into", "_distinct_degree", "_equal_degree", "_SPLIT_SEED", "_SPLIT_DRAWS",
        )
    ],
    "output": [
        ("cli", name)
        for name in (
            "_analyze_payload", "_analysis_payload", "_report_payload", "_points_text", "_emit",
            "_write_human", "_plain", "_oracle_reports",
        )
    ],
    "oracle": [("polygon", "index_lattice_points")],
}
# deleted with no new home: PrimeAnalysis.comindex_witness() gives the
# common-index test's answer; SideAnalysis holds each side's field and
# residual coefficients; zpoly.degree serves F_q[y] as well as Z[x]
DELETED = ("ComIndexEvidence", "is_common_index_divisor", "ResidualPolynomial", "ff_degree")


def _moved_to(home: str):
    """Parametrize a test over the MOVED pairs whose new home is home."""
    pairs = MOVED[home]
    return pytest.mark.parametrize("module, name", pairs, ids=[".".join(pair) for pair in pairs])


def _assert_moved(module: str, name: str, home: str) -> None:
    """name is defined in monogenity.<home>, and monogenity.<module> neither holds
    it nor reaches it, except through the hook a bench path keeps."""
    import importlib

    old = importlib.import_module(f"monogenity.{module}")
    new = importlib.import_module(f"monogenity.{home}")
    assert name in vars(new) and name not in vars(old)
    if (module, name) in BENCH_READS:
        assert getattr(old, name) is getattr(new, name)
    else:
        with pytest.raises(AttributeError):
            getattr(old, name)
    with pytest.raises(AttributeError):
        getattr(old, "no_such_name")


# the report records and their readers, which classify builds, moved from ore
# (the reference pipeline) to polygon; ore still imports the two readers
REPORT_RECORDS = (
    "SideAnalysis", "PhiReport", "IndexBound", "NOT_REGULAR", "SplittingShape",
    "index_lower_bound", "splitting_shape",
)
# the old paths that still resolve, through a PEP 562 hook: bench/checks.py reads them
BENCH_READS = {("zpoly", "phi_expansion"), ("classify", "dedekind_divides_index")}


class TestImportGraph:
    @pytest.mark.parametrize("name, code", PROBES, ids=[name for name, _ in PROBES])
    def test_probe(self, tmp_path, name, code):
        assert probe_problem(name, code, tmp_path) is None

    def test_every_exported_name_resolves(self):
        # in process; the probe every_exported_name_is_at_home checks each home
        assert set(monogenity.__all__) <= set(dir(monogenity))
        for name in monogenity.__all__:
            assert getattr(monogenity, name) is not None
        with pytest.raises(AttributeError):
            monogenity.no_such_name

    @_moved_to("output")
    def test_moved_name_leaves_cli_for_the_output_layer(self, module, name):
        _assert_moved(module, name, "output")

    @_moved_to("ore")
    def test_moved_name_resolves_to_the_general_engine(self, module, name):
        # the engine for any monic f, monogenity.ore
        _assert_moved(module, name, "ore")

    @_moved_to("oracle")
    def test_moved_name_resolves_to_oracle(self, module, name):
        _assert_moved(module, name, "oracle")
        from monogenity import oracle, ore, render

        # render draws the oracle's points and keeps no enumerator of its own
        assert not hasattr(ore, name)
        assert getattr(render, name) is getattr(oracle, name)

    def test_one_engine_module_and_no_common_index_test(self):
        import importlib
        import importlib.util

        assert importlib.util.find_spec("monogenity.general") is None
        for name in DELETED:
            assert name not in monogenity.__all__
            for module in ("classify", "ore", "polygon", "residue"):
                assert not hasattr(importlib.import_module(f"monogenity.{module}"), name)

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

    def test_report_records_live_in_polygon(self):
        from monogenity import ore, polygon

        for name in REPORT_RECORDS:
            assert name in vars(polygon), name
            if name in ("index_lower_bound", "splitting_shape"):
                assert getattr(ore, name) is getattr(polygon, name)
            else:
                assert not hasattr(ore, name), name
            if name in monogenity.__all__:
                assert monogenity._HOMES[name] == "polygon", name
        assert set(vars(ore)) >= {"phi_report", "analyze_prime", "_phi_report"}

    def test_analyze_prime_lives_in_ore(self):
        from monogenity import ore

        assert "analyze_prime" in vars(ore)
        assert monogenity.analyze_prime is ore.analyze_prime
        assert "analyze_prime" in monogenity.__all__



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


@pytest.fixture
def record(request):
    """The record a test is parametrized over, given as a function that builds
    it: an F_(p^k) built at collection would stop the whole module collecting."""
    return request.param()


class TestRecordSemantics:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: PureFieldParams(p=2, r=3, m=17), id="PureFieldParams"),
            pytest.param(lambda: _side((0, 4), (2, 2)), id="Side"),
            pytest.param(
                lambda: NewtonPolygon((_side((0, 4), (2, 2)), _side((2, 2), (8, 0)))),
                id="NewtonPolygon",
            ),
            pytest.param(lambda: ExtensionField(3, (1, 0, 1)), id="ExtensionField"),
            pytest.param(lambda: PrimeField(7, (3, 1)), id="PrimeField"),
            pytest.param(lambda: PhiExpansion((0, 1), ((5,), (), (1,))), id="PhiExpansion"),
            pytest.param(lambda: IndexBound(value=3, exact=False), id="IndexBound-literal"),
            pytest.param(
                lambda: SplittingShape.from_pairs([(2, 1), (1, 1)]), id="SplittingShape-from_pairs"
            ),
            *(pytest.param(make, id=name) for name, make in TUPLE_RECORDS.items()),
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
        assert residue_field(3, (1, 0, 1)) != residue_field(3, (2, 1))
        assert PhiExpansion((0, 1), ((1,),)) != ((0, 1), ((1,),))

    @pytest.mark.parametrize(
        "record, name",
        [
            pytest.param(lambda: PureFieldParams(p=2, r=3, m=17), "m", id="PureFieldParams-m"),
            pytest.param(
                lambda: PureFieldParams(p=2, r=3, m=17), "m_primes", id="PureFieldParams-m_primes"
            ),
            pytest.param(lambda: _side((0, 4), (2, 2)), "h", id="Side-h"),
            pytest.param(lambda: NewtonPolygon(()), "sides", id="NewtonPolygon-sides"),
            pytest.param(lambda: residue_field(7, (3, 1)), "p", id="PrimeField-p"),
            pytest.param(
                lambda: residue_field(3, (1, 0, 1)), "_folds", id="ExtensionField-_folds"
            ),
            pytest.param(lambda: PhiExpansion((0, 1), ((1,),)), "phi", id="PhiExpansion-phi"),
            pytest.param(lambda: VERDICT, "status", id="MonogenityVerdict-status-VERDICT"),
            pytest.param(
                lambda: VERDICT.certificate.analyses[0].index, "value",
                id="IndexBound-value-VERDICT",
            ),
            # a vertex the closed form builds
            pytest.param(lambda: REPORT.polygon.vertices[0], "i", id="ValuedPoint-i-vertex"),
            *(
                pytest.param(make, field, id=f"{name}-{field}")
                for name, make in TUPLE_RECORDS.items()
                for field in [make()._fields[0]]
            ),
        ],
        indirect=["record"],
    )
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 0)

    @pytest.mark.parametrize(
        "record",
        [lambda: residue_field(7, (3, 1)), lambda: residue_field(3, (1, 0, 1))]
        + list(TUPLE_RECORDS.values()),
        ids=["PrimeField", "ExtensionField", *TUPLE_RECORDS],
        indirect=True,
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
        assert repr(residue_field(3, (1, 0, 1))) == "ExtensionField(p=3, modulus=(1, 0, 1))"
        assert repr(_side((0, 2), (4, 0))) == (
            "Side(start=ValuedPoint(i=0, v=2), end=ValuedPoint(i=4, v=0))"
        )

    def test_residue_field_dispatches(self):
        assert type(residue_field(7, (3, 1))) is PrimeField
        assert type(residue_field(3, (1, 0, 1))) is ExtensionField

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
