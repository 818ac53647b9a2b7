"""What loading the package builds, and the records it builds instead of
dataclasses: equality, hashing, immutability, pickling and repr."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from monogenity import (
    INFINITY,
    IndexBound,
    PureFieldParams,
    Side,
    SplittingShape,
    ValuedPoint,
    classify,
)
from monogenity.polygon import NewtonPolygon
from monogenity.residue import ExtensionField, PrimeField, ResidueField, residue_field
from monogenity.zpoly import PhiExpansion

SRC = Path(__file__).resolve().parents[1] / "src"

# Loaded by --verify, render, scan or Side.slope only, never by a load
# of the CLI: each would be built or compiled on every command.
NOT_LOADED = ("monogenity.oracle", "monogenity.render", "dataclasses", "fractions", "csv")


class TestImportGraph:
    def test_cli_import_loads_only_what_analyze_runs(self):
        code = (
            "import sys\n"
            "import monogenity.cli\n"
            f"print(' '.join(sorted(set({NOT_LOADED!r}) & set(sys.modules))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_lazy_modules_still_load(self):
        code = (
            "import sys\n"
            "from monogenity import Side, ValuedPoint, oracle, render\n"
            "print(Side(ValuedPoint(0, 2), ValuedPoint(4, 0)).slope)\n"
            "print('fractions' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["-1/2", "True"]


def _side(a, b):
    return Side(ValuedPoint(*a), ValuedPoint(*b))


VERDICT = classify(PureFieldParams(p=3, r=3, m=10))


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
        ],
    )
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            setattr(record, "extra", 0)

    @pytest.mark.parametrize(
        "record",
        [ResidueField(7, (3, 1)), ResidueField(3, (1, 0, 1)), VERDICT],
        ids=["PrimeField", "ExtensionField", "MonogenityVerdict"],
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
