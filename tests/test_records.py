"""The record types: pinned reprs, value equality and hashing, immutability
and the constructor checks, for all seven of them.  A series is a plain
tuple of complex, not a record."""

import pickle

import pytest

from toeplitz_bounds import (
    BoundFragment,
    BoundReport,
    ClassKind,
    ExtremalFunction,
    OracleConfig,
    OracleResult,
    PhiSpec,
    SchwarzPoint,
)
from toeplitz_bounds.series import from_coeffs

ST, CV = ClassKind.STARLIKE, ClassKind.CONVEX

# name -> (factory of one value, factory of a value that differs in one
# field, the pinned repr of the first); each factory builds a fresh object.
RECORDS = {
    "BoundFragment": (
        lambda: BoundFragment(1.5, True),
        lambda: BoundFragment(1.5, False),
        "BoundFragment(value=1.5, hypothesis_ok=True)",
    ),
    "BoundReport": (
        lambda: BoundReport(CV, 1.0, 0.5, 0.5, 0.25, BoundFragment(0.3125, True),
                            BoundFragment(1.5, False), ("t31: x",)),
        lambda: BoundReport(CV, 1.0, 0.5, 0.5, 0.25, BoundFragment(0.3125, True),
                            BoundFragment(1.5, False), ()),
        "BoundReport(kind=<ClassKind.CONVEX: 'convex'>, b1=1.0, b2=0.5, a2_bound=0.5, "
        "a3_bound=0.25, t22=BoundFragment(value=0.3125, hypothesis_ok=True), "
        "t31=BoundFragment(value=1.5, hypothesis_ok=False), notes=('t31: x',))",
    ),
    "ExtremalFunction": (
        lambda: ExtremalFunction(ST, (0j, 1 + 0j, 1j), (1.0, 1.0, 0.5)),
        lambda: ExtremalFunction(ST, (0j, 1 + 0j, 1j), (1.0, 1.0, 0.25)),
        "ExtremalFunction(kind=<ClassKind.STARLIKE: 'starlike'>, coeffs=(0j, (1+0j), 1j), "
        "phi=(1.0, 1.0, 0.5))",
    ),
    "SchwarzPoint": (
        lambda: SchwarzPoint(1j, 0j),
        lambda: SchwarzPoint(1j, 0.5j),
        "SchwarzPoint(w1=1j, w2=0j)",
    ),
    "OracleConfig": (
        lambda: OracleConfig(samples=2000, seed=3),
        lambda: OracleConfig(samples=2000),
        "OracleConfig(samples=2000, seed=3, polish_steps=40)",
    ),
    "OracleResult": (
        lambda: OracleResult("t22", 0.0, 1.25, SchwarzPoint(1j, 0j), 200008, 7, 40),
        lambda: OracleResult("t31", 0.0, 1.25, SchwarzPoint(1j, 0j), 200008, 7, 40),
        "OracleResult(functional='t22', mu=0.0, sup_estimate=1.25, "
        "argmax=SchwarzPoint(w1=1j, w2=0j), samples=200008, seed=7, polish_steps=40)",
    ),
    "PhiSpec": (
        lambda: PhiSpec("janowski", A=0.5, B=-0.5),
        lambda: PhiSpec("janowski", A=0.5, B=-0.25),
        "PhiSpec(kind='janowski', A=0.5, B=-0.5, alpha=None, custom=())",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_pinned_repr(self, name):
        make, _, text = RECORDS[name]
        assert type(make()).__name__ == name
        assert repr(make()) == text

    def test_equal_and_hashed_by_value(self, name):
        make, make_other, _ = RECORDS[name]
        a, b, other = make(), make(), make_other()
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != other and not a == other
        assert len({a, b, other}) == 2

    def test_fields_cannot_be_assigned(self, name):
        make, _, text = RECORDS[name]
        rec = make()
        field = text[len(name) + 1:].split("=")[0]  # the first field in the repr
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            setattr(rec, "extra", None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert repr(rec) == text

    def test_pickle_round_trip(self, name):
        make, _, text = RECORDS[name]
        copy = pickle.loads(pickle.dumps(make()))
        assert copy == make() and repr(copy) == text


class TestConstructorChecks:
    def test_unknown_phi_kind(self):
        with pytest.raises(ValueError, match="^unknown phi kind 'bogus'$"):
            PhiSpec("bogus")
        with pytest.raises(ValueError, match="^unknown phi kind 'bogus'$"):
            PhiSpec(kind="bogus", alpha=0.5)

    def test_phi_spec_defaults(self):
        assert PhiSpec("exp", alpha=0.25) == PhiSpec("exp", None, None, 0.25, ())

    def test_empty_series(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            from_coeffs(())

    def test_series_keeps_its_coefficient_types(self):
        s = from_coeffs((1, 2.0, 3j), 4)
        assert repr(s) == "(1, 2.0, 3j, 0.0, 0.0)"

    def test_series_is_a_plain_tuple(self):
        s = from_coeffs((1, 2, 3))
        assert type(s) is tuple
        assert s[2] == 3 and s == (1 + 0j, 2 + 0j, 3 + 0j)
        assert pickle.loads(pickle.dumps(s)) == s

    def test_field_sets(self):
        assert ExtremalFunction._fields == ("kind", "coeffs", "phi")
        assert OracleConfig._fields == ("samples", "seed", "polish_steps")
