"""The immutable records (``scalars.Record``) behave as the frozen dataclasses
they replace, every immutable value of the package takes the one guard of
``Record``, and importing germsum loads neither ``dataclasses`` nor ``inspect``."""
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import germsum
from germsum import (borel, cli, errors, gevrey, harness, scalars, series, transforms,
                     weierstrass)
from germsum.borel import (BorelSeries, OneVarSeries, PoleCluster, RayContinuation,
                           SingularDirectionReport, SumResult, build_approximant)
from germsum.gevrey import GevreyEstimate, NormSequence
from germsum.harness import ExampleData, PSectorSample, ResidualReport
from germsum.scalars import QQi, Record
from germsum.series import MonomialOrder, TruncatedSeries
from germsum.transforms import INFINITY, DominantData
from germsum.weierstrass import DivisionResult, Germ, p_expand

NO_DEFAULT = object()

# each record's fields in order, with the default of each field that has one
# (a type stands for a per-instance factory)
RECORDS = [
    (OneVarSeries, {"coeffs": NO_DEFAULT}),
    (BorelSeries, {"k": NO_DEFAULT, "coeffs": NO_DEFAULT, "exact": False}),
    (RayContinuation, dict.fromkeys(("k", "direction", "radii", "prec", "_hi", "_lo"),
                                    NO_DEFAULT)),
    (SumResult, dict.fromkeys(("t", "k", "theta", "value", "quadrature_error",
                               "continuation_error", "prec"), NO_DEFAULT)),
    (PoleCluster, dict.fromkeys(("center", "modulus", "argument", "stability", "hits"),
                                NO_DEFAULT)),
    (SingularDirectionReport, dict.fromkeys(("k", "clusters", "directions"), NO_DEFAULT)),
    (NormSequence, dict.fromkeys(("rho", "norms"), NO_DEFAULT)),
    (GevreyEstimate, {**dict.fromkeys(("s", "logK", "logA", "rms_residual", "n_range"),
                                      NO_DEFAULT), "convergent_type": False}),
    (ExampleData, dict.fromkeys(("name", "f", "p", "order", "notes"), NO_DEFAULT)),
    (ResidualReport, {"formal_valuation": None, "exact_to_truncation": None,
                      "numeric_max_residual": None, "details": dict}),
    (PSectorSample, dict.fromkeys(("a", "b", "R", "points", "p"), NO_DEFAULT)),
    (DominantData, dict.fromkeys(("base_order", "completed_order", "h", "H", "a", "roots"),
                                 NO_DEFAULT)),
    (DivisionResult, dict.fromkeys(("q", "r"), NO_DEFAULT)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def reference(cls, fields):
    """The frozen dataclass the record replaces."""
    spec = []
    for name, default in fields.items():
        if default is NO_DEFAULT:
            spec.append(name)
        elif isinstance(default, type):
            spec.append((name, object, dataclasses.field(default_factory=default)))
        else:
            spec.append((name, object, default))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def sample(fields, shift=0):
    """Distinct hashable values, one per field (tuples, as OneVarSeries stores)."""
    return [(i + shift, f"v{i}") for i in range(len(fields))]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_in_order(self, cls, fields):
        assert cls._fields == tuple(fields)

    def test_positional_and_keyword(self, cls, fields):
        values = sample(fields)
        rec = cls(*values)
        assert [getattr(rec, n) for n in fields] == values
        assert cls(**dict(zip(fields, values))) == rec
        assert cls(*values[:1], **dict(zip(list(fields)[1:], values[1:]))) == rec

    def test_defaults(self, cls, fields):
        required = [n for n, d in fields.items() if d is NO_DEFAULT]
        rec = cls(*sample(required))
        for name, default in fields.items():
            if isinstance(default, type):
                assert getattr(rec, name) == default()
                assert getattr(rec, name) is not getattr(cls(*sample(required)), name)
            elif default is not NO_DEFAULT:
                assert getattr(rec, name) is default

    def test_refuses_wrong_arguments(self, cls, fields):
        values = sample(fields)
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values[:1], **{first: values[0]})
        if fields[first] is NO_DEFAULT:
            with pytest.raises(TypeError):
                cls(**dict(list(zip(fields, values))[1:]))

    def test_immutable(self, cls, fields):
        rec = cls(*sample(fields))
        for name in list(fields) + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, next(iter(fields)))
        assert [getattr(rec, n) for n in fields] == sample(fields)

    def test_equality_hash_and_repr_as_the_dataclass(self, cls, fields):
        ref = reference(cls, fields)
        values = sample(fields)
        rec, same, other = cls(*values), cls(*values), cls(*sample(fields, shift=1))
        assert rec == same and hash(rec) == hash(same) == hash(ref(*values))
        assert rec != other and not (rec == other)
        assert rec != ref(*values) and ref(*values) != rec
        assert repr(rec) == repr(ref(*values))
        required = [n for n, d in fields.items() if d is NO_DEFAULT]
        assert repr(cls(*sample(required))) == repr(ref(*sample(required)))

    def test_unhashable_field_as_the_dataclass(self, cls, fields):
        values = sample(fields)
        values[-1] = [{"a": 1}]
        with pytest.raises(TypeError):
            hash(reference(cls, fields)(*values))
        with pytest.raises(TypeError):
            hash(cls(*values))


def test_one_var_series_coerces_to_a_tuple():
    assert OneVarSeries([1, 2]).coeffs == (1, 2)
    assert OneVarSeries(coeffs=iter([3])) == OneVarSeries((3,))


def test_borel_series_approximants_are_per_instance_and_not_compared():
    a, b = BorelSeries(1.0, (1, 2)), BorelSeries(1.0, (1, 2))
    a._approximants["key"] = "value"
    assert b._approximants == {} and a._approximants is not b._approximants
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "BorelSeries(k=1.0, coeffs=(1, 2), exact=False)"
    with pytest.raises(TypeError):
        BorelSeries(1.0, (1, 2), False, {})


def test_ray_continuation_values_computed_once():
    calls = []

    def approximant(tau):
        calls.append(tau)
        return 2 * tau

    rc = RayContinuation(k=1.0, direction=0.0, radii=(0.5, 1.0), prec=64,
                         _hi=approximant, _lo=approximant)
    assert rc.values == (1, 2) and len(calls) == 2
    assert rc.values is rc.values and rc.errors == (0.0, 0.0) and len(calls) == 4
    assert rc == RayContinuation(1.0, 0.0, (0.5, 1.0), 64, approximant, approximant)
    assert isinstance(rc.values[0], mpmath.mpc)


def values():
    """One of each immutable value that is not a result record, with the names
    to try: a field, a derived attribute or memo once read, and a new name."""
    germ = Germ(TruncatedSeries(2, 8, {(0, 2): 1, (3, 0): -1}), MonomialOrder((2, 3)))
    expansion = p_expand(germ.p * germ.p, germ, 3)
    approximant = build_approximant([Fraction(1, 2 ** n) + n for n in range(9)])
    assert approximant.lower is not None and approximant.raw_poles() is not None
    order = germ.order
    assert order.int_weights == (2, 3) and expansion._borel == {}
    return [(germ.p, ("terms", "dim")), (QQi(1, 2), ("re", "im")),
            (order, ("weights", "int_weights")), (germ, ("p", "lead_exp")),
            (expansion, ("coeffs", "_borel")),
            (approximant, ("lower", "num", "_roots")), (INFINITY, ())]


def test_every_value_refuses_assignment_and_deletion():
    # del series.terms, del germ.p and del expansion.coeffs succeeded, and an
    # approximant shared by every ray took any assignment
    for value, names in values():
        for name in names + ("not_a_field",):
            before = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is before, (value, name)


def test_record_is_the_only_guard():
    classes = [c for m in (borel, cli, errors, gevrey, harness, scalars, series, transforms,
                           weierstrass)
               for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__]
    assert [c for c in classes if {"__setattr__", "__delattr__"} & set(vars(c))] == [Record]
    for value, _ in values():
        assert isinstance(value, Record)
    # the kernel's values keep their slots
    for value in (TruncatedSeries(1, 2, {(1,): 1}), QQi(1, 2)):
        assert not hasattr(value, "__dict__") and type(value).__slots__


def test_values_compare_by_value():
    germ, twin = (Germ(TruncatedSeries(2, 8, {(1, 1): 1}), MonomialOrder((1, 1)))
                  for _ in range(2))
    assert germ == twin and germ != Germ(germ.p, MonomialOrder((1, 2)))
    assert p_expand(germ.p, germ, 2) == p_expand(twin.p, twin, 2)
    coeffs = [Fraction(1, 2 ** n) for n in range(7)]
    assert build_approximant(coeffs) == build_approximant(coeffs)
    assert MonomialOrder((2, 3)) == MonomialOrder((2, 3), "lex") != MonomialOrder((2, 3), "revlex")
    # the memos are not compared, and a value holding a series has no hash
    assert p_expand(germ.p, germ, 2)._borel is not p_expand(germ.p, germ, 2)._borel
    for value in (germ, p_expand(germ.p, germ, 2)):
        with pytest.raises(TypeError):
            hash(value)
    assert hash(MonomialOrder((2, 3))) == hash(MonomialOrder([2, 3]))
    assert isinstance(hash(build_approximant(coeffs)), int)
    assert repr(INFINITY) == "inf" and INFINITY == type(INFINITY)()


def test_import_loads_no_numpy_dataclasses_or_inspect():
    # in a child, since pytest itself loads inspect; measured against a child
    # that has imported germsum's dependencies, so a site hook that loads one
    # of these modules does not count against germsum.  CLI children that root
    # nothing (divide, expand, blowup, verify pde-quasihom) start fast because
    # no germsum module imports numpy when it is loaded: the root finder and
    # the Gevrey fit import it where they use it
    package_root = str(Path(germsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = ("import sys, mpmath, fractions, json, argparse; before = set(sys.modules); "
            "import germsum.cli; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
