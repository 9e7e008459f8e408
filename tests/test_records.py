"""The package's frozen records are named tuples: their fields cannot be
assigned, they compare and hash by value, build from positions or
keywords alike, and print as ``Name(field=value, ...)``."""

from decimal import Decimal
from fractions import Fraction

import pytest

from l4norm.dalembert import FrequencyPair
from l4norm.equilibria import EquilibriumPoint
from l4norm.errata import KNOWN_DISCREPANCIES, RemainderVerdict
from l4norm.errors import ParameterError
from l4norm.model import ModelParams
from l4norm.normalform import H3NormalCoefficients
from l4norm.verify import PipelineOptions, run_pipeline


def records():
    p = ModelParams(mu=0.01, q1=0.999, A2=1e-4, cd=20.0)
    res = run_pipeline(p)
    return [p, ModelParams._from_perturbations(p.mu, p.epsilon, p.A2, -p.W1),
            PipelineOptions(), res.eq_numeric, res.shift, res.efg,
            res.freq, res.moser, res.nm, res.h3,
            RemainderVerdict("b2.r1", "W1", 1e-3, 5e-4, "first_order"),
            KNOWN_DISCREPANCIES[0]]


RECORDS = records()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_copy_is_equal_and_hashes_alike(record):
    copy = type(record)._make(record)
    assert copy is not record and copy == record and hash(copy) == hash(record)


def test_repr_names_every_field():
    assert repr(PipelineOptions()) == (
        "PipelineOptions(branch='L4', divisor_floor=1e-08, moser_tol=0.001, "
        "residual_tol=1e-09, linear_tol=1e-10, h3_tol_factor=1e-08)")
    assert repr(ModelParams(mu=0.25, q1=0.999, cd=20.0)) == (
        "ModelParams(mu=0.25, q1=0.999, A2=0.0, cd=20.0, "
        "epsilon=0.0010000000000000009, W1=3.750000000000003e-05, n=1.0, "
        "gamma=0.5, delta=0.999666555493786)")


def test_constructors_take_positions_and_keywords():
    assert ModelParams(0.01, 0.999, 1e-4, 20.0) == ModelParams(
        cd=20.0, A2=1e-4, q1=0.999, mu=0.01)
    assert PipelineOptions("L5", linear_tol=1e-9) == PipelineOptions(
        branch="L5", linear_tol=1e-9)
    assert PipelineOptions().moser_tol == 1e-3
    with pytest.raises(TypeError):
        ModelParams(mu=0.01, W1=0.0)  # a derived field is not passed


def test_checks_run_at_construction():
    with pytest.raises(ParameterError):
        FrequencyPair(0.3, 0.9)
    with pytest.raises(ParameterError):
        EquilibriumPoint(0.5, 0.8, "L6", "numeric", 0.0)
    with pytest.raises(ParameterError):
        ModelParams(mu=0.01, cd=float("nan"))
    with pytest.raises(ParameterError):
        PipelineOptions(branch="L6")


@pytest.mark.parametrize("record, field", [
    *((ModelParams, name) for name in ("mu", "q1", "A2", "cd")),
    *((PipelineOptions, name) for name in PipelineOptions._fields[1:])],
    ids=lambda x: getattr(x, "__name__", x))
def test_a_value_that_is_not_a_number_is_refused_by_name(record, field):
    # a string, or an int too large for a float, is refused as a
    # ParameterError naming its field, where a comparison with a float
    # would raise a bare TypeError and the arithmetic a bare OverflowError
    required = {"mu": 0.01} if record is ModelParams else {}
    with pytest.raises(ParameterError, match=f"^{field} must .* got '0.01'$"):
        record(**{**required, field: "0.01"})
    with pytest.raises(ParameterError, match=f"^{field} must .* got 10{{400}}$"):
        record(**{**required, field: 10**400})


def test_numbers_are_held_as_floats():
    p = ModelParams(Fraction(1, 100), q1=1, A2=Decimal("0.001"), cd=True)
    options = PipelineOptions("L5", 1, Fraction(1, 1000), Decimal("1e-9"))
    assert (*p[:4], *options) == (0.01, 1.0, 0.001, 1.0, "L5", 1.0, 0.001, 1e-9, 1e-10, 1e-8)
    assert {type(v) for v in (*p, *options[1:])} == {float}


def test_parameters_keep_no_instance_dict():
    # the L5 reading of the printed rows negates W1 where it evaluates them,
    # so ModelParams caches nothing and has empty __slots__; the H3 stage's
    # kernel measures every norm of its record, which caches none either
    h3 = next(r for r in RECORDS if isinstance(r, H3NormalCoefficients))
    for record in [*RECORDS[:3], h3]:
        assert not hasattr(record, "__dict__"), record


def test_perturbation_parameters_bypass_cd():
    # W1 is set directly, of either sign; cd reads nan
    p = ModelParams._from_perturbations(0.01, 1e-3, 0.0, -2e-4)
    assert (p.W1, p.epsilon, p.q1) == (-2e-4, 1.0 - (1.0 - 1e-3), 1.0 - 1e-3)
    assert p.cd != p.cd and type(p) is ModelParams
