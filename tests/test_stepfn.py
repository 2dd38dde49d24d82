import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croft_forge.stepfn import (
    StepFunctionError,
    dump_qspec,
    load_qspec,
    make_step_function,
    reference_step_function,
    zero_step_function,
)

SIMPLE_BREAKS = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(4, 3), Fraction(2)]


def simple(values=(0.5, -0.25, -0.5, 0.25)):
    return make_step_function(SIMPLE_BREAKS, values)


def test_reference_profile_loads():
    q = reference_step_function()
    assert q.n_intervals == 24
    assert q.breaks[0] == 0.0
    assert q.breaks[-1] == pytest.approx(2 * math.pi, abs=0)


def test_values_lookup_and_sides():
    q = simple()
    assert q(0.1) == 0.5
    assert q(math.pi / 3 + 0.01) == -0.25
    # exactly at a break the side argument picks the limit
    b = math.pi / 3
    assert q(b, side="right") == -0.25
    assert q(b, side="left") == 0.5
    # wrap-around break at 0 / 2*pi
    assert q(0.0, side="right") == 0.5
    assert q(0.0, side="left") == 0.25


def test_break_snap_tolerance():
    q = simple()
    b = math.pi / 3
    assert q(b + 1e-14, side="left") == 0.5
    assert q(b - 1e-14, side="right") == -0.25


def test_antisymmetry_enforced():
    with pytest.raises(StepFunctionError, match="antisymmetry"):
        make_step_function(SIMPLE_BREAKS, [0.5, -0.25, -0.5, 0.3])


def test_monotone_breaks_enforced():
    with pytest.raises(StepFunctionError, match="increasing"):
        make_step_function(
            [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)],
            [0.1, 0.2, -0.1, -0.2],
        )


def test_break_antipode_pairing_enforced():
    with pytest.raises(StepFunctionError, match="antipodal"):
        make_step_function(
            [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(2)],
            [0.1, 0.2, -0.1, -0.2],
        )


def test_value_count_enforced():
    with pytest.raises(StepFunctionError, match="values"):
        make_step_function(SIMPLE_BREAKS, [0.1, -0.1])


def test_endpoints_enforced():
    with pytest.raises(StepFunctionError, match="must start"):
        make_step_function([Fraction(0), Fraction(1)], [0.0])


def test_zero_profile():
    z = zero_step_function()
    assert z(1.0) == 0.0
    assert z.n_intervals == 2


def test_scaled():
    q = simple()
    assert q.scaled(2.0)(0.1) == 1.0


def test_json_round_trip(tmp_path):
    q = reference_step_function()
    path = tmp_path / "q.json"
    dump_qspec(q, path)
    q2 = load_qspec(path)
    assert np.array_equal(q.values, q2.values)
    assert q.break_fractions == q2.break_fractions
    spec = json.loads(path.read_text())
    assert set(spec) == {"breaks", "values"}


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(
        st.floats(-1, 1, allow_nan=False, width=32), min_size=2, max_size=2
    ),
    phi=st.floats(0, 2 * math.pi - 1e-9, allow_nan=False),
)
def test_antisymmetry_property(vals, phi):
    q = make_step_function(SIMPLE_BREAKS, [vals[0], vals[1], -vals[0], -vals[1]])
    assert q((phi + math.pi) % (2 * math.pi)) == pytest.approx(-q(phi), abs=1e-12)
