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
    make_step_function,
    qspec_shift,
    read_qspec,
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


def test_antisymmetry_enforced():
    with pytest.raises(StepFunctionError, match="antisymmetry"):
        make_step_function(SIMPLE_BREAKS, [0.5, -0.25, -0.5, 0.3])


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.5, math.nan, -0.5, math.nan], r"value\[1\]=nan is not finite"),
        ([math.inf, -0.25, -math.inf, 0.25], r"value\[0\]=inf is not finite"),
        ([0.5, -math.inf, -0.5, math.inf], r"value\[1\]=-inf is not finite"),
    ],
)
def test_non_finite_values_rejected(values, message):
    """NaN passes the antisymmetry test (NaN + NaN > tol is false) and so
    does an antipodal pair inf, -inf; both are refused."""
    with pytest.raises(StepFunctionError, match=message):
        make_step_function(SIMPLE_BREAKS, values)


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


F = Fraction


@pytest.mark.parametrize(
    "breaks, name",
    [
        ([F(0), F(1, 3), F(1), F(3, 2), F(2)], "1/3"),
        ([F(0), F(1, 3), F(1), F(2)], "1/3"),
        ([F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(2)], "2/3"),
        ([F(0), F(1, 3), F(2, 3), F(1), F(4, 3), F(5, 3), F(7, 4), F(2)], "7/4"),
        ([F(0), F(1, 4), F(1), F(5, 4) + F(1, 100), F(2)], "1/4"),
        ([F(0), F(1, 4), F(1, 2), F(11, 10), F(27, 20), F(8, 5), F(2)], "0"),
    ],
    ids=["four", "odd", "odd-five", "odd-seven", "one-moved", "half-shifted"],
)
def test_antipode_error_names_the_first_unpaired_break(breaks, name):
    """Antipodes pair by position (break k with break k + n/2), and a set
    that fails names the first break, in order, whose antipode is missing."""
    with pytest.raises(StepFunctionError, match=rf"^break {name}\*pi has no antipodal break$"):
        make_step_function(breaks, [0.0] * (len(breaks) - 1))


def test_value_count_enforced():
    with pytest.raises(StepFunctionError, match="values"):
        make_step_function(SIMPLE_BREAKS, [0.1, -0.1])


@pytest.mark.parametrize(
    "brk, message",
    [
        ({"num": 0, "den": 0}, r"break \{'num': 0, 'den': 0\}"),
        ((1, 0), r"break \(1, 0\)"),
        (math.inf, "break inf"),
        (math.nan, "break nan"),
        ({"num": 1}, "break {'num': 1}"),
    ],
    ids=["zero-den-dict", "zero-den-tuple", "inf", "nan", "no-den"],
)
def test_malformed_break_rejected(brk, message):
    """A zero denominator or a non-finite radian break names the break
    instead of escaping as ZeroDivisionError or OverflowError; so does a
    (num, den) tuple, which is no break format."""
    with pytest.raises(StepFunctionError, match=message):
        make_step_function([Fraction(0), brk, Fraction(2)], [0.0, 0.0])


@pytest.mark.parametrize(
    "values, message",
    [
        ([True, -0.25, -1.0, 0.25], r"value\[0\]=True is not a real number"),
        ([0.5, "0", -0.5, "-0"], r"value\[1\]='0' is not a real number"),
        ([0.5, -0.25, None, 0.25], r"value\[2\]=None is not a real number"),
        ([0.5, -0.25, -0.5, 0.25j], r"value\[3\]=0.25j is not a real number"),
        ([np.True_, -0.25, -1.0, 0.25], r"value\[0\]=.*True.* is not a real number"),
    ],
    ids=["bool", "string", "none", "complex", "numpy-bool"],
)
def test_value_that_is_no_real_number_is_refused(values, message):
    """NumPy would read a bool as 1.0 and a numeric string as its number."""
    with pytest.raises(StepFunctionError, match=message):
        make_step_function(SIMPLE_BREAKS, values)


@pytest.mark.parametrize(
    "brk",
    [False, True, "1.0", {"num": True, "den": 2}, {"num": 1, "den": "2"},
     {"num": 0.5, "den": 1}, np.True_],
    ids=["false", "true", "string", "bool-num", "string-den", "float-num", "numpy-bool"],
)
def test_break_that_is_no_real_number_is_refused(brk):
    with pytest.raises(StepFunctionError, match=r"^cannot interpret break "):
        make_step_function([Fraction(0), brk, Fraction(2)], [0.0, 0.0])


@pytest.mark.parametrize(
    "number", [np.int64(0), np.float64(0.0), np.float32(0.0), np.int32(0), 0, 0.0, Fraction(0)],
    ids=["int64", "float64", "float32", "int32", "int", "float", "fraction"],
)
def test_numpy_numbers_are_read_as_breaks_and_values(number):
    q = make_step_function([number, math.pi, {"num": np.int64(2), "den": np.int64(1)}],
                           [number, number])
    assert q.break_fractions == (Fraction(0), Fraction(1), Fraction(2))
    assert q.values.tolist() == [0.0, 0.0]


def test_endpoints_enforced():
    with pytest.raises(StepFunctionError, match="must start"):
        make_step_function([Fraction(0), Fraction(1)], [0.0])


def test_zero_profile():
    z = zero_step_function()
    assert z.n_intervals == 2
    assert list(z.values) == [0.0, 0.0]


def test_plain_radian_breaks_read_as_multiples_of_pi():
    """Plain radians k*pi/6 read as the Fractions k/6: the same exact and
    float breaks."""
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6]
    rad = make_step_function([k * math.pi / 6 for k in range(13)], values)
    exact = make_step_function([Fraction(k, 6) for k in range(13)], values)
    assert rad.break_fractions == exact.break_fractions == tuple(Fraction(k, 6) for k in range(13))
    assert np.array_equal(rad.breaks, exact.breaks)


def test_json_round_trip(tmp_path):
    q = reference_step_function()
    path = tmp_path / "q.json"
    dump_qspec(q, path)
    q2 = read_qspec(path)[0]
    assert np.array_equal(q.values, q2.values)
    assert q.break_fractions == q2.break_fractions
    spec = json.loads(path.read_text())
    assert set(spec) == {"breaks", "values"}
    assert read_qspec(path)[1] is None


def test_json_round_trip_with_a_shift(tmp_path):
    """A shift is written as a list and read back as the same two floats,
    beside the profile."""
    q = reference_step_function()
    path = tmp_path / "q.json"
    dump_qspec(q, path, shift=(0.1, -0.0))
    assert json.loads(path.read_text())["shift"] == [0.1, -0.0]
    q2, shift = read_qspec(path)
    assert [x.hex() for x in shift] == [(0.1).hex(), (-0.0).hex()]
    assert np.array_equal(q2.values, q.values)
    assert qspec_shift({"shift": [1, 2]}) == (1.0, 2.0)


@pytest.mark.parametrize("shift", [[0.1], [0.1, 0.2, 0.3], [0.1, "0.2"], [True, 0.0], None,
                                   "0.1,0.2", {"x": 0.1, "y": 0.2}, [math.nan, 0.0],
                                   [0.0, math.inf], [10**400, 0], [0.0, np.False_]])
def test_malformed_shift_is_refused(shift):
    with pytest.raises(StepFunctionError, match="shift must be a list of two finite numbers"):
        qspec_shift({"shift": shift})


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(
        st.floats(-1, 1, allow_nan=False, width=32), min_size=2, max_size=2
    ),
)
def test_antisymmetry_property(vals):
    """Interval i + n/2 is the antipode of interval i and carries -values[i]."""
    q = make_step_function(SIMPLE_BREAKS, [vals[0], vals[1], -vals[0], -vals[1]])
    h = q.n_intervals // 2
    assert np.array_equal(q.values[h:], -q.values[:h])


def test_reference_profile_is_shared_and_read_only():
    q = reference_step_function()
    assert reference_step_function() is q
    with pytest.raises(ValueError, match="read-only"):
        q.values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        q.breaks[1] = 0.0


def test_break_set_is_checked_once_and_shared():
    a = simple()
    b = simple((0.1, 0.2, -0.1, -0.2))
    assert a.breaks is b.breaks
    assert not a.breaks.flags.writeable
    assert a.values.flags.writeable  # only the break set is shared


def test_antisymmetry_error_names_the_first_bad_index():
    with pytest.raises(StepFunctionError, match=r"value\[1\]=0.3 vs value\[3\]=0.25"):
        make_step_function(SIMPLE_BREAKS, [0.5, 0.3, -0.5, 0.25])
