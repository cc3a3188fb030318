"""Numeric arguments: every public integer and real argument is checked once, by
errors.check_integer or errors.check_real, and every array argument by
errors.check_real_array.  A bool, a string, None, a float given as an
integer, nan, inf or an int beyond the float range, as an argument or as an
array entry, raises a SudferError, never a raw exception, and is never
coerced to a number; so does a smooth-max ``params`` that is not a
SmoothMaxParams."""

import math

import numpy as np
import pytest

from sudfer import (
    ExperimentConfig,
    SmoothMaxParams,
    SudferError,
    beta_tradeoff_bound,
    blended_spec,
    derive_seed,
    dominated_pair,
    empirical_gap,
    expected_max_mc,
    iid_maxima,
    iid_standard_spec,
    optimal_beta,
    phi,
    phi_derivative,
    random_spec,
    sample,
    sandwich_gap,
    sf_bound,
    smooth_max,
    smooth_max_hessian,
    softmax,
    stein_residuals,
    validate_spec,
    zero_spec,
)
from sudfer.errors import InvalidInput, check_integer, check_real

SPEC = random_spec(3, 1, "wishart")
X, Y = dominated_pair(3, 2, "wishart")
P = SmoothMaxParams(2.0)

BAD_CALLS = {
    # seeds and counts
    "sample float seed": lambda: sample(SPEC, 3, 1.0),
    "iid_maxima float seed": lambda: iid_maxima(4, 3, 1.0),
    "expected_max_mc None seed": lambda: expected_max_mc(SPEC, 10, None),
    "expected_max_mc None seed, zero law": lambda: expected_max_mc(zero_spec(3), 10, None),
    "derive_seed float path": lambda: derive_seed(1, 2.7),
    "derive_seed bool path": lambda: derive_seed(1, True),
    # sample counts given as strings
    "expected_max_mc": lambda: expected_max_mc(SPEC, "10", 1),
    "empirical_gap": lambda: empirical_gap(X, Y, "10", 1),
    "phi": lambda: phi(X, Y, P, 0.5, "10", 1),
    "phi_derivative": lambda: phi_derivative(X, Y, P, 0.5, "10", 1),
    "stein_residuals": lambda: stein_residuals(SPEC, P, "10", 1),
    # path times
    "phi bool t": lambda: phi(X, Y, P, True, 10, 1),
    "phi_derivative string t": lambda: phi_derivative(X, Y, P, "0.5", 10, 1),
    "phi_derivative None t": lambda: phi_derivative(X, Y, P, None, 10, 1),
    "blended_spec string t": lambda: blended_spec(X, Y, "0.5"),
    # beta
    "beta string": lambda: SmoothMaxParams("2"),
    "beta bool": lambda: SmoothMaxParams(True),
    "beta None": lambda: SmoothMaxParams(None),
    "beta beyond float range": lambda: SmoothMaxParams(10**400),
    # bounds
    "sf_bound nan gamma": lambda: sf_bound(math.nan, 4),
    "sf_bound string gamma": lambda: sf_bound("2", 4),
    "sf_bound float n": lambda: sf_bound(2.0, 2.5),
    "optimal_beta inf gamma": lambda: optimal_beta(math.inf, 4),
    "beta_tradeoff_bound nan gamma": lambda: beta_tradeoff_bound(1.0, math.nan, 4),
    # law builders
    "iid_standard_spec float n": lambda: iid_standard_spec(2.5),
    "zero_spec negative n": lambda: zero_spec(-1),
    "zero_spec string n": lambda: zero_spec("3"),
    "random_spec bool n": lambda: random_spec(True, 1, "wishart"),
    "random_spec None seed": lambda: random_spec(3, None, "wishart"),
    "dominated_pair float n": lambda: dominated_pair(2.5, 1, "wishart"),
    # smooth max
    "smooth_max string entry": lambda: smooth_max(["a"], P),
    "smooth_max numeric string entry": lambda: smooth_max(["1.5"], P),
    "smooth_max bool array": lambda: smooth_max(np.array([True, False]), P),
    "smooth_max complex array": lambda: smooth_max(np.array([1.0 + 0j, 2.0]), P),
    # array entries of a law
    "validate_spec string mean, bool covariance": lambda: validate_spec(["1"], [[True]]),
    "validate_spec bool in the mean": lambda: validate_spec([True, 1.5], np.eye(2)),
    "validate_spec bool array mean": lambda: validate_spec(np.array([True, False]), np.eye(2)),
    "validate_spec string array covariance": lambda: validate_spec(np.zeros(2), np.array(["1", "2"])),
    "validate_spec complex array covariance": lambda: validate_spec(np.zeros(2), np.eye(2, dtype=complex)),
    "validate_spec None variance": lambda: validate_spec(np.zeros(2), [1.0, None]),
    "validate_spec int beyond float range": lambda: validate_spec([10**400], [[1.0]]),
    # params that are not a SmoothMaxParams
    "smooth_max float params": lambda: smooth_max([1.0, 2.0], 2.0),
    "softmax float params": lambda: softmax([1.0, 2.0], 2.0),
    "smooth_max_hessian None params": lambda: smooth_max_hessian([1.0, 2.0], None),
    "sandwich_gap float params": lambda: sandwich_gap([1.0, 2.0], 2.0),
    "phi float params": lambda: phi(X, Y, 2.0, 0.5, 10, 1),
    "phi_derivative float params": lambda: phi_derivative(X, Y, 2.0, 0.5, 10, 1),
    "stein_residuals float params": lambda: stein_residuals(SPEC, 2.0, 10, 1),
    # config
    "ExperimentConfig array beta": lambda: ExperimentConfig(experiment="sharpness", beta=np.array([1.0, 2.0])),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_numbers_raise_a_sudfer_error(call):
    with pytest.raises(SudferError):
        call()


def test_numpy_scalars_are_accepted_as_plain_numbers():
    assert sf_bound(np.float64(2.0), np.int64(4)) == sf_bound(2.0, 4)
    assert np.array_equal(iid_maxima(np.int64(4), np.int64(3), np.uint64(5)), iid_maxima(4, 3, 5))
    assert derive_seed(np.uint64(2**64 - 1), np.int64(3)) == derive_seed(2**64 - 1, 3)
    assert SmoothMaxParams(np.float64(0.5)).beta == 0.5
    assert np.array_equal(blended_spec(X, Y, np.float64(0.25)).covariance, blended_spec(X, Y, 0.25).covariance)
    assert phi_derivative(X, Y, P, np.float64(0.5), np.int64(10), 1) == phi_derivative(X, Y, P, 0.5, 10, 1)


def test_integer_and_float_arrays_and_lists_of_them_are_accepted():
    spec = validate_spec(np.arange(2), [np.ones(2, dtype=np.int32), [np.float64(1.0), 2]])
    assert spec.mean.tolist() == [0.0, 1.0] and spec.covariance.tolist() == [[1.0, 1.0], [1.0, 2.0]]
    assert validate_spec(np.zeros(2), np.array([1, 3], dtype=np.uint8)).covariance.tolist() == [1.0, 3.0]
    assert smooth_max(np.array([1.0, 2.0], dtype=np.float32), P) == smooth_max((1, 2.0), P)
    config = ExperimentConfig(experiment="path-diagnostics", beta=np.float64(2.0))
    assert type(config.beta) is float and config.beta == 2.0


@pytest.mark.parametrize("value", [True, np.bool_(False), "3", None, 3.0, 2.5, math.nan, math.inf, 10**400])
def test_check_integer_refuses_what_is_not_an_integer(value):
    with pytest.raises(InvalidInput):
        check_integer("n", value, 0)


@pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None, math.nan, -math.inf, 10**400, 1 + 2j])
def test_check_real_refuses_what_is_not_a_finite_real(value):
    with pytest.raises(InvalidInput):
        check_real("t", value)


def test_checks_return_plain_numbers_and_keep_the_callers_range_error():
    assert type(check_integer("n", np.uint64(7), 1)) is int and check_integer("n", 2**64 - 1, 0, 2**64 - 1) == 2**64 - 1
    assert type(check_real("t", np.float32(0.5))) is float and check_real("t", 10**300) == 1e300
    with pytest.raises(SudferError) as info:
        check_integer("n", 1, 2, error=SudferError)
    assert type(info.value) is SudferError
    with pytest.raises(InvalidInput):
        check_integer("seed", 2**64, 0, 2**64 - 1)
