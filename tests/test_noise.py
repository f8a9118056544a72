"""Noise models: parameter validation, sampler moments, and the
characteristic-function oracle the sampler is pinned to."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.errors import InvalidParameters
from diffnet.noise import (
    AlphaStable,
    Gaussian,
    characteristic_function,
    empirical_characteristic_function,
    sample,
)

CF_GRID = np.array([0.1, 0.5, 1.0, 2.0])


def test_parameter_validation():
    with pytest.raises(InvalidParameters):
        Gaussian(-1.0)
    with pytest.raises(InvalidParameters):
        AlphaStable(alpha=0.0, beta=0, gamma=1, delta=0)
    with pytest.raises(InvalidParameters):
        AlphaStable(alpha=2.5, beta=0, gamma=1, delta=0)
    with pytest.raises(InvalidParameters):
        AlphaStable(alpha=1.5, beta=1.5, gamma=1, delta=0)
    with pytest.raises(InvalidParameters):
        AlphaStable(alpha=1.5, beta=0, gamma=0, delta=0)
    # A bool is refused, as the config parser refuses it, not read as 1 or 0:
    # Gaussian(True) and AlphaStable(alpha=True, ...) used to build.
    stable = {"alpha": 1.5, "beta": 0.0, "gamma": 1.0, "delta": 0.0}
    for value in (True, False, np.bool_(True)):
        with pytest.raises(InvalidParameters, match="variance must be a number"):
            Gaussian(value)
        for name in stable:
            with pytest.raises(InvalidParameters, match=f"{name} must be a number"):
                AlphaStable(**{**stable, name: value})


def test_gaussian_sample_variance(rng):
    x = sample(Gaussian(4.0), rng, 10**6)
    assert abs(x.var() - 4.0) < 0.2  # 5 percent


def test_alpha2_is_gaussian_with_variance_two(rng):
    # At gamma = 1 the printed CF gives exp(-t^2), i.e. variance 2 gamma^2.
    x = sample(AlphaStable(2.0, 0.0, 1.0, 0.0), rng, 10**6)
    assert abs(x.var() - 2.0) < 0.1


def test_cauchy_median_at_location(rng):
    x = sample(AlphaStable(1.0, 0.0, 1.0, 0.0), rng, 10**6)
    assert abs(np.median(x)) < 0.01


def test_scalar_draw_is_float(rng):
    assert isinstance(sample(Gaussian(1.0), rng), float)
    assert isinstance(sample(AlphaStable(1.2, 0, 1, 0), rng), float)


def test_cf_example_values():
    assert characteristic_function(AlphaStable(1.2, 0, 1, 0), 1.0) == pytest.approx(np.exp(-1.0))
    assert characteristic_function(AlphaStable(1.7, 0.3, 2.0, 1.0), 0.0) == 1.0 + 0.0j
    # alpha = 2: tan(pi) = 0, so the skew term drops and phi(t) = exp(-t^2)
    t = np.linspace(-3, 3, 13)
    phi = characteristic_function(AlphaStable(2.0, 0.7, 1.0, 0.0), t)
    assert np.allclose(phi, np.exp(-t * t), atol=1e-12)


@pytest.mark.parametrize("spec", [
    AlphaStable(1.2, 0.0, 1.0, 0.0),
    AlphaStable(1.5, 0.5, 1.0, 0.0),
    AlphaStable(2.0, 0.0, 1.0, 0.0),
])
def test_empirical_cf_matches_closed_form(spec, rng):
    x = sample(spec, rng, 10**6)
    emp = empirical_characteristic_function(x, CF_GRID)
    ref = characteristic_function(spec, CF_GRID)
    assert np.max(np.abs(emp - ref)) <= 0.01


def test_alpha_one_branch_with_scale_and_location(rng):
    # The alpha = 1 scaling needs the log-gamma correction; validate via the CF.
    spec = AlphaStable(1.0, 0.5, 2.0, 0.3)
    x = sample(spec, rng, 10**6)
    emp = empirical_characteristic_function(x, CF_GRID)
    ref = characteristic_function(spec, CF_GRID)
    assert np.max(np.abs(emp - ref)) <= 0.01


def test_symmetric_spec_sign_balance(rng):
    x = sample(AlphaStable(1.2, 0.0, 1.0, 0.0), rng, 10**6)
    n_pos = int((x > 0).sum())
    m = x.size
    assert abs(n_pos - m / 2) < 3 * np.sqrt(m / 4)  # 3 sigma of Binomial(m, 1/2)


@given(
    alpha=st.floats(0.2, 2.0),
    beta=st.floats(-1.0, 1.0),
    gamma=st.floats(0.1, 5.0),
    delta=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_cf_magnitude_never_exceeds_one(alpha, beta, gamma, delta):
    spec = AlphaStable(alpha, beta, gamma, delta)
    t = np.linspace(-4.0, 4.0, 41)
    assert np.all(np.abs(characteristic_function(spec, t)) <= 1.0 + 1e-12)
