import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dakit import (
    DesignError,
    n_opt_from_losses,
    n_opt_from_params,
    power_gain_lossless,
    power_gain_lossy,
    recommended_n,
    voltage_gain,
)


def test_voltage_gain():
    assert math.isclose(voltage_gain(0.05, 50.0, 4), 5.0, rel_tol=1e-12)


def test_power_gain_lossless():
    gp = power_gain_lossless(0.05, 50.0, 50.0, 4)
    assert math.isclose(gp, 0.05**2 * 50.0 * 50.0 * 16 / 4.0, rel_tol=1e-12)
    assert math.isclose(gp, 25.0, rel_tol=1e-12)


def test_power_gain_lossless_quadratic_in_n():
    g1 = power_gain_lossless(0.05, 50.0, 50.0, 1)
    for n in (2, 3, 5, 8):
        assert math.isclose(power_gain_lossless(0.05, 50.0, 50.0, n), n * n * g1, rel_tol=1e-12)


def test_power_gain_lossy_value():
    gp = power_gain_lossy(0.05, 50.0, 50.0, 0.2, 0.05, 4)
    assert math.isclose(gp, 12.144928644574547, rel_tol=1e-12)
    assert math.isclose(10 * math.log10(gp), 10.843949675266114, rel_tol=1e-12)


def test_power_gain_lossy_reduces_to_lossless():
    lossy = power_gain_lossy(0.05, 50.0, 50.0, 0.0, 0.0, 4)
    lossless = power_gain_lossless(0.05, 50.0, 50.0, 4)
    assert math.isclose(lossy, lossless, rel_tol=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.floats(1e-60, 1e60),
    st.floats(1e-60, 1e60),
    st.floats(1e-60, 1e60),
    st.integers(1, 10**6),
)
def test_power_gain_lossless_is_the_closed_form_bit_for_bit(gm, z0g, z0d, n):
    # the lossy form at zero loss divides by 4 before multiplying by n^2,
    # which is exact while every product is a normal float, as here
    closed = gm * gm * z0g * z0d * n * n / 4.0
    assert power_gain_lossless(gm, z0g, z0d, n).hex() == closed.hex()
    assert power_gain_lossy(gm, z0g, z0d, 0.0, 0.0, n).hex() == closed.hex()


def test_power_gain_lossy_equal_loss_branch():
    # the a_g == a_d limit must match the generic expression approached from nearby
    exact = power_gain_lossy(0.05, 50.0, 50.0, 0.1, 0.1, 5)
    near = power_gain_lossy(0.05, 50.0, 50.0, 0.1, 0.1 + 1e-9, 5)
    assert math.isclose(exact, near, rel_tol=1e-6)
    expected = power_gain_lossless(0.05, 50.0, 50.0, 5) * math.exp(-2 * 4 * 0.1)
    assert math.isclose(exact, expected, rel_tol=1e-12)


def test_power_gain_lossy_below_lossless():
    # a single stage has no line between stages, so n = 1 loses nothing
    assert math.isclose(
        power_gain_lossy(0.05, 50.0, 50.0, 0.3, 0.1, 1),
        power_gain_lossless(0.05, 50.0, 50.0, 1),
        rel_tol=1e-12,
    )
    rng = random.Random(53)
    for _ in range(200):
        gm = rng.uniform(0.005, 0.2)
        ag = rng.uniform(1e-4, 0.5)
        ad = rng.uniform(1e-4, 0.5)
        n = rng.randint(2, 10)
        lossy = power_gain_lossy(gm, 50.0, 50.0, ag, ad, n)
        lossless = power_gain_lossless(gm, 50.0, 50.0, n)
        assert lossy < lossless


def test_n_opt_from_losses_value():
    assert math.isclose(n_opt_from_losses(0.2, 0.05), 9.241962407465936, rel_tol=1e-12)


def test_n_opt_from_losses_equal_losses():
    assert math.isclose(n_opt_from_losses(0.1, 0.1), 10.0, rel_tol=1e-12)


def test_n_opt_from_losses_lossless_is_unbounded():
    assert n_opt_from_losses(0.0, 0.05) == math.inf
    assert n_opt_from_losses(0.2, 0.0) == math.inf
    assert n_opt_from_losses(0.0, 0.0) == math.inf


def test_n_opt_symmetric():
    assert math.isclose(n_opt_from_losses(0.05, 0.2), n_opt_from_losses(0.2, 0.05), rel_tol=1e-12)


def test_n_opt_from_params_value():
    n = n_opt_from_params(2e9, 1.0, 1.79e-12, 200.0, 50.0)
    assert math.isclose(n, 20.38895214361596, rel_tol=1e-12)


def test_n_opt_routes_agree():
    # computing from device parameters must reproduce the per-cell-loss route
    from dakit import drain_loss_per_cell, gate_loss_per_cell

    rng = random.Random(61)
    for _ in range(300):
        f = 10 ** rng.uniform(8, 10.5)
        ri = rng.uniform(0.1, 20)
        cgs = 10 ** rng.uniform(-13.5, -11.8)
        rds = rng.uniform(30, 3000)
        z0 = rng.uniform(20, 120)
        via_params = n_opt_from_params(f, ri, cgs, rds, z0)
        via_losses = n_opt_from_losses(
            gate_loss_per_cell(f, ri, cgs, z0), drain_loss_per_cell(z0, rds)
        )
        assert math.isclose(via_params, via_losses, rel_tol=1e-9)


def test_n_opt_maximizes_gain_over_integers():
    ag, ad = 0.2, 0.05
    n_star = n_opt_from_losses(ag, ad)
    best = max(range(1, 31), key=lambda n: power_gain_lossy(0.05, 50.0, 50.0, ag, ad, n))
    assert abs(best - n_star) <= 0.5


def test_recommended_n_rounds_and_clamps():
    assert recommended_n(4.4) == 4
    assert recommended_n(4.5) == 5
    assert recommended_n(1.2) == 3
    assert recommended_n(40.0) == 6
    assert recommended_n(math.inf) == 6


def test_argument_validation():
    with pytest.raises(DesignError):
        voltage_gain(0.05, 50.0, 0)
    with pytest.raises(DesignError):
        power_gain_lossless(0.05, 50.0, 50.0, 2.5)  # type: ignore[arg-type]
    with pytest.raises(DesignError, match="stage count"):
        voltage_gain(0.05, 50.0, True)
    with pytest.raises(DesignError):
        power_gain_lossy(0.05, 50.0, 50.0, -0.1, 0.05, 4)
    with pytest.raises(DesignError):
        n_opt_from_losses(-0.1, 0.05)
    with pytest.raises(DesignError):
        n_opt_from_params(2e9, 1.0, 1.79e-12, math.inf, 50.0)
    with pytest.raises(DesignError):
        recommended_n(0.0)
    with pytest.raises(DesignError):
        n_opt_from_params(2e9, 1.0, 1.79e-12, math.nan, 50.0)
    for bad in (math.nan, math.inf):
        calls = [
            (voltage_gain, (bad, 50.0, 4)),
            (voltage_gain, (0.05, bad, 4)),
            (power_gain_lossless, (bad, 50.0, 50.0, 4)),
            (power_gain_lossless, (0.05, 50.0, bad, 4)),
            (power_gain_lossy, (0.05, bad, 50.0, 0.1, 0.05, 4)),
            (power_gain_lossy, (0.05, 50.0, 50.0, bad, 0.05, 4)),
            (power_gain_lossy, (0.05, 50.0, 50.0, 0.1, bad, 4)),
            (n_opt_from_losses, (bad, 0.05)),
            (n_opt_from_losses, (0.1, bad)),
            (n_opt_from_params, (bad, 1.0, 1.79e-12, 200.0, 50.0)),
            (n_opt_from_params, (2e9, bad, 1.79e-12, 200.0, 50.0)),
            (n_opt_from_params, (2e9, 1.0, bad, 200.0, 50.0)),
            (n_opt_from_params, (2e9, 1.0, 1.79e-12, 200.0, bad)),
        ]
        for func, args in calls:
            with pytest.raises(DesignError):
                func(*args)
