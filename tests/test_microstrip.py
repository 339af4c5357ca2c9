import math
import random

import pytest

from dakit import (
    GeometryError,
    MicrostripLine,
    Substrate,
    line_constants,
    phase_shift,
    segment_length,
    synthesize_strip,
    width_for,
    z0_of,
)


def test_width_for_fr4_50_ohm(fr4):
    w = width_for(50.0, fr4)
    assert math.isclose(w, 2.949272508744283, rel_tol=1e-12)


def test_z0_width_round_trip(fr4):
    w = width_for(50.0, fr4)
    res = z0_of(w, fr4)
    assert math.isclose(res.z0, 50.0, rel_tol=1e-12)
    assert res.valid


def test_round_trip_over_parameter_grid():
    rng = random.Random(41)
    for _ in range(300):
        sub = Substrate(
            er=rng.uniform(2.2, 10.2),
            h_mm=rng.uniform(0.2, 1.6),
            t_mm=rng.uniform(0.0, 0.07),
        )
        z0 = rng.uniform(30.0, 90.0)
        try:
            w = width_for(z0, sub)
        except GeometryError:
            # thin high-er substrates cannot realize high impedances
            continue
        assert math.isclose(z0_of(w, sub).z0, z0, rel_tol=1e-9)


def test_width_for_rejects_unrealizable():
    sub = Substrate(er=10.2, h_mm=0.2, t_mm=0.07)
    with pytest.raises(GeometryError):
        width_for(90.0, sub)


def test_validity_window_flag(fr4):
    narrow = z0_of(0.1 * fr4.h_mm * 0.5, fr4)
    assert not narrow.valid
    wide = z0_of(3.0 * fr4.h_mm * 2.0, fr4)
    assert not wide.valid
    mid = z0_of(fr4.h_mm, fr4)
    assert mid.valid


def test_line_constants_fr4():
    lpc, cpc = line_constants(50.0, 4.4)
    assert math.isclose(lpc, 2.770567998435391, rel_tol=1e-12)
    assert math.isclose(cpc, 1.1082271993741564, rel_tol=1e-12)
    assert math.isclose(cpc, 1000.0 * lpc / 50.0**2, rel_tol=1e-12)


def test_segment_length():
    lpc, _ = line_constants(50.0, 4.4)
    length = segment_length(4.475e-9, lpc)
    assert math.isclose(length, 1.6151922647367414, rel_tol=1e-12)


def test_phase_shift():
    lpc, cpc = line_constants(50.0, 4.4)
    length = segment_length(4.475e-9, lpc)
    theta = phase_shift(length, 1e9, lpc, cpc)
    assert math.isclose(theta, 0.562345084992573, rel_tol=1e-12)


def test_phase_shift_linear_in_length_and_frequency():
    lpc, cpc = line_constants(50.0, 4.4)
    base = phase_shift(1.0, 1e9, lpc, cpc)
    assert math.isclose(phase_shift(2.0, 1e9, lpc, cpc), 2 * base, rel_tol=1e-12)
    assert math.isclose(phase_shift(1.0, 3e9, lpc, cpc), 3 * base, rel_tol=1e-12)


def test_synthesize_strip(fr4):
    strip = synthesize_strip(50.0, fr4, 4.475e-9)
    assert isinstance(strip, MicrostripLine)
    assert math.isclose(strip.width_mm, 2.949272508744283, rel_tol=1e-12)
    assert math.isclose(strip.length_cm, 1.6151922647367414, rel_tol=1e-12)
    assert strip.z0 == 50.0
    # totals recover the lumped element the strip was sized for
    assert math.isclose(strip.l_nh_per_cm * strip.length_cm * 1e-9, 4.475e-9, rel_tol=1e-12)


def test_microstrip_line_consistency_enforced(fr4):
    with pytest.raises(GeometryError):
        MicrostripLine(
            width_mm=2.9,
            length_cm=1.6,
            substrate=fr4,
            z0=50.0,
            l_nh_per_cm=2.77,
            c_pf_per_cm=5.0,
        )


@pytest.mark.parametrize("bad", [True, "1", None])
def test_z0_of_refuses_non_numbers(fr4, bad):
    # a bool passed "0 < w < inf" as a 1 mm strip; a str raised TypeError
    assert z0_of(1, fr4) == z0_of(1.0, fr4)
    with pytest.raises(GeometryError, match="width"):
        z0_of(bad, fr4)


def test_argument_validation(fr4):
    with pytest.raises(GeometryError):
        z0_of(-1.0, fr4)
    with pytest.raises(GeometryError):
        width_for(0.0, fr4)
    with pytest.raises(GeometryError):
        segment_length(1e-9, 0.0)
    for bad in (math.nan, math.inf):
        calls = [
            (z0_of, (bad, fr4)),
            (width_for, (bad, fr4)),
            (line_constants, (bad, 4.4)),
            (line_constants, (50.0, bad)),
            (segment_length, (bad, 2.77)),
            (segment_length, (1e-9, bad)),
            (phase_shift, (bad, 1e9, 2.77, 1.1)),
            (phase_shift, (1.0, bad, 2.77, 1.1)),
            (phase_shift, (1.0, 1e9, bad, 1.1)),
            (phase_shift, (1.0, 1e9, 2.77, bad)),
            (synthesize_strip, (50.0, fr4, bad)),
        ]
        for func, args in calls:
            with pytest.raises(GeometryError):
                func(*args)
        with pytest.raises(GeometryError):
            MicrostripLine(
                width_mm=bad,
                length_cm=1.6,
                substrate=fr4,
                z0=50.0,
                l_nh_per_cm=2.77,
                c_pf_per_cm=1.108,
            )
