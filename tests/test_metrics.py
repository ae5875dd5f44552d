"""Noise figures, gemellity, and the measurement inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import gaussian, metrics

from oracles import mpmath_inference


def _amplified(gain: float) -> metrics.NoiseFigures:
    state = gaussian.apply(gaussian.amplifier_channel(gain), gaussian.coherent_input(1.0))
    return metrics.noise_figures(state)


def test_db_conversions_round_trip():
    for x in (0.1, 1.0, 3.7):
        assert np.isclose(metrics.linear_from_db(metrics.db_from_linear(x)), x)
    assert metrics.db_from_linear(1.0) == 0.0


def test_noise_figures_validation():
    with pytest.raises(ValueError):
        metrics.NoiseFigures(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        metrics.NoiseFigures(1.0, 1.0, 1.5)


def test_amplifier_noise_figures_closed_form():
    g = 1.23
    fig = _amplified(g)
    assert np.isclose(fig.f_a, 2 * g - 1, atol=1e-12)
    assert np.isclose(fig.f_b, 2 * g - 1, atol=1e-12)
    assert np.isclose(fig.c_ab, 2 * np.sqrt(g * (g - 1)) / (2 * g - 1), atol=1e-12)


@pytest.mark.parametrize("gain", [1.0, 1.5, 2.0, 5.0, 20.0, 50.0])
def test_amplifier_difference_noise_and_gemellity(gain):
    # flux-weighted difference noise of the bare amplifier is 1/(2G-1);
    # the optimal-weight minimum is (sqrt(G) - sqrt(G-1))^2
    fig = _amplified(gain)
    diff = metrics.weighted_difference_noise(fig, gain, gain - 1.0)
    assert abs(diff - 1.0 / (2 * gain - 1.0)) < 1e-10
    gem = metrics.gemellity(fig)
    assert abs(gem - (np.sqrt(gain) - np.sqrt(gain - 1.0)) ** 2) < 1e-10


def test_gemellity_of_uncorrelated_vacuum_is_one():
    fig = metrics.NoiseFigures(1.0, 1.0, 0.0)
    assert metrics.gemellity(fig) == 1.0
    assert metrics.db_from_linear(metrics.gemellity(fig)) == 0.0


def test_weighted_difference_noise_power_validation():
    fig = metrics.NoiseFigures(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        metrics.weighted_difference_noise(fig, -0.1, 0.5)
    with pytest.raises(ValueError):
        metrics.weighted_difference_noise(fig, 0.0, 0.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"power p_b must be finite, got {value}"):
            metrics.weighted_difference_noise(fig, 0.5, value)
        with pytest.raises(ValueError, match=f"power p_a must be finite, got {value}"):
            metrics.infer_from_measurement(-1.0, 3.0, 2.0, value, 0.35)


def test_zero_conjugate_power_reads_probe_noise():
    fig = metrics.NoiseFigures(1.46, 1.46, 0.9)
    assert metrics.weighted_difference_noise(fig, 1.0, 0.0) == fig.f_a


_figures = st.builds(
    metrics.NoiseFigures,
    st.floats(min_value=0.2, max_value=30.0),
    st.floats(min_value=0.2, max_value=30.0),
    st.floats(min_value=-0.99, max_value=0.99),
)


@settings(max_examples=200, deadline=None)
@given(_figures)
def test_optimal_weights_attain_the_gemellity(fig):
    # the power fractions at which the weighted difference noise is least;
    # with equal figures and no correlation, any split is
    fa, fb, c = fig.f_a, fig.f_b, fig.c_ab
    root = math.sqrt(c * c * fa * fb + ((fa - fb) / 2.0) ** 2)
    p_a = (root + (fb - fa) / 2.0) / (2.0 * root) if root else 0.5
    p_b = 1.0 - p_a
    assert p_a >= 0 and p_b >= 0 and np.isclose(p_a + p_b, 1.0)
    # negative correlations are recovered by the summing analyzer,
    # which maps to |c| in the weighted expression
    trial = fig if fig.c_ab >= 0 else metrics.NoiseFigures(fig.f_a, fig.f_b, -fig.c_ab)
    gem = metrics.gemellity(fig)
    assert metrics.weighted_difference_noise(trial, p_a, p_b) <= gem + 1e-9
    # no grid point does better
    for q in np.linspace(0.001, 0.999, 41):
        assert metrics.weighted_difference_noise(trial, q, 1 - q) >= gem - 1e-9


def test_inference_paper_splitting_case():
    # frozen inversion oracle: -1.0 dB difference, +3/+2 dB beams, 65/35 split
    res = metrics.infer_from_measurement(-1.0, 3.0, 2.0, 0.65, 0.35)
    assert abs(res.figures.c_ab - 0.6232747649000877) < 1e-12
    assert abs(res.gemellity - 0.6628886671021839) < 1e-12
    assert abs(res.gemellity_db - (-1.785594057178107)) < 1e-12


def test_inference_high_gain_case():
    # frozen inversion oracle: -9.2 dB difference, +12/+12 dB beams,
    # fluxes G/(2G-1) and (G-1)/(2G-1) at G = 20
    res = metrics.infer_from_measurement(-9.2, 12.0, 12.0, 20 / 39, 19 / 39)
    assert abs(res.figures.c_ab - 0.9927406226220427) < 1e-12
    assert abs(res.gemellity_db - (-9.391006262576193)) < 1e-12


def test_inference_is_exact_under_power_of_two_scalings_of_the_powers():
    # the powers are scaled to below 1 by a power of two, so a common factor
    # changes no bit, up to the float maximum, where products would overflow
    want = metrics.infer_from_measurement(-1.0, 3.0, 2.0, 0.65, 0.35)
    for k in (-1000, -3, 0, 7, 1020):
        p_a, p_b = math.ldexp(0.65, k), math.ldexp(0.35, k)
        assert metrics.infer_from_measurement(-1.0, 3.0, 2.0, p_a, p_b) == want
    huge = metrics.infer_from_measurement(-1.0, 3.0, 2.0, 1.7e308, 1.7e308 * 0.35 / 0.65)
    assert huge.figures.c_ab == pytest.approx(want.figures.c_ab, rel=1e-15)


# (difference, F_a, F_b) in dB and the powers; with equal figures and
# powers the gemellity is the difference noise, 1 - C_ab about 10^(-F/10)
_BALANCED = [(-3.0, f, f, 0.5, 0.5) for f in (0.0, 40.0, 100.0, 160.0, 1540.0, 3000.0, 3082.5)]


@pytest.mark.parametrize(
    "measured",
    [
        *_BALANCED,
        # figures far below the SQL, the last of them the least subnormal
        *((f - 3.0, f, f, 0.5, 0.5) for f in (-3000.0, -3070.0, -3233.0)),
        (-9.2, 12.0, 12.0, 20 / 39, 19 / 39),  # the paper's -9.2 dB point
        (-1.0, 3.0, 2.0, 0.65, 0.35),
        (-2.99925577872, 3.87608261068, 3.75084408173, 1.62, 0.68),  # the golden traces
    ],
    ids=lambda measured: "_".join(f"{x:g}" for x in measured[:3]),
)
def test_inference_matches_an_mpmath_reference(measured):
    # a + b - 2 sqrt(ab) cancelled to 1 - C_ab, and the gemellity cancelled
    # once more: -2.99999094847 dB at 100 dB, 0 and exit 2 from 160 dB on,
    # and C_ab = 0 with an infinite gemellity at 3082.5 dB.  The reference
    # reads the same linear figures, so the rounding of the dB conversion,
    # which grows with |dB|, is not counted.
    res = metrics.infer_from_measurement(*measured)
    linear = [metrics.linear_from_db(x) for x in measured[:3]]
    c, g, g_db = mpmath_inference(*linear, *measured[3:])
    assert abs(res.figures.c_ab - c) <= 2.5e-16
    assert abs(res.gemellity - g) <= 2e-15 * g
    # and the rounding of the dB value itself, half an ulp of it
    assert abs(res.gemellity_db - g_db) <= 1e-14 + 1.2e-16 * abs(g_db)


@pytest.mark.parametrize(
    "measured, error, message",
    [
        # a difference noise whose linear value rounds to the bound
        # (sqrt F_a - sqrt F_b)^2 leaves C_ab = 1 and a gemellity of 0
        (
            (-3.010299956639812, 6.020599913279624, 0.0),
            RuntimeError,
            "the inferred gemellity at C_ab = 1 is 0, with no dB value "
            "(difference -3.0103 dB, F_a 6.0206 dB, F_b 0 dB)",
        ),
        (
            (0.0, -3000.0, 3000.0),
            RuntimeError,
            "the beams' noise powers lie too far apart for a correlation "
            "(difference 0 dB, F_a -3000 dB, F_b 3000 dB)",
        ),
        (
            (0.0, 0.0, 3090.0),
            ValueError,
            "a measured figure has no positive finite linear value (difference 0 dB, F_a 0 dB, F_b 3090 dB)",
        ),
        (
            (-3300.0, 0.0, 0.0),
            ValueError,
            "a measured figure has no positive finite linear value (difference -3300 dB, F_a 0 dB, F_b 0 dB)",
        ),
        (
            (0.0, math.nan, 0.0),
            ValueError,
            "a measured figure has no positive finite linear value (difference 0 dB, F_a nan dB, F_b 0 dB)",
        ),
    ],
    ids=["C_ab_1", "far_apart", "overflow", "underflow", "nan"],
)
def test_inference_names_what_it_cannot_represent(measured, error, message):
    with pytest.raises(error) as exc:
        metrics.infer_from_measurement(*measured, 0.5, 0.5)
    assert str(exc.value) == message


def test_inference_of_shot_noise_is_trivial():
    res = metrics.infer_from_measurement(0.0, 0.0, 0.0, 0.5, 0.5)
    assert abs(res.figures.c_ab) < 1e-12
    assert abs(res.gemellity - 1.0) < 1e-12


def test_inference_rejects_inconsistent_inputs():
    # lopsided powers at shot noise cannot yield -30 dB in the difference
    with pytest.raises(ValueError):
        metrics.infer_from_measurement(-30.0, 0.0, 0.0, 0.9, 0.1)
    with pytest.raises(ValueError):
        metrics.infer_from_measurement(-1.0, 3.0, 2.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.01, max_value=20.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_inference_round_trips_states(gain, ta, tb):
    """Figures measured on a simulated state invert back exactly."""
    channel = gaussian.compose(
        gaussian.loss_channel(ta, tb), gaussian.amplifier_channel(gain)
    )
    state = gaussian.apply(channel, gaussian.coherent_input(1.0))
    fig = metrics.noise_figures(state)
    p_a = abs(state.mean[0]) ** 2
    p_b = abs(state.mean[1]) ** 2
    diff_db = metrics.db_from_linear(metrics.weighted_difference_noise(fig, p_a, p_b))
    res = metrics.infer_from_measurement(
        diff_db,
        metrics.db_from_linear(fig.f_a),
        metrics.db_from_linear(fig.f_b),
        p_a,
        p_b,
    )
    assert abs(res.figures.c_ab - fig.c_ab) < 1e-9
    assert abs(res.gemellity - metrics.gemellity(fig)) < 1e-9
