"""Noise figures, gemellity, and the measurement inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import gaussian, metrics


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
