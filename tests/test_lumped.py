"""Closed-form cascade vs channel composition, and the constrained optimum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import cli, lumped, metrics

from oracles import cascade_state

ROOT5 = np.sqrt(5.0)


def test_config_validation():
    with pytest.raises(ValueError):
        lumped.LumpedConfig(0.99, 1.0, 1.0)
    with pytest.raises(ValueError):
        lumped.LumpedConfig(1.5, 1.2, 1.0)
    with pytest.raises(ValueError):
        lumped.LumpedConfig(1.5, 1.0, -0.1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_cascade_matches_channel_composition(g, ta, tb):
    config = lumped.LumpedConfig(g, ta, tb)
    res = lumped.cascade(config)
    state = cascade_state(config)
    fig = metrics.noise_figures(state)
    assert res.figures.f_a == pytest.approx(fig.f_a, abs=1e-12)
    assert res.figures.f_b == pytest.approx(fig.f_b, abs=1e-12)
    assert res.figures.c_ab == pytest.approx(fig.c_ab, abs=1e-12)
    assert res.probe_flux == pytest.approx(abs(state.mean[0]) ** 2, abs=1e-12)
    assert res.conj_flux == pytest.approx(abs(state.mean[1]) ** 2, abs=1e-12)


def test_cascade_regression_near_unit_transmission():
    res = lumped.cascade(lumped.LumpedConfig(1.23, 0.626, 1.0))
    assert res.figures.f_a == pytest.approx(1.28796, abs=1e-12)
    assert res.figures.f_b == pytest.approx(1.46, abs=1e-12)
    assert res.total_transmission == pytest.approx(0.99998, abs=1e-12)
    assert res.gemellity == pytest.approx(0.5279415609205454, abs=1e-12)


def test_cascade_without_loss_reproduces_amplifier_difference_noise():
    for g in (1.5, 2.0, 5.0):
        res = lumped.cascade(lumped.LumpedConfig(g, 1.0, 1.0))
        assert res.diff_noise == pytest.approx(1.0 / (2.0 * g - 1.0), abs=1e-12)


def test_cascade_with_dark_conjugate_reports_probe_figure():
    res = lumped.cascade(lumped.LumpedConfig(2.0, 0.7, 0.0))
    assert res.conj_flux == 0.0
    assert res.diff_noise == pytest.approx(res.figures.f_a, abs=1e-12)


def test_probe_attenuation_has_an_interior_optimum():
    # trimming the brighter probe balances the pair and lowers the
    # flux-weighted difference noise below the untouched value
    tas = np.linspace(0.3, 1.0, 141)
    curve = np.array(
        [lumped.cascade(lumped.LumpedConfig(1.23, float(ta), 1.0)).diff_noise for ta in tas]
    )
    k = int(np.argmin(curve))
    assert 0 < k < len(tas) - 1
    assert curve[k] < curve[-1] - 1e-4
    assert curve[k] < curve[0] - 1e-4


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_unit_transmission_constraint_holds_when_feasible(g, tb):
    try:
        ta = lumped.constrain_unit_transmission(g, tb)
    except ValueError:
        assert 1.0 - tb * (g - 1.0) < 0.0
        return
    assert 0.0 <= ta <= 1.0
    assert ta * g + tb * (g - 1.0) == pytest.approx(1.0, abs=1e-9)


def test_unit_transmission_constraint_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lumped.constrain_unit_transmission(0.9, 1.0)
    with pytest.raises(ValueError):
        lumped.constrain_unit_transmission(2.0, 1.5)
    with pytest.raises(ValueError):
        # would need a negative probe transmission
        lumped.constrain_unit_transmission(5.0, 0.5)


@pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_gain(gain):
    # a nan gain used to give a nan gemellity
    with pytest.raises(ValueError, match=f"^gain must be finite, got {gain}$"):
        lumped.LumpedConfig(gain, 0.5, 0.5)


@pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf])
def test_unit_transmission_constraint_rejects_a_non_finite_gain(gain):
    with pytest.raises(ValueError, match=f"^gain must be finite, got {gain}$"):
        lumped.constrain_unit_transmission(gain, 0.5)


def test_optimizer_finds_the_analytic_optimum():
    res = lumped.optimize_unit_transmission()
    # exact optimum: gain sqrt(5)-1, probe transmission (sqrt(5)-1)/2,
    # conjugate transmission 1, gemellity 5 - 2 sqrt(5)
    assert abs(res.config.gain - (ROOT5 - 1.0)) <= 1e-15
    assert abs(res.config.probe_transmission - (ROOT5 - 1.0) / 2.0) <= 1e-15
    assert res.config.conj_transmission == 1.0
    assert abs(res.gemellity - (5.0 - 2.0 * ROOT5)) <= 1e-15
    assert res.gemellity_db == pytest.approx(-2.77477918581927, abs=1e-12)
    assert res.interior_in_gain is True
    assert res.conj_at_boundary is True


def test_no_point_of_a_dense_scan_beats_the_optimum():
    # the cascade formulas written out again, over G in [1, 3] and
    # T_b in [0, 1]; the gemellity is the smaller eigenvalue of the
    # 2x2 amplitude covariance [[F_a, C], [C, F_b]]
    g = np.linspace(1.0, 3.0, 2001)[:, None]
    tb = np.linspace(0.0, 1.0, 1001)[None, :]
    ta = (1.0 - tb * (g - 1.0)) / g
    feasible = (ta >= 0.0) & (ta <= 1.0)
    ta = np.clip(ta, 0.0, 1.0)
    f_a = ta * (2.0 * g - 1.0) + 1.0 - ta
    f_b = tb * (2.0 * g - 1.0) + 1.0 - tb
    cov = 2.0 * np.sqrt(ta * tb * g * (g - 1.0))
    gem = (f_a + f_b) / 2.0 - np.sqrt(cov**2 + ((f_a - f_b) / 2.0) ** 2)
    gem = np.where(feasible, gem, np.inf)
    best = lumped.optimize_unit_transmission()
    assert gem.min() >= best.gemellity
    # the scan is fine enough to come close, at the same corner
    assert gem.min() - best.gemellity < 1e-7
    i, j = np.unravel_index(np.argmin(gem), gem.shape)
    assert abs(g[i, 0] - best.config.gain) < 1e-3
    assert tb[0, j] == 1.0


def test_lumped_optimize_prints_the_exact_digits(capsys):
    assert cli.main(["lumped-optimize"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1.2360679775,0.61803398875,1,0.527864045,-2.77477918582"
    )
