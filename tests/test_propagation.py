"""Exact segment maps against closed forms and the slab oracle, the
closed-form pair maps of the search against the pair engine and a
60-digit reference, the search objective bit for bit against its
helper-call form, the pair engine on atomic generators against an
80-digit reference, slab propagation (exact on pure segments,
second-order splitting), coupling-generator channels, the
beyond-the-lumped-limit search, and profile files."""

import dataclasses
import itertools
import math
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twinbeam import atomic, cli, gaussian, lumped, propagation
from twinbeam.configio import angular_from_mhz
from twinbeam.metrics import noise_figures
from twinbeam.propagation import Slab, SlabProfile

from oracles import (
    check_pair_cp,
    exact_channel,
    exact_state,
    lift,
    mpmath_pair_maps,
    output_state,
    pair_compose,
    pair_cp_defect,
    pair_objective,
    search_beyond_lumped_limit,
    slab_state,
)


def test_slab_validation():
    with pytest.raises(ValueError):
        Slab(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, 0.0, 0.0, -1.0)


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("field", ["dz", "g", "alpha_a", "alpha_b"])
def test_slab_rejects_non_finite_fields(field, value):
    # a nan gain used to construct, and then warn in propagate_exact
    kwargs = {"dz": 0.5, "g": 1.0, "alpha_a": 0.0, "alpha_b": 0.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        Slab(**kwargs)


def test_profile_requires_slabs_and_sums_lengths():
    with pytest.raises(ValueError):
        SlabProfile(())
    slabs = [Slab(0.25, 0.0, 0.0, 0.0), Slab(0.75, 1.0, 0.0, 0.0)]
    assert SlabProfile(slabs).slabs == tuple(slabs)


def test_slab_channel_rejects_large_squeeze():
    with pytest.raises(ValueError):
        propagation.slab_channel(Slab(1.0, 0.6, 0.0, 0.0))


def test_pure_gain_segment_is_exact():
    slab = Slab(0.25, 1.2, 0.0, 0.0)
    ch = propagation.slab_channel(slab)
    ref = gaussian.amplifier_channel(float(np.cosh(0.3) ** 2))
    np.testing.assert_allclose(ch.transfer, ref.transfer, atol=1e-14)
    np.testing.assert_allclose(ch.added_noise, ref.added_noise, atol=1e-14)
    # squeeze parameters add, so subdividing changes nothing beyond
    # floating-point roundoff of the repeated composition
    a = propagation.propagate(SlabProfile((slab,)), subdivisions=1)
    b = propagation.propagate(SlabProfile((slab,)), subdivisions=64)
    assert a.gemellity == pytest.approx(b.gemellity, abs=1e-12)
    assert a.g_a == pytest.approx(b.g_a, abs=1e-12)


def test_pure_loss_segment_is_exact():
    slab = Slab(0.5, 0.0, 1.4, 0.8)
    res = propagation.propagate(SlabProfile((slab,)), subdivisions=7)
    assert res.g_a == pytest.approx(np.exp(-1.4 * 0.5), abs=1e-13)
    assert res.g_b == 0.0
    # loss on a coherent seed leaves vacuum noise
    np.testing.assert_allclose(slab_state(SlabProfile((slab,)), 7).cov, np.eye(4), atol=1e-12)


def test_loss_then_gain_is_flux_neutral_with_ideal_correlations():
    # attenuate the probe to sech(2r) upstream, then squeeze by r: the
    # total flux returns to one while the pair keeps the full two-mode
    # correlation, so the gemellity is exp(-2r)
    r = 0.75
    profile = SlabProfile(
        (
            Slab(0.5, 0.0, 2.0 * np.log(np.cosh(2.0 * r)), 0.0),
            Slab(0.5, 2.0 * r, 0.0, 0.0),
        )
    )
    res = propagation.propagate(profile, subdivisions=4)
    assert res.sum_transmission == pytest.approx(1.0, abs=1e-12)
    assert res.g_a == pytest.approx(np.cosh(r) ** 2 / np.cosh(2.0 * r), abs=1e-12)
    assert res.g_b == pytest.approx(np.sinh(r) ** 2 / np.cosh(2.0 * r), abs=1e-12)
    assert res.gemellity == pytest.approx(np.exp(-2.0 * r), abs=1e-12)
    # both segments are pure, so any subdivision gives the same answer
    again = propagation.propagate(profile, subdivisions=32)
    assert again.gemellity == pytest.approx(res.gemellity, abs=1e-13)


def test_mixed_slab_error_is_second_order_in_width():
    profile = SlabProfile((Slab(1.0, 0.8, 0.5, 0.3),))
    ref = propagation.propagate(profile, subdivisions=8192).gemellity
    errs = [
        abs(propagation.propagate(profile, subdivisions=n).gemellity - ref)
        for n in (32, 64, 128)
    ]
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_propagate_validates_subdivisions():
    profile = SlabProfile((Slab(1.0, 0.1, 0.0, 0.0),))
    with pytest.raises(ValueError):
        propagation.propagate(profile, subdivisions=0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.5),
            st.floats(min_value=0.0, max_value=3.0),
            st.floats(min_value=0.0, max_value=3.0),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_propagation_always_yields_a_physical_state(raw):
    profile = SlabProfile(tuple(Slab(*r) for r in raw))
    assert gaussian.uncertainty_defect(slab_state(profile, 8)) > -1e-9


def test_coupling_generator_reproduces_two_mode_squeezer():
    k = 0.6
    block = np.array([[0.0, k], [k, 0.0]], dtype=complex)
    res = propagation.propagate_coupling(block)
    assert res.g_a == pytest.approx(np.cosh(k) ** 2, abs=1e-10)
    assert res.g_b == pytest.approx(np.sinh(k) ** 2, abs=1e-10)
    assert res.gemellity == pytest.approx(np.exp(-2.0 * k), abs=1e-10)


def test_coupling_generator_reproduces_probe_loss():
    alpha = 1.1
    block = np.array([[-alpha / 2.0, 0.0], [0.0, 0.0]], dtype=complex)
    res = propagation.propagate_coupling(block)
    assert res.g_a == pytest.approx(np.exp(-alpha), abs=1e-10)
    assert res.g_b == 0.0
    np.testing.assert_allclose(output_state(exact_channel(block)).cov, np.eye(4), atol=1e-10)


def test_phase_only_generator_adds_no_noise():
    block = np.array([[0.4j, 0.0], [0.0, -0.9j]])
    res = propagation.propagate_coupling(block)
    assert res.g_a == pytest.approx(1.0, abs=1e-12)
    assert res.figures.f_a == pytest.approx(1.0, abs=1e-12)
    assert res.figures.f_b == pytest.approx(1.0, abs=1e-12)


def test_coupling_propagation_validates_arguments():
    with pytest.raises(ValueError):
        propagation.propagate_coupling(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        propagation.coupling_slab_channel(np.zeros((3, 3)), 0.1)


def test_exact_pure_gain_segment_matches_the_amplifier():
    # the second segment has g dz = 7.85, far beyond what one slab may carry
    for slab in (Slab(0.25, 1.2, 0.0, 0.0), Slab(0.5, 15.704219186527428, 0.0, 0.0)):
        r = slab.g * slab.dz
        block = np.array([[0.0, slab.g], [slab.g, 0.0]])
        ch = exact_channel(block, slab.dz)
        ref = gaussian.amplifier_channel(float(np.cosh(r) ** 2))
        np.testing.assert_allclose(ch.transfer, ref.transfer, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            ch.added_noise, 0.0, atol=1e-13 * np.abs(ch.transfer).max() ** 2
        )
        res = propagation.propagate_exact(SlabProfile((slab,)))
        assert res.g_a == pytest.approx(np.cosh(r) ** 2, rel=1e-13)
        assert res.g_b == pytest.approx(np.sinh(r) ** 2, rel=1e-13)
        # the gemellity cancels two fluxes of size cosh^2 r, so its
        # absolute rounding grows with them
        assert res.gemellity == pytest.approx(np.exp(-2.0 * r), abs=1e-15 * np.cosh(r) ** 2)


def test_exact_pure_loss_segment_matches_the_beamsplitter():
    for slab in (Slab(0.5, 0.0, 1.4, 0.8), Slab(1.0, 0.0, 20.0, 3.0)):
        ta, tb = np.exp(-slab.alpha_a * slab.dz), np.exp(-slab.alpha_b * slab.dz)
        block = np.diag([-slab.alpha_a / 2.0, -slab.alpha_b / 2.0])
        ch = exact_channel(block, slab.dz)
        ref = gaussian.loss_channel(ta, tb)
        np.testing.assert_allclose(ch.transfer, ref.transfer, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(ch.added_noise, ref.added_noise, rtol=1e-13, atol=1e-15)
        res = propagation.propagate_exact(SlabProfile((slab,)))
        assert res.g_a == pytest.approx(ta, rel=1e-13)
        assert res.g_b == 0.0
        np.testing.assert_allclose(exact_state(SlabProfile((slab,))).cov, np.eye(4), atol=1e-13)


def test_exact_maps_match_the_lumped_closed_forms():
    # the criterion-5 grid: gain then loss, as in the lumped cascade
    worst = 0.0
    for g in np.linspace(1.0, 2.0, 10):
        for ta in np.linspace(0.1, 1.0, 10):
            for tb in np.linspace(0.1, 1.0, 10):
                ref = lumped.cascade(lumped.LumpedConfig(g, ta, tb))
                profile = SlabProfile(
                    (
                        Slab(0.5, 2.0 * np.arccosh(np.sqrt(g)), 0.0, 0.0),
                        Slab(0.5, 0.0, -2.0 * np.log(ta), -2.0 * np.log(tb)),
                    )
                )
                res = propagation.propagate_exact(profile)
                worst = max(
                    worst,
                    abs(res.figures.f_a - ref.figures.f_a),
                    abs(res.figures.f_b - ref.figures.f_b),
                    abs(res.figures.c_ab - ref.figures.c_ab),
                    abs(res.gemellity - ref.gemellity),
                    abs(res.g_a - ref.probe_flux),
                    abs(res.g_b - ref.conj_flux),
                )
    assert worst <= 1e-12


def _relative_gap(a, b):
    return np.abs(a.cov - b.cov).max() / np.abs(b.cov).max()


def test_slab_squeezer_keeps_the_digits_of_a_small_squeeze():
    # from the gain cosh^2 r = 1 + 1e-18 alone, sinh r would round to 0
    ch = propagation.slab_channel(Slab(1.0, 1e-9, 0.0, 0.0))
    assert ch.transfer[0, 2] == pytest.approx(np.sinh(1e-9), rel=1e-15)
    assert ch.transfer[0, 0] == np.cosh(1e-9)


_GAIN = st.just(0.0) | st.floats(min_value=1e-8, max_value=20.0)
_LOSS = st.floats(min_value=0.0, max_value=20.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_GAIN, _LOSS, _LOSS), min_size=1, max_size=3))
def test_slab_oracle_converges_to_the_exact_map(rates):
    dz = 1.0 / len(rates)
    profile = SlabProfile(tuple(Slab(dz, *r) for r in rates))
    exact = exact_state(profile)
    # start where every slab carries at most a quarter of e-folding
    n = int(4.0 * max(max(r) for r in rates) * dz) + 1
    gaps = [_relative_gap(slab_state(profile, n * 2**j), exact) for j in range(3)]
    # second-order splitting: each doubling cuts the gap by about 4
    assert gaps[1] <= 0.3 * gaps[0] + 1e-10
    assert gaps[2] <= 0.3 * gaps[1] + 1e-10


def test_refinement_converges_on_a_mixed_profile():
    profile = SlabProfile((Slab(1.0, 0.8, 0.5, 0.3),))
    res, doublings = propagation.refine_until_converged(profile)
    assert doublings >= 1
    tight = propagation.propagate(profile, subdivisions=4 * 8 * 2**doublings)
    assert res.gemellity == pytest.approx(tight.gemellity, abs=1e-7)
    exact = propagation.propagate_exact(profile)
    assert res.gemellity == pytest.approx(exact.gemellity, abs=1e-7)


def test_refinement_reports_failure(monkeypatch):
    profile = SlabProfile((Slab(1.0, 0.8, 0.5, 0.3),))
    _, doublings = propagation.refine_until_converged(profile)
    monkeypatch.setattr(propagation, "_REFINE_DOUBLINGS", doublings - 1)
    want = f"^slab refinement did not converge to 1e-08 after {doublings - 1} doublings$"
    with pytest.raises(RuntimeError, match=want):
        propagation.refine_until_converged(profile)


@pytest.mark.parametrize(
    "block",
    [
        np.array([[-0.3 + 0.7j, 0.9 - 0.2j], [0.4 + 0.5j, -1.1 - 0.3j]]),
        # the atomic generator at the default beam-splitter point, rounded
        np.array([[-0.102 - 4.3884j, -0.0197 - 0.8135j], [0.0189 + 0.8136j, 0.0036 + 0.1983j]]),
    ],
)
def test_complex_slab_oracle_converges_to_the_exact_map(block):
    # minimal-noise slabs of a complex generator err to first order in
    # the slab width, so each doubling halves the gap
    exact = exact_channel(block, 1.0)
    gaps = []
    for n in (64, 128, 256):
        slabs = gaussian.compose_power(propagation.coupling_slab_channel(block, 1.0 / n), n)
        np.testing.assert_allclose(slabs.transfer, exact.transfer, atol=1e-12)
        gaps.append(np.abs(slabs.added_noise - exact.added_noise).max())
    assert 0.4 < gaps[1] / gaps[0] < 0.6
    assert 0.4 < gaps[2] / gaps[1] < 0.6


def _mpmath_expm(a: np.ndarray) -> np.ndarray:
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=a.dtype)


def _assert_close_to_exp(got: np.ndarray, a: np.ndarray) -> None:
    """Within 1e-15 max(1, ||a||_1) of the exponential, relative to its
    largest entry: eps-level rounding, grown by the norm."""
    exact = _mpmath_expm(a)
    norm = np.abs(a).sum(axis=0).max()
    assert np.abs(got - exact).max() <= 1e-15 * max(1.0, norm) * np.abs(exact).max()


_PART = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PART, min_size=8, max_size=8), st.floats(min_value=-9.0, max_value=2.5))
@example([0.0] * 8, 0.0)  # B = 0
@example([1, 1, 0, 1, 0, 0, 0, 0], 0.0)  # a Jordan block: h = 0, s = 0
@example([2, 1, -1, 0, 0, 0, 0, 0], 0.0)  # s = 0 with h = 1
@example([0, 1, -1, 0, 0, 0, 0, 0], float(np.log10(np.pi)))  # s = i pi, sinh s = 0
@example([0.5, 0, 0, -0.5, 0, 0, 0, 0], 0.0)  # |s| = 1/2, the branch edge
# the atomic generator at -40.4 MHz on the default medium, rounded: one
# eigenvalue near 0 next to one near -142 - 68i
@example([-0.746, -0.1649, 0.1648, 0.03644, -0.3573, -0.0788, 0.07895, 0.01768], 2.301)
def test_closed_form_2x2_exponential_matches_a_50_digit_reference(parts, log_scale):
    # real parts of b00, b01, b10, b11, then their imaginary parts
    re, im = np.array(parts[:4]), np.array(parts[4:])
    block = (10.0**log_scale * (re + 1j * im)).reshape(2, 2)
    _assert_close_to_exp(propagation._expm2x2(block[None])[0][0], block)


def test_closed_form_2x2_exponential_is_exact_at_zero():
    assert np.array_equal(propagation._expm2x2(np.zeros((1, 2, 2), complex))[0][0], np.eye(2))


def test_closed_form_2x2_exponential_marks_points_beyond_the_float_range():
    # exponents from moderate to far past the float range: no operation
    # overflows (pytest makes the warning an error), a point beyond the range
    # is all inf, and every other point keeps its stack-of-one bits
    rng = np.random.default_rng(12)
    scale = np.logspace(0.0, 3.0, 400)[:, None, None]
    blocks = (rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))) * scale
    e = propagation._expm2x2(blocks)[0]
    over = ~np.isfinite(e).all(axis=(1, 2))
    assert 0 < over.sum() < 400
    assert np.all(e[over] == np.inf)
    for block, got in zip(blocks[~over][::10], e[~over][::10]):
        assert np.array_equal(got, propagation._expm2x2(block[None])[0][0])
        _assert_close_to_exp(got, block)


def test_closed_form_2x2_exponential_takes_blocks_past_the_float_range():
    # |s| past 1e154, where h^2 or b01 b10 overflows: s and t come from h
    # and q over a power of two, and no operation warns (pytest makes that
    # an error)
    big = 10.0 ** np.array([160.0, 200.0, 300.0])[:, None, None]
    damped = big * np.array([[-1.0, 1e-3j], [2e-3, -1.5 + 1j]])  # both exponents about -big
    e = propagation._expm2x2(damped)[0]
    assert np.array_equal(e, np.zeros_like(e))
    growing = big * np.array([[0.5, 1e-3j], [2e-3, -1.5 + 1j]])
    assert np.all(propagation._expm2x2(growing)[0] == np.inf)
    # a stiff block: exponents near 0 and -2^600, so a finite e^B whose
    # entries span 600 binary orders
    stiff = np.array([[0.5j, 2.0**590 * (1 + 1j)], [3.0, -(2.0**600)]])
    got = propagation._expm2x2(stiff[None])[0][0]
    with mpmath.workdps(60):
        exact = np.array(mpmath.expm(mpmath.matrix(stiff.tolist())).tolist(), dtype=complex)
    assert np.all(np.abs(got - exact) <= 1e-15 * np.abs(exact))


@settings(max_examples=200, deadline=None)
@given(st.lists(_PART, min_size=8, max_size=8), st.floats(min_value=-9.0, max_value=2.5))
@example([0.0] * 8, 0.0)  # B = 0, D = 0
@example([1, 1, 0, 1, 0, 0, 0, 0], 0.0)  # a Jordan block: h = 0, s = 0
@example([2, 1, -1, 0, 0, 0, 0, 0], 0.0)  # s = 0 with h = 1
@example([-1, 1, 0, -1, 0, 0.5, 0, 0], 1.5)  # a decaying Jordan block, r = -63
@example([0.5, 0, 0, -0.5, 0, 0, 0, 0], 0.0)  # |s| = 1/2, the branch edge
@example([0.5, 0, 0, -0.5, 0, 0, 0, 0], float(np.log10(1.0 + 1e-15)))  # just past it
@example([0.2, 1e-9, -3e-9, 0.3, 0, 2e-9, 0, 0.1], 0.0)  # tiny |s|
@example([0, 1, 1e-320, 0, 0, 0, 0, 0], 0.0)  # |s|^2 subnormal
@example([-1, 0.05, 0.04, -0.9, 0, 0.01, 0, 0], 2.0)  # |s| < |r| / 6, r = -380
# the atomic generator at -40.4 MHz on the default medium, rounded: one
# eigenvalue near 0 next to one near -142 - 68i
@example([-0.746, -0.1649, 0.1648, 0.03644, -0.3573, -0.0788, 0.07895, 0.01768], 2.301)
def test_closed_form_noise_integral_matches_a_50_digit_van_loan_block(parts, log_scale):
    # real parts of b00, b01, b10, b11, then their imaginary parts
    re, im = np.array(parts[:4]), np.array(parts[4:])
    block = (10.0**log_scale * (re + 1j * im)).reshape(2, 2)
    transfer, noise, fault, _ = propagation._pair_maps(block[None])
    assume(fault[0] == 0)  # a map past the float range is flagged, not read
    _, (exact_m, exact_q) = mpmath_pair_maps([(block, 1.0)], 50)
    exact_q = _as_array(exact_q)
    # 1e-14 up to ||B||_1 = 10; beyond, the rounding of an exponent x alone
    # moves e^x by |x| eps, so the bound grows with the norm
    norm = np.abs(block).sum(axis=0).max()
    bound = 1e-14 * max(1.0, norm / 10.0) * max(1.0, np.abs(exact_q).max())
    assert np.abs(noise[0] - exact_q).max() <= bound
    assert np.array_equal(transfer[0], propagation._expm2x2(block[None])[0][0])


@pytest.mark.parametrize("scale", [1e4, 1e60, 1e147, 1e300])
@pytest.mark.parametrize(
    "block",
    [
        np.array([[-1.17, -0.0203], [-0.0203, -0.603]]),  # near: |s| <= -Re(tr B) / 6
        np.array([[0.0023, -0.0148], [0.121, -0.0787]]),  # near, with s imaginary
        np.array([[-1.0, 0.3 + 0.2j], [0.1j, -2.5]]),  # far
    ],
)
def test_damped_maps_keep_their_noise_at_any_scale(scale, block):
    # e^{BL} vanishes, so Q is the solution of B Q + Q B^dag = -D, the same
    # at every scale of B; at large scales the scalars of the near branch
    # are far below the float range and N far above it
    from scipy.linalg import solve_continuous_lyapunov

    block = block.astype(complex)
    transfer, noise, fault, _ = propagation._pair_maps(scale * block[None])
    assert fault[0] == 0 and np.abs(transfer).max() < 1e-100
    d, e, _ = propagation._pair_diffusion(block[None])
    want = solve_continuous_lyapunov(block, -np.ldexp(1.0, e[0]) * d[0])
    np.testing.assert_allclose(noise[0], want, rtol=0.0, atol=1e-13 * np.abs(want).max())
    assert propagation._pair_cp_defects(transfer, noise)[0] > -1e-9


def test_pair_maps_flag_what_leaves_the_float_range_and_warn_nothing():
    # pytest makes any warning an error; each point keeps its stack-of-one bits
    rng = np.random.default_rng(5)
    scale = np.logspace(-3.0, 3.0, 300)[:, None, None]
    blocks = (rng.normal(size=(300, 2, 2)) + 1j * rng.normal(size=(300, 2, 2))) * scale
    transfer, noise, fault, _ = propagation._pair_maps(blocks)
    assert 0 < np.count_nonzero(fault) < 300
    assert set(fault.tolist()) <= {0, propagation._TRANSFER, propagation._NOISE}
    for i in range(0, 300, 7):
        one = propagation._pair_maps(blocks[i : i + 1])
        assert one[2][0] == fault[i]
        if not fault[i]:
            assert np.array_equal(one[0][0], transfer[i]) and np.array_equal(one[1][0], noise[i])
    with pytest.raises(propagation.OutputOverflowError, match=r"\(the (transfer|added noise)"):
        propagation.propagate_coupling(blocks[int(np.flatnonzero(fault)[0])])


def _bits(*arrays) -> list:
    return [np.asarray(x).tobytes() for x in arrays]


def _one_point_bits(blocks, i):
    """M, Q and fault of point i of a stack of generators, and its classical
    gains, as bytes."""
    return _bits(*(x[i] for x in propagation._pair_maps(blocks)[:3]), *(g[i] for g in propagation._pair_gains(blocks)))


# Beside the default sweep's generators, which the stack-wide bound clears:
# an eigenvalue of real part 175, where no guard fires but neither bound
# clears its stack, a generator whose transfer leaves the float range, and
# eigenvalues of real part 175 in both beams.  With the probe's alone, the
# gemellity of 1 cancels to 0 beside a noise figure of 2e152
_COMPANIONS = [
    np.diag([175.0, -1.0]).astype(complex),
    1e4 * np.array([[-0.7, -0.2j], [0.2, 0.04 - 0.4j]]),
    np.diag([175.0, 175.0]).astype(complex),
]


@pytest.mark.parametrize("companion", _COMPANIONS, ids=["unguarded_175", "overflowing", "unguarded_175_both"])
def test_tame_points_keep_their_bits_beside_guarded_ones(companion):
    tame = _default_sweep_blocks(slice(None, None, 25))
    stack = np.concatenate([tame[:6], companion[None], tame[6:]])
    assert not propagation._tame(stack)
    maps = propagation._pair_maps(stack)
    assert (maps[2][6] != 0) == (companion is _COMPANIONS[1])
    rows = [i for i in range(len(stack)) if i != 6]
    for i in rows:
        assert propagation._tame(stack[i : i + 1])
        assert _one_point_bits(stack, i) == _one_point_bits(stack[i : i + 1], 0)
    if companion is _COMPANIONS[0]:
        with pytest.raises(propagation.GemellityRoundingError, match="no correct digit at point 6$"):
            propagation._pair_outputs(*maps, place=lambda i: f" at point {i}")
    elif not maps[2].any():
        out = propagation._pair_outputs(*maps)
        for i in rows:
            one = propagation._pair_outputs(*propagation._pair_maps(stack[i : i + 1]))
            assert _bits(*(x[i] for x in out)) == _bits(*(x[0] for x in one))


# Beside _COMPANIONS, guarded generators of both noise branches, and one whose
# entries pass 2^500, so that s and t are formed over a power of two
_ONE_ROW_COMPANIONS = {
    **dict(zip(["unguarded_175", "overflowing", "unguarded_175_both"], _COMPANIONS)),
    "near": 1e7 * np.array([[-1.17, -0.0203], [-0.0203, -0.603]], dtype=complex),
    "far": 1e7 * np.array([[-1.0, 0.3 + 0.2j], [0.1j, -2.5]]),
    "scaled_2_500": 2.0**500 * np.array([[-1.0, 0.3 + 0.2j], [0.1j, -2.5]]),
}


def _output_bits(out, i) -> list:
    return [float(x[i]).hex() for x in out]


@pytest.mark.parametrize("companion", list(_ONE_ROW_COMPANIONS.values()), ids=list(_ONE_ROW_COMPANIONS))
def test_a_one_row_read_guards_where_the_stack_guards(companion):
    # the polish reads a flux balance, and the root its output, one row at a
    # time: each row of a guarded stack reads to its stacked row's bits, or
    # raises the exception the stack raises for it, with the same text
    tame = _default_sweep_blocks(slice(None, None, 25))
    stack = np.concatenate([tame[:6], companion[None], tame[6:]])
    assert not propagation._tame(stack)
    gains = propagation._pair_gains(stack)
    balance = atomic._flux_balance(*gains)
    maps = propagation._pair_maps(stack)
    rows = list(range(len(stack)))
    try:
        outs = propagation._pair_outputs(*maps, place=lambda i: f" at point {i}")
    except (propagation.OutputOverflowError, propagation.GemellityRoundingError) as exc:
        assert str(exc).endswith(" at point 6")
        with pytest.raises(type(exc)) as alone:
            propagation.propagate_coupling(companion)
        assert f"{alone.value} at point 6" == str(exc)
        rows.remove(6)
        outs = propagation._pair_outputs(*(x[rows] for x in maps))
    for i, block in enumerate(stack):
        one = propagation._pair_gains(block[None])
        assert _bits(*one, atomic._flux_balance(*one)) == _bits(*(x[i : i + 1] for x in (*gains, balance)))
        transfer, noise, fault, _ = propagation._pair_maps(block[None])
        assert fault[0] == maps[2][i]
        if not fault[0]:
            assert _bits(transfer[0], noise[0]) == _bits(maps[0][i], maps[1][i])
    for row, i in enumerate(rows):
        got = propagation.propagate_coupling(stack[i])
        figures = got.figures
        values = (got.g_a, got.g_b, figures.f_a, figures.f_b, figures.c_ab, got.gemellity, got.gemellity_db)
        assert [x.hex() for x in values] == _output_bits(outs, row)


def test_every_point_the_bound_clears_passes_every_guard(monkeypatch):
    # generators on both sides of the bound's edges, entries of size 2^20 and
    # Gershgorin real parts of 128, and a tenth far past them, whose noise
    # may leave the float range: forced to run, the guards flag no point the
    # bound clears and give it the same bits
    rng = np.random.default_rng(25)
    n = 600
    size = 2.0 ** rng.uniform(-4.0, 21.0, n)[:, None]
    off = size * rng.uniform(0.0, 1.0, (n, 2)) * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))
    far = rng.uniform(size=(n, 1)) < 0.1
    reach = np.where(far, rng.uniform(300.0, 400.0, (n, 2)), rng.uniform(-60.0, 160.0, (n, 2)))
    blocks = np.empty((n, 2, 2), dtype=complex)
    blocks[:, 0, 1], blocks[:, 1, 0] = off[:, 0], off[:, 1]
    # column Gershgorin: Re b00 + |b10| and Re b11 + |b01| are the reaches
    imag = size * rng.uniform(-1.0, 1.0, (n, 2))
    blocks[:, 0, 0] = reach[:, 0] - np.abs(off[:, 1]) + 1j * imag[:, 0]
    blocks[:, 1, 1] = reach[:, 1] - np.abs(off[:, 0]) + 1j * imag[:, 1]
    cleared = np.array([propagation._tame(b[None]) for b in blocks])
    assert 0.3 * n < cleared.sum() < 0.7 * n
    fast = [_bits(*(x[0] for x in propagation._pair_maps(b[None])[:3])) for b in blocks]
    monkeypatch.setattr(propagation, "_tame", lambda blocks: False)
    transfer, noise, fault, _ = propagation._pair_maps(blocks)
    assert fault.any() and not fault[cleared].any()
    for i in np.flatnonzero(cleared):
        assert _bits(transfer[i], noise[i], fault[i]) == fast[i]


def test_outputs_the_bound_clears_pass_every_guard():
    # CP maps whose parts lie on both sides of 2^250 for M and 2^500 for Q,
    # read alone and in one stack beside a map of far larger noise (M = 0,
    # Q = 2^505 I): a point's output bits do not depend on its stack
    rng = np.random.default_rng(26)
    n = 200
    transfer = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    transfer *= 2.0 ** rng.uniform(236.0, 251.0, (n, 1, 1))
    # Q = q I is CP once q >= 1 + |M|_F^2
    q = 2.0 ** rng.uniform(0.0, 1.0, n) * 4.0 * np.abs(transfer).max(axis=(1, 2)) ** 2 + 2.0 ** rng.uniform(490, 502, n)
    noise = q[:, None, None] * np.eye(2)
    parts = [np.abs(x.view(float)).max(axis=(1, 2)) for x in (transfer, noise)]
    cleared = (parts[0] <= 2.0**250) & (parts[1] <= 2.0**500)
    assert 0.2 * n < cleared.sum() < 0.8 * n
    guarded = (np.zeros((1, 2, 2), dtype=complex), 2.0**505 * np.eye(2, dtype=complex)[None])
    beside = propagation._pair_outputs(*(np.concatenate([x, y]) for x, y in zip((transfer, noise), guarded)), 0, None)
    for i in range(n):
        alone = propagation._pair_outputs(transfer[i : i + 1], noise[i : i + 1], 0, None)
        assert _bits(*(x[0] for x in alone)) == _bits(*(x[i] for x in beside))


def test_fluxes_are_the_python_float_squares():
    # numpy's re re + im im is the arithmetic of Python floats, to the bit,
    # from subnormal amplitudes to overflowing ones; the overflowing ones
    # inside the error state their callers enter
    rng = np.random.default_rng(27)
    parts = 2.0 ** rng.uniform(-1074.0, 1024.0, (2, 500)) * rng.choice([-1.0, 1.0], (2, 500))
    amplitudes = np.concatenate([parts[0] + 1j * parts[1], [np.inf, complex(0.0, -np.inf), np.nan, 0.0]])
    want = np.array([x * x + y * y for x, y in zip(amplitudes.real.tolist(), amplitudes.imag.tolist())])
    with np.errstate(over="ignore"):
        assert propagation._fluxes(amplitudes).tobytes() == want.tobytes()
    # outside any error state, on the amplitudes whose parts stay below
    # 2^510, the bound `_tame` and the range checks of `_pair_outputs` hold
    inside = np.maximum(np.abs(amplitudes.real), np.abs(amplitudes.imag)) < 2.0**510
    assert 200 < np.count_nonzero(inside) < 400
    assert propagation._fluxes(amplitudes[inside]).tobytes() == want[inside].tobytes()


def test_the_first_column_read_says_whether_the_stack_is_tame():
    # e^B's first column alone, to the bits of the whole exponential, and
    # k is None exactly where _tame clears the stack
    tame = _default_sweep_blocks(slice(None, None, 25))
    for stack in (tame, np.concatenate([tame, _COMPANIONS[1][None]])):
        column, (*_, k, _far) = propagation._expm2x2(stack, first=True)
        assert (k is None) == propagation._tame(stack) == (stack is tame)
        assert column.tobytes() == np.ascontiguousarray(propagation._expm2x2(stack)[0][:, :, 0]).tobytes()


def test_the_gains_enter_an_error_state_only_for_a_stack_not_cleared(monkeypatch, recwarn):
    # a tame stack is squared outside any error state; one with a point past
    # the float range enters one, and its infinite gains warn nothing
    entries = []

    def errstate(*args, _original=np.errstate, **kwargs):
        entries.append(kwargs)
        return _original(*args, **kwargs)

    tame = _default_sweep_blocks(slice(None))
    assert propagation._tame(tame)
    monkeypatch.setattr(np, "errstate", errstate)
    gains = propagation._pair_gains(tame)
    assert entries == [] and np.isfinite(gains).all()
    guarded = np.concatenate([tame, _COMPANIONS[1][None]])
    gains = propagation._pair_gains(guarded)
    assert entries == [{"over": "ignore"}]
    assert np.isinf(gains[0][-1]) and np.isinf(gains[1][-1])
    assert [_bits(g[:-1]) for g in gains] == [_bits(g) for g in propagation._pair_gains(tame)]
    assert len(recwarn) == 0


def _matrices(pair):
    """(M, Q) arrays of a closed-form pair map of plain floats."""
    (a, b, c, d), (x, y, z) = pair
    return np.array([[a, b], [c, d]]), np.array([[x, y], [y, z]])


def _cp_scale(transfer, noise):
    return max(1.0, np.abs(transfer).max() ** 2, np.abs(noise).max())


def _flat(rates):
    """The search's rate vector of (g, alpha_a, alpha_b) tuples."""
    return [float(v) for r in rates for v in r]


def _pair_chain(rates):
    dz = 1.0 / len(rates)
    pairs = [propagation._pair_segment(dz, *r) for r in rates]
    total = pairs[0]
    for pair in pairs[1:]:
        total = pair_compose(pair, total)
    return pairs, total


# the search box: n equal segments of a unit medium, rates in [0, 20]
_RATE = st.floats(min_value=0.0, max_value=20.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=8), _RATE, _RATE, _RATE)
@example(1, 0.0, 3.0, 7.0)  # g = 0
@example(2, 0.0, 7.0, 3.0)  # g = 0, the other rotation branch
@example(2, 5.0, 4.0, 4.0)  # alpha_a = alpha_b, h = 0
@example(1, 0.0, 0.0, 0.0)  # all rates 0, r = 0
@example(3, 0.0, 6.0, 6.0)  # r = 0 with loss
@example(2, 15.704219186527428, 0.0, 0.0)  # g dz = 7.85
@example(1, 20.0, 20.0, 0.0)  # g dz = 20
@example(1, 1e-8, 0.0, 20.0)  # g << |h|
def test_closed_form_segment_map_matches_the_van_loan_map(n, g, alpha_a, alpha_b):
    slab = Slab(1.0 / n, g, alpha_a, alpha_b)
    block = np.array([[-alpha_a / 2.0, g], [g, -alpha_b / 2.0]])
    transfer, noise = _matrices(propagation._pair_segment(*dataclasses.astuple(slab)))
    generator = (block[None] * slab.dz).astype(complex)
    exact_m, exact_q = (x[0] for x in propagation._pair_maps(generator)[:2])
    scale = _cp_scale(exact_m, exact_q)
    np.testing.assert_allclose(
        transfer, exact_m, rtol=0.0, atol=1e-13 * np.abs(exact_m).max()
    )
    np.testing.assert_allclose(noise, exact_q, rtol=0.0, atol=1e-13 * scale)
    # the closed form rests on diag(alpha_a, alpha_b) being the minimal
    # diffusion of a real block; the pair engine's |H| gives it to rounding
    # (read off the block, where alpha / 2 may underflow)
    rates = -2.0 * np.diag(block)
    d, e, _ = propagation._pair_diffusion(block[None].astype(complex))
    np.testing.assert_allclose(
        np.ldexp(1.0, e[0]) * d[0], np.diag(rates), rtol=1e-15, atol=1e-15 * rates.max()
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=4))
def test_pair_cp_defect_equals_that_of_the_lifted_channel(rates):
    pairs, total = _pair_chain(rates)
    lifted = [lift(_matrices(pair)) for pair in pairs]
    composed = lifted[0]
    for channel in lifted[1:]:
        composed = gaussian.compose(channel, composed)
    total_channel = lift(_matrices(total))
    transfer, noise = total_channel.transfer, total_channel.added_noise
    scale = _cp_scale(transfer, noise)
    np.testing.assert_allclose(transfer, composed.transfer, rtol=0.0, atol=1e-13 * scale**0.5)
    np.testing.assert_allclose(noise, composed.added_noise, rtol=0.0, atol=1e-13 * scale)
    for pair, channel in zip(pairs + [total], lifted + [composed]):
        got = pair_cp_defect(pair)
        want = gaussian.cp_defect(channel)
        assert abs(got - want) <= 1e-13 * _cp_scale(channel.transfer, channel.added_noise)


@pytest.mark.parametrize(
    "slab",
    [Slab(0.5, 3.0, 0.0, 0.0), Slab(1.0, 2.0, 5.0, 1.0), Slab(0.5, 15.7, 0.0, 8.0)],
)
def test_pair_cp_check_rejects_a_noise_pushed_below_cp(slab):
    pair = propagation._pair_segment(*dataclasses.astuple(slab))
    propagation._check_pair_cp(pair)
    transfer, (x, y, z) = pair
    # lowering both diagonal entries lowers every eigenvalue by as much
    below = 1e-6 * _cp_scale(*_matrices(pair))
    push = pair_cp_defect(pair) + below
    pushed = (transfer, (x - push, y, z - push))
    # the lifted channel cannot be built, so its defect is read off directly
    t, n = (gaussian.transfer_from_mode_matrix(a) for a in _matrices(pushed))
    want = gaussian.cp_defect(types.SimpleNamespace(transfer=t, added_noise=n))
    assert want == pytest.approx(-below, rel=1e-3)
    assert abs(pair_cp_defect(pushed) - want) <= 1e-13 * _cp_scale(t, n)
    with pytest.raises(ValueError, match="not completely positive"):
        propagation._check_pair_cp(pushed)
    with pytest.raises(ValueError, match="not completely positive"):
        lift(_matrices(pushed))


def test_pair_cp_check_scales_its_tolerance_with_the_map():
    # a pure-gain segment with g dz = 6: max|T|^2 = cosh(6)^2, about 4e4
    pair = propagation._pair_segment(1.0, 6.0, 0.0, 0.0)
    transfer, (x, y, z) = pair
    tol, scale = gaussian._CP_TOL, _cp_scale(*_matrices(pair))
    assert scale > 4e4

    def pushed(defect):
        # lowering both diagonal entries lowers every eigenvalue by as much
        push = pair_cp_defect(pair) - defect
        return transfer, (x - push, y, z - push)

    within = pushed(-100.0 * tol)
    assert -tol * scale < pair_cp_defect(within) < -tol
    propagation._check_pair_cp(within)
    below = pushed(-2.0 * tol * scale)
    assert pair_cp_defect(below) < -tol * scale
    with pytest.raises(ValueError, match="not completely positive"):
        propagation._check_pair_cp(below)


def _lowered(pair, push):
    """A pair map with both diagonal noise entries lowered by push, which
    lowers every eigenvalue of its CP test by as much."""
    transfer, (x, y, z) = pair
    return transfer, (x - push, y, z - push)


def _rejection(check, pair):
    """The text of the ValueError a CP check raises on a pair map, or None."""
    try:
        check(pair)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=4))
def test_pair_cp_check_draws_the_line_of_the_helper_calls(rates):
    # each map pushed to the last float on either side of where the reference
    # check starts to reject it: a defect off by a rounding moves that line
    pairs, total = _pair_chain(rates)
    for pair in pairs + [total]:
        lo, hi = 0.0, abs(pair_cp_defect(pair)) + 4.0 * gaussian._CP_TOL * _cp_scale(*_matrices(pair))
        assert _rejection(check_pair_cp, pair) is None
        assert _rejection(check_pair_cp, _lowered(pair, hi))
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if _rejection(check_pair_cp, _lowered(pair, mid)) else (mid, hi)
        for pushed in (_lowered(pair, lo), _lowered(pair, hi)):
            assert _rejection(propagation._check_pair_cp, pushed) == _rejection(check_pair_cp, pushed)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=3))
@example([(2.2250738585e-313, 0.0, 2.2250738585e-313)])  # subnormal g and h
@example([(9.0, 0.0, 0.0)])  # a squeezer, F = 3.3e7: gemellity 1 / F computes as 1.5e-8, no digit
def test_search_objective_matches_propagate_exact(rates):
    profile = SlabProfile(tuple(Slab(1.0 / len(rates), *r) for r in rates))
    (gem, infeasibility), _ = propagation._pair_objective(_flat(rates), 1.0 / len(rates))
    try:
        exact = propagation.propagate_exact(profile)
    except propagation.GemellityRoundingError:
        # the exact gemellity cancels to within its rounding of 0; the
        # objective refuses such a candidate too
        assert (gem, infeasibility) == (math.inf, math.inf)
        return
    # both cancel fluxes of the size of the noise figures
    size = max(1.0, exact.figures.f_a, exact.figures.f_b)
    if gem == math.inf:
        # the objective refuses only a gemellity within its rounding of 0
        assert infeasibility == math.inf and exact.gemellity <= 1e-13 * size
        return
    assert gem == pytest.approx(exact.gemellity, rel=0.0, abs=1e-13 * size)
    assert infeasibility == pytest.approx(
        abs(exact.sum_transmission - 1.0), rel=0.0, abs=1e-13 * size
    )


def _as_array(x):
    return np.array(x.tolist(), dtype=complex)


@pytest.mark.parametrize(
    "rates",
    [
        # the optima of the (2, 0), (2, 1) and (3, 0) searches
        [(0.0, 1.7108803420275933, 0.0), (1.5, 0.0, 0.0)],
        [
            (1.5946343299818437, 19.580078125, 9.8138965858329),
            (9.06995778961303, 2.680833944943295, 5.5622597289425855),
        ],
        [
            (0.0, 16.826345592247666, 6.099425175342028),
            (6.886199576082504, 8.605974638956667, 19.942626953125),
            (11.24463684456914, 5.255416863418645, 4.833514281886899),
        ],
        # h = 0, g = 0 and r = 0 segments in one chain
        [(5.0, 4.0, 4.0), (0.0, 3.0, 12.0), (0.0, 2.0, 2.0), (20.0, 0.0, 0.0)],
    ],
)
def test_pair_maps_match_a_60_digit_reference(rates):
    profile = SlabProfile(tuple(Slab(1.0 / len(rates), *r) for r in rates))
    blocks = [[[-s.alpha_a / 2.0, s.g], [s.g, -s.alpha_b / 2.0]] for s in profile.slabs]
    lengths = [s.dz for s in profile.slabs]
    segments, (transfer, noise) = mpmath_pair_maps(zip(blocks, lengths), 60)
    for slab, block, (m, q) in zip(profile.slabs, blocks, segments):
        m, q = _as_array(m), _as_array(q)
        scale = _cp_scale(m, q)
        # the search's closed form and the pair engine
        closed = _matrices(propagation._pair_segment(*dataclasses.astuple(slab)))
        engine = (x[0] for x in propagation._pair_maps(np.array(block, complex)[None] * slab.dz)[:2])
        for got_m, got_q in (closed, tuple(engine)):
            np.testing.assert_allclose(got_m, m, rtol=0.0, atol=1e-14 * np.abs(m).max())
            np.testing.assert_allclose(got_q, q, rtol=0.0, atol=1e-14 * scale)
    with mpmath.workdps(60):
        cov = transfer * transfer.H + noise
        f_a, f_b, c = mpmath.re(cov[0, 0]), mpmath.re(cov[1, 1]), mpmath.re(cov[0, 1])
        gem = float((f_a + f_b) / 2 - mpmath.sqrt(c * c + ((f_a - f_b) / 2) ** 2))
        flux = float(abs(transfer[0, 0]) ** 2 + abs(transfer[1, 0]) ** 2)
        size = float(max(f_a, f_b))
    (got, infeasibility), _ = propagation._pair_objective(_flat(rates), 1.0 / len(rates))
    exact = propagation.propagate_exact(profile)
    for value in (got, exact.gemellity):
        assert value == pytest.approx(gem, rel=0.0, abs=1e-14 * size)
    assert infeasibility == pytest.approx(abs(flux - 1.0), rel=0.0, abs=1e-14 * max(1.0, flux))
    assert exact.sum_transmission == pytest.approx(flux, rel=1e-14)


def _default_sweep_blocks(rows):
    """Pair generators of the default `sweep-delta` grid at the given rows."""
    deltas = np.linspace(-150.0, 50.0, 251)[rows]
    return atomic.sideband_blocks(
        atomic.params_from_mapping({}), [angular_from_mhz(d) for d in deltas]
    )


def _default_beam_splitter_block():
    p = atomic.params_from_mapping({})
    point = atomic.find_beam_splitter_point(p)
    return atomic.sideband_response(
        dataclasses.replace(p, two_photon_detuning=point.delta)
    ).pair_block, point


def test_atomic_maps_match_an_80_digit_reference():
    # the default sweep from -46.8 to -35.6 MHz, where the generator's norm
    # reaches 200 and the two eigenvalues of H = B eta + eta B^dag differ in
    # size by 1e4 to 2e7, and the default beam-splitter point
    bs_block, point = _default_beam_splitter_block()
    assert point.gemellity_db == propagation.propagate_coupling(bs_block).gemellity_db
    for block in list(_default_sweep_blocks(slice(129, 144))) + [bs_block]:
        _, pair = mpmath_pair_maps([(block, 1.0)], 80)
        transfer, noise = (gaussian.transfer_from_mode_matrix(_as_array(x)) for x in pair)
        got = exact_channel(block, 1.0)
        scale = _cp_scale(transfer, noise)
        np.testing.assert_allclose(got.transfer, transfer, rtol=0.0, atol=1e-13 * scale**0.5)
        np.testing.assert_allclose(got.added_noise, noise, rtol=0.0, atol=1e-13 * scale)
        # M is the closed-form exponential; taken from the Van Loan squarings
        # it was 2.8e-14 off here
        m, exact_m = propagation._pair_maps(block[None])[0][0], _as_array(pair[0])
        assert np.abs(m - exact_m).max() <= 4e-15 * np.abs(exact_m).max()
        # the printed gemellity, against that of the correctly rounded map
        want = propagation._result(*(_as_array(x)[None] for x in pair))
        res = propagation.propagate_coupling(block)
        assert res.gemellity_db == pytest.approx(want.gemellity_db, rel=0.0, abs=1e-12)


def _mpmath_gemellity(block):
    """The gemellity of a generator's pair map at 60 digits, read in the pair
    basis as `_pair_outputs` reads it."""
    _, (m, q) = mpmath_pair_maps([(block, 1.0)], 60)
    with mpmath.workdps(60):
        k = m * m.H + q
        f_a, f_b = mpmath.re(k[0, 0]), mpmath.re(k[1, 1])
        c = mpmath.re(mpmath.exp(-1j * (mpmath.arg(m[0, 0]) - mpmath.arg(m[1, 0]))) * k[0, 1])
        return float((f_a + f_b) / 2 - mpmath.sqrt(c * c + ((f_a - f_b) / 2) ** 2))


def test_a_deep_sweep_prints_only_gemellities_above_their_rounding():
    # the sweep-delta grid at depth 1e5, where the noise figures reach 1e31
    blocks = atomic.sideband_blocks(
        atomic.params_from_mapping({"depth": "1e5"}), angular_from_mhz(np.linspace(-150.0, 50.0, 251))
    )
    # -14, -12.4, 25.2, 26 and 27.6 MHz pass, with F_a of 3.6, 7e8, 3e11, 9e9
    # and 9e5; each is within the check's rounding bound of its 60-digit
    # value.  25.2 MHz passes at 1.2 times the bound, 1.7 % off
    rows = [170, 172, 219, 220, 222]
    out = propagation._pair_outputs(*propagation._pair_maps(blocks[rows]))
    for i, block in enumerate(blocks[rows]):
        bound = 4.0 * sys.float_info.epsilon * (out.f_a[i] + out.f_b[i])
        assert abs(out.gemellity[i] - _mpmath_gemellity(block)) <= bound, rows[i]
    # -1.2 MHz printed +153.5 dB, at F_a = 4.9e30, where its gemellity is
    # -31.60 dB; 24.4 MHz, next to 25.2, printed -inf
    assert 10.0 * math.log10(_mpmath_gemellity(blocks[186])) == pytest.approx(-31.60, abs=0.005)
    for row in (186, 218):
        with pytest.raises(propagation.GemellityRoundingError, match=r"with no correct digit at row 0$"):
            propagation._pair_outputs(*propagation._pair_maps(blocks[[row]]), place=lambda i: f" at row {i}")


def _count_channel_calls(monkeypatch):
    """Calls of the quadrature channel's CP check and composition, and the
    number of pair maps `_pair_cp_defects` checks."""
    calls = {"cp_defect": 0, "compose": 0, "compose_power": 0, "pair_cp": 0}
    for name in ("cp_defect", "compose", "compose_power"):

        def counted(*args, _name=name, _original=getattr(gaussian, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gaussian, name, counted)

    def pair_cp(transfer, noise, _original=propagation._pair_cp_defects):
        calls["pair_cp"] += len(transfer)
        return _original(transfer, noise)

    monkeypatch.setattr(propagation, "_pair_cp_defects", pair_cp)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_propagate_exact_checks_one_pair_map_and_composes_no_channel(monkeypatch, n):
    # the product of the segment maps is checked once, in the pair basis
    segments = (Slab(0.5, 3.0, 0.0, 0.0), Slab(0.25, 7.0, 2.0, 19.0), Slab(0.25, 0.0, 11.0, 4.0))
    calls = _count_channel_calls(monkeypatch)
    propagation.propagate_exact(SlabProfile(segments[:n]))
    assert calls == {"cp_defect": 0, "compose": 0, "compose_power": 0, "pair_cp": 1}


@pytest.mark.parametrize(
    "block, length",
    [
        # the default sweep's -40.4 MHz generator, ||B||_1 = 202
        (_default_sweep_blocks([137])[0], 1.0),
        (np.array([[0.4j, 0.3], [0.3, -0.2 - 0.1j]]), 7.0),
    ],
)
def test_propagate_coupling_checks_one_pair_map_and_composes_no_channel(monkeypatch, block, length):
    # one pair CP check, and the output is read in the pair basis
    calls = _count_channel_calls(monkeypatch)
    propagation.propagate_coupling(block * length)
    assert calls == {"cp_defect": 0, "compose": 0, "compose_power": 0, "pair_cp": 1}


def test_a_pair_map_that_is_not_cp_fails_the_readout():
    # M = 2 I with no added noise would amplify without noise
    transfer, noise = 2.0 * np.eye(2, dtype=complex)[None], np.zeros((1, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"not completely positive \(CP defect -3.000e\+00\)"):
        propagation._result(transfer, noise)


def test_sweep_delta_checks_one_pair_map_per_point_in_one_call(monkeypatch, capsys):
    calls = _count_channel_calls(monkeypatch)
    coupling = []
    monkeypatch.setattr(propagation, "propagate_coupling", lambda *a: coupling.append(a))
    assert cli.main(["sweep-delta"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 252
    assert coupling == []
    assert calls == {"cp_defect": 0, "compose": 0, "compose_power": 0, "pair_cp": 251}


def test_a_sweep_point_does_not_depend_on_its_grid():
    # each default sweep-delta row, against a one-point propagate_coupling
    blocks = _default_sweep_blocks(slice(None))
    out = propagation._pair_outputs(*propagation._pair_maps(blocks))
    for i, block in enumerate(blocks):
        one = propagation.propagate_coupling(block)
        assert (one.g_a, one.g_b, one.gemellity) == (out.g_a[i], out.g_b[i], out.gemellity[i])
        assert one.gemellity_db == out.gemellity_db[i]


def test_the_stacked_pair_cp_defect_is_that_of_the_lifted_channel():
    blocks = _default_sweep_blocks(slice(None))
    transfer, noise = propagation._pair_maps(blocks)[:2]
    defect = propagation._pair_cp_defects(transfer, noise)
    for m, q, got in zip(transfer, noise, defect):
        channel = lift((m, q))
        want = gaussian.cp_defect(channel)
        assert abs(got - want) <= 1e-13 * _cp_scale(channel.transfer, channel.added_noise)


def test_pair_outputs_match_the_lifted_state():
    # the noise figures and correlation read in the pair basis, against
    # noise_figures of the output state the quadrature channel gives
    blocks = _default_sweep_blocks(slice(None))
    maps = propagation._pair_maps(blocks)
    out = propagation._pair_outputs(*maps)
    for i, (m, q) in enumerate(zip(*maps[:2])):
        figures = noise_figures(gaussian.apply(lift((m, q)), gaussian.coherent_input(1.0)))
        # a few roundings apart: the lifted path rotates the covariance by
        # the mean phases, the pair basis multiplies by one phase factor
        assert out.f_a[i] == pytest.approx(figures.f_a, rel=1e-15)
        assert out.f_b[i] == pytest.approx(figures.f_b, rel=1e-15)
        assert out.c_ab[i] == pytest.approx(figures.c_ab, rel=0.0, abs=1e-15)


@pytest.mark.parametrize(
    "seed, gemellity", [(0, 0.2231301601484299), (1, 0.18973527216087405)]
)
def test_two_segment_searches_keep_their_optima(seed, gemellity):
    out = propagation.search_beyond_lumped_limit(n_segments=2, seed=seed)
    assert out.found
    assert out.result.gemellity == pytest.approx(gemellity, rel=1e-12)


_OPTIMUM_2 = (0.0, 1.7108803420275933, 0.0, 1.5, 0.0, 0.0)


# (segments, seed, keywords): evaluations, the points the search scored,
# none twice at one penalty; rates of the reported profile and its
# gemellity, which have not moved since the search rebuilt every segment
# map of every candidate
@pytest.mark.parametrize(
    "segments, seed, keywords, evaluations, rates, gemellity",
    [
        (1, 0, {}, 1751, (0.9942378107476957, 1.813119423953168, 0.21240234375), 0.3864471109324481),
        (1, 1, {}, 2743, (4.06995778961303, 8.567064413693295, 6.1872597289425855), 0.48189034258206664),
        (2, 0, {}, 2984, _OPTIMUM_2, 0.2231301601484299),
        (
            2, 1, {}, 13581,
            (1.5946343299818437, 19.580078125, 9.8138965858329, 9.06995778961303, 2.680833944943295, 5.5622597289425855),
            0.18973527216087405,
        ),
        (
            3, 0, {}, 4671,
            (
                0.0, 16.826345592247666, 3.903380253467028, 6.886199576082504, 8.605974638956667,
                19.942626953125, 11.24463684456914, 5.255416863418645, 4.833514281886899,
            ),
            0.18330864336667219,
        ),
        (2, 20260823, {}, 3405, _OPTIMUM_2, 0.2231301601484299),  # criterion 6
        (2, 0, {"restarts": 1, "rate_bound": 1.7976931348623157e308}, 6215, _OPTIMUM_2, 0.2231301601484299),
        (2, 0, {"restarts": 1, "rate_bound": 5e-324}, 1, (0.0, 5e-324, 0.0, 5e-324, 0.0, 0.0), 1.0),
        # each restart draws its start when it begins, from the same stream
        (2, 3, {"restarts": 3}, 543, _OPTIMUM_2, 0.2231301601484299),
        # tight tolerances escalate the penalty: 4 escalations here, and with
        # none feasible the all-zero profile is reported, found=False
        (2, 0, {"restarts": 2, "feasibility_tol": 1e-6}, 668, _OPTIMUM_2, 0.2231301601484299),
        (1, 0, {"restarts": 2, "feasibility_tol": 1e-9}, 679, (0.0, 0.0, 0.0), 1.0),
    ],
)
def test_search_is_pinned_bit_for_bit(segments, seed, keywords, evaluations, rates, gemellity):
    out = propagation.search_beyond_lumped_limit(n_segments=segments, seed=seed, **keywords)
    assert out.evaluations == evaluations
    got = [v for s in out.profile.slabs for v in (s.g, s.alpha_a, s.alpha_b)]
    assert list(map(repr, got)) == list(map(repr, rates))
    assert out.result.gemellity == gemellity
    # every pinned profile whose gemellity is below 1 beats the lumped limit
    assert out.found == (gemellity < 1.0)


def test_a_search_candidate_maps_only_the_segment_it_moves(monkeypatch):
    calls = 0

    def counted(*args, _original=propagation._pair_segment):
        nonlocal calls
        calls += 1
        return _original(*args)

    monkeypatch.setattr(propagation, "_pair_segment", counted)
    out = propagation.search_beyond_lumped_limit(n_segments=3, seed=0, restarts=4)
    # a full evaluation maps all 3 segments; only starts and escalations pay it
    assert out.evaluations < calls < 1.2 * out.evaluations


@pytest.mark.parametrize("segments, keywords", [(2, {}), (3, {"restarts": 4})])
def test_a_search_scores_no_point_twice_against_one_incumbent(monkeypatch, segments, keywords):
    calls, origin = [], {}

    def recorded(rates, length, incumbent=None, moved=0, _original=propagation._pair_objective):
        out = _original(rates, length, incumbent, moved)
        calls.append((tuple(rates), incumbent))
        # each map set's own rate vector, and that of the incumbent it was probed from
        origin[id(out[1])] = (out[1], tuple(rates), incumbent and origin[id(incumbent)][1])
        return out

    monkeypatch.setattr(propagation, "_pair_objective", recorded)
    propagation.search_beyond_lumped_limit(n_segments=segments, seed=0, **keywords)
    # runs of consecutive probes against one incumbent, which `origin`
    # keeps alive, so that no id is reused; these searches do not escalate,
    # so each run is scored at one penalty
    runs = 0
    for key, run in itertools.groupby(calls, key=lambda call: id(call[1])):
        probes = [rates for rates, _ in run]
        if key == id(None):
            continue
        _, own, replaced = origin[key]
        assert len(set(probes)) == len(probes)
        assert own not in probes and replaced not in probes
        runs += 1
    assert runs > 50


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=4),
    st.integers(min_value=0),
    st.tuples(_RATE, _RATE, _RATE),
)
def test_remapping_one_segment_equals_a_full_evaluation(rates, index, moved_rates):
    dz, k = 1.0 / len(rates), index % len(rates)
    incumbent = propagation._pair_objective(_flat(rates), dz)[1]
    rates[k] = moved_rates
    full = propagation._pair_objective(_flat(rates), dz)
    assert propagation._pair_objective(_flat(rates), dz, incumbent, k) == full


def _hexed(value):
    """float.hex of every float in a nest of tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    return type(value)(map(_hexed, value)) if isinstance(value, (tuple, list)) else value


def _outcome(objective, *args):
    """An objective's score and (maps, folds); ((inf, inf), None) where it
    overflowed, as the search's objective scores that; or the type and text
    of the ValueError it raised."""
    try:
        return objective(*args)
    except OverflowError:
        return (math.inf, math.inf), None
    except ValueError as exc:
        return type(exc), str(exc)


_FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "rates",
    [
        [(_FLOAT_MAX, 0.0, 0.0)],  # the segment's exponential overflows
        [(895.0, 1066.0, 0.0), (238.0, 2533.0, 0.0)],  # the product's CP defect is NaN
    ],
    ids=["exponential", "nan_defect"],
)
def test_the_objective_scores_an_overflow_as_infeasible(rates):
    assert propagation._pair_objective(_flat(rates), 1.0 / len(rates)) == ((math.inf, math.inf), None)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=4), st.tuples(_RATE, _RATE, _RATE))
# rates near the float range: a segment's exponential overflows
@example([(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)], (_FLOAT_MAX, 0.0, 0.0))
# the product's defect candidates are NaN and -inf; min keeps the NaN, and
# the check raises OverflowError
@example([(895.0, 1066.0, 0.0), (238.0, 2533.0, 0.0)], (895.0, 1066.0, 0.0))
# alpha_a + alpha_b overflows: a zero map, CP defect -1
@example([(1.0, 0.0, 0.0)], (0.0, _FLOAT_MAX, _FLOAT_MAX))
def test_the_objective_scores_as_its_helper_calls_to_the_bit(rates, moved_rates):
    dz = 1.0 / len(rates)
    objectives = (propagation._pair_objective, pair_objective)
    incumbents = [_outcome(f, _flat(rates), dz) for f in objectives]
    assert _hexed(incumbents[0]) == _hexed(incumbents[1])
    for k in range(len(rates)):
        moved = _flat(rates[:k] + [moved_rates] + rates[k + 1 :])
        full = [_outcome(f, moved, dz) for f in objectives]
        assert _hexed(full[0]) == _hexed(full[1])
        if isinstance(incumbents[0][0], type) or incumbents[0][1] is None:
            continue  # no incumbent to remap
        remapped = [_outcome(f, moved, dz, out[1], k) for f, out in zip(objectives, incumbents)]
        assert _hexed(remapped[0]) == _hexed(remapped[1])


def _searched(search, *args):
    """A search's evaluations, found, rates and gemellity in float.hex, or
    the type and text of what it raised."""
    try:
        out = search(*args)
    except (OverflowError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    rates = [v.hex() for s in out.profile.slabs for v in (s.g, s.alpha_a, s.alpha_b)]
    return out.evaluations, out.found, rates, out.result.gemellity.hex()


# a fixed draw: a search at the largest rate bound may score 10^5 candidates,
# so the examples are chosen once, to keep the test within about a second
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([5e-324, 1.0, 5.0, 20.0, 1000.0, _FLOAT_MAX]),
    st.sampled_from([0.01, 1e-6]),
    st.integers(min_value=1, max_value=3),
)
@example(2, 0, _FLOAT_MAX, 1e-6, 1)
@example(3, 0, 1000.0, 0.01, 3)  # its former best had a gemellity with no digit
def test_the_search_walks_the_points_of_its_former_probe_loop(
    segments, seed, rate_bound, tol, restarts
):
    args = segments, seed, rate_bound, tol, restarts
    searches = (propagation.search_beyond_lumped_limit, search_beyond_lumped_limit)
    assert _searched(searches[0], *args) == _searched(searches[1], *args)


def test_search_beats_the_lumped_limit_from_the_seeded_start():
    out = propagation.search_beyond_lumped_limit(
        n_segments=2, seed=7, restarts=1
    )
    assert out.found
    assert out.result.gemellity_db < -2.8
    assert abs(out.result.sum_transmission - 1.0) <= 0.01
    assert len(out.profile.slabs) == 2
    assert out.evaluations > 0


def test_search_is_deterministic_for_a_fixed_seed():
    runs = [
        propagation.search_beyond_lumped_limit(
            n_segments=1, seed=11, restarts=2
        )
        for _ in range(2)
    ]
    assert runs[0].result.gemellity == runs[1].result.gemellity
    assert runs[0].evaluations == runs[1].evaluations
    assert runs[0].found == runs[1].found


@pytest.mark.parametrize("seed", [2, 6])
def test_search_completes_where_the_slab_path_failed_its_cp_check(seed):
    # the slab path raised "channel is not completely positive" on both
    # seeds; seed 6 also needs the CP tolerance to scale with the channel
    out = propagation.search_beyond_lumped_limit(n_segments=1, seed=seed)
    assert out.found
    assert abs(out.result.sum_transmission - 1.0) <= 0.01


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("setting", ["rate_bound", "feasibility_tol"])
def test_search_rejects_non_finite_settings(setting, value):
    # a nan or inf rate bound overflowed numpy's uniform draw; a nan
    # tolerance ran the whole search and reported found=False
    with pytest.raises(ValueError, match=f"^{setting} must be finite, got {value}$"):
        propagation.search_beyond_lumped_limit(**{setting: value})


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        propagation.search_beyond_lumped_limit(n_segments=0)
    with pytest.raises(ValueError):
        propagation.search_beyond_lumped_limit(n_segments=9)
    with pytest.raises(ValueError):
        propagation.search_beyond_lumped_limit(rate_bound=0.0)
    with pytest.raises(ValueError):
        propagation.search_beyond_lumped_limit(feasibility_tol=0.0)
    for n_segments in (1, 2):
        with pytest.raises(ValueError, match="restarts"):
            propagation.search_beyond_lumped_limit(n_segments=n_segments, restarts=0)
