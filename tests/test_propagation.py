"""Exact segment maps against closed forms and the slab oracle, the
closed-form pair maps of the search against the pair engine and a
60-digit reference, the pair engine on atomic generators against an
80-digit reference, slab propagation (exact on pure segments,
second-order splitting), coupling-generator channels, the
beyond-the-lumped-limit search, and profile files."""

import dataclasses
import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeam import atomic, gaussian, lumped, propagation
from twinbeam.configio import angular_from_mhz
from twinbeam.propagation import Slab, SlabProfile


def test_slab_validation():
    with pytest.raises(ValueError):
        Slab(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        Slab(0.5, 0.0, 0.0, -1.0)


def test_profile_requires_slabs_and_sums_lengths():
    with pytest.raises(ValueError):
        SlabProfile(())
    profile = SlabProfile((Slab(0.25, 0.0, 0.0, 0.0), Slab(0.75, 1.0, 0.0, 0.0)))
    assert profile.total_length == pytest.approx(1.0)


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
    np.testing.assert_allclose(res.state.cov, np.eye(4), atol=1e-12)


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
    res = propagation.propagate(profile, subdivisions=8)
    assert gaussian.uncertainty_defect(res.state) > -1e-9


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
    np.testing.assert_allclose(res.state.cov, np.eye(4), atol=1e-10)


def test_phase_only_generator_adds_no_noise():
    block = np.array([[0.4j, 0.0], [0.0, -0.9j]])
    res = propagation.propagate_coupling(block)
    assert res.g_a == pytest.approx(1.0, abs=1e-12)
    assert res.figures.f_a == pytest.approx(1.0, abs=1e-12)
    assert res.figures.f_b == pytest.approx(1.0, abs=1e-12)


def test_coupling_propagation_validates_arguments():
    block = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        propagation.propagate_coupling(block, length=0.0)
    with pytest.raises(ValueError):
        propagation.propagate_coupling(block, length=-1.0)
    with pytest.raises(ValueError):
        propagation.exact_channel(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError):
        propagation.coupling_slab_channel(np.zeros((3, 3)), 0.1)


def test_exact_pure_gain_segment_matches_the_amplifier():
    # the second segment has g dz = 7.85, far beyond what one slab may carry
    for slab in (Slab(0.25, 1.2, 0.0, 0.0), Slab(0.5, 15.704219186527428, 0.0, 0.0)):
        r = slab.g * slab.dz
        block = np.array([[0.0, slab.g], [slab.g, 0.0]])
        ch = propagation.exact_channel(block, slab.dz)
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
        ch = propagation.exact_channel(block, slab.dz)
        ref = gaussian.loss_channel(ta, tb)
        np.testing.assert_allclose(ch.transfer, ref.transfer, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(ch.added_noise, ref.added_noise, rtol=1e-13, atol=1e-15)
        res = propagation.propagate_exact(SlabProfile((slab,)))
        assert res.g_a == pytest.approx(ta, rel=1e-13)
        assert res.g_b == 0.0
        np.testing.assert_allclose(res.state.cov, np.eye(4), atol=1e-13)


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
    return np.abs(a.state.cov - b.state.cov).max() / np.abs(b.state.cov).max()


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
    exact = propagation.propagate_exact(profile)
    # start where every slab carries at most a quarter of e-folding
    n = int(4.0 * max(max(r) for r in rates) * dz) + 1
    gaps = [
        _relative_gap(propagation.propagate(profile, subdivisions=n * 2**j), exact)
        for j in range(3)
    ]
    # second-order splitting: each doubling cuts the gap by about 4
    assert gaps[1] <= 0.3 * gaps[0] + 1e-10
    assert gaps[2] <= 0.3 * gaps[1] + 1e-10


def test_refinement_converges_on_a_mixed_profile():
    profile = SlabProfile((Slab(1.0, 0.8, 0.5, 0.3),))
    res, doublings = propagation.refine_until_converged(profile, tol=1e-8)
    assert doublings >= 1
    tight = propagation.propagate(profile, subdivisions=4 * 8 * 2**doublings)
    assert res.gemellity == pytest.approx(tight.gemellity, abs=1e-7)
    exact = propagation.propagate_exact(profile)
    assert res.gemellity == pytest.approx(exact.gemellity, abs=1e-7)


def test_refinement_validates_and_reports_failure():
    profile = SlabProfile((Slab(1.0, 0.8, 0.5, 0.3),))
    with pytest.raises(ValueError):
        propagation.refine_until_converged(profile, tol=0.0)
    with pytest.raises(RuntimeError):
        propagation.refine_until_converged(profile, tol=1e-16, max_doublings=2)


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
    exact = propagation.exact_channel(block, 1.0)
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
    _assert_close_to_exp(propagation._expm2x2(block[None])[0], block)


def test_closed_form_2x2_exponential_is_exact_at_zero():
    assert np.array_equal(propagation._expm2x2(np.zeros((1, 2, 2), complex))[0], np.eye(2))


def test_closed_form_2x2_exponential_marks_points_beyond_the_float_range():
    # exponents from moderate to far past the float range: no operation
    # overflows (pytest makes the warning an error), a point beyond the range
    # is all inf, and every other point keeps its stack-of-one bits
    rng = np.random.default_rng(12)
    scale = np.logspace(0.0, 3.0, 400)[:, None, None]
    blocks = (rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))) * scale
    e = propagation._expm2x2(blocks)
    over = ~np.isfinite(e).all(axis=(1, 2))
    assert 0 < over.sum() < 400
    assert np.all(e[over] == np.inf)
    for block, got in zip(blocks[~over][::10], e[~over][::10]):
        assert np.array_equal(got, propagation._expm2x2(block[None])[0])
        _assert_close_to_exp(got, block)


def test_closed_form_2x2_exponential_takes_blocks_past_the_float_range():
    # |s| past 1e154, where h^2 or b01 b10 overflows: s and t come from h
    # and q over a power of two, and no operation warns (pytest makes that
    # an error)
    big = 10.0 ** np.array([160.0, 200.0, 300.0])[:, None, None]
    damped = big * np.array([[-1.0, 1e-3j], [2e-3, -1.5 + 1j]])  # both exponents about -big
    e = propagation._expm2x2(damped)
    assert np.array_equal(e, np.zeros_like(e))
    growing = big * np.array([[0.5, 1e-3j], [2e-3, -1.5 + 1j]])
    assert np.all(propagation._expm2x2(growing) == np.inf)
    # a stiff block: exponents near 0 and -2^600, so a finite e^B whose
    # entries span 600 binary orders
    stiff = np.array([[0.5j, 2.0**590 * (1 + 1j)], [3.0, -(2.0**600)]])
    got = propagation._expm2x2(stiff[None])[0]
    with mpmath.workdps(60):
        exact = np.array(mpmath.expm(mpmath.matrix(stiff.tolist())).tolist(), dtype=complex)
    assert np.all(np.abs(got - exact) <= 1e-15 * np.abs(exact))


@pytest.mark.parametrize("norm", [1e-3, 0.5, 5.0, 20.0, 80.0])
def test_pade_exponential_matches_a_50_digit_reference(norm):
    # unscaled up to the Pade-13 bound 5.37, scaled and squared beyond it
    rng = np.random.default_rng(int(norm * 1000))
    for _ in range(5):
        # a real 8x8 matrix, and a complex 4x4 one like the pair Van Loan block
        real, cplx = rng.normal(size=(8, 8)), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for a in (real, cplx):
            a *= norm / np.abs(a).sum(axis=0).max()
            _assert_close_to_exp(propagation._expm(a), a)
    assert np.array_equal(propagation._expm(np.zeros((8, 8))), np.eye(8))
    assert np.array_equal(propagation._expm(np.zeros((4, 4), complex)), np.eye(4))


def _matrices(pair):
    """(M, Q) arrays of a closed-form pair map of plain floats."""
    (a, b, c, d), (x, y, z) = pair
    return np.array([[a, b], [c, d]]), np.array([[x, y], [y, z]])


def _cp_scale(transfer, noise):
    return max(1.0, np.abs(transfer).max() ** 2, np.abs(noise).max())


def _pair_chain(rates):
    dz = 1.0 / len(rates)
    pairs = [propagation._pair_segment(Slab(dz, *r)) for r in rates]
    total = pairs[0]
    for pair in pairs[1:]:
        total = propagation._pair_compose(pair, total)
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
    transfer, noise = _matrices(propagation._pair_segment(slab))
    exact_m, exact_q = propagation._pair_map(block, slab.dz)
    scale = _cp_scale(exact_m, exact_q)
    np.testing.assert_allclose(
        transfer, exact_m, rtol=0.0, atol=1e-13 * np.abs(exact_m).max()
    )
    np.testing.assert_allclose(noise, exact_q, rtol=0.0, atol=1e-13 * scale)
    # the closed form rests on diag(alpha_a, alpha_b) being the minimal
    # diffusion of a real block; the pair engine's |H| gives it to rounding
    # (read off the block, where alpha / 2 may underflow)
    rates = -2.0 * np.diag(block)
    np.testing.assert_allclose(
        propagation._pair_diffusion(block), np.diag(rates), rtol=1e-15, atol=1e-15 * rates.max()
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=4))
def test_pair_cp_defect_equals_that_of_the_lifted_channel(rates):
    pairs, total = _pair_chain(rates)
    lifted = [propagation._lift(_matrices(pair)) for pair in pairs]
    composed = lifted[0]
    for channel in lifted[1:]:
        composed = gaussian.compose(channel, composed)
    total_channel = propagation._lift(_matrices(total))
    transfer, noise = total_channel.transfer, total_channel.added_noise
    scale = _cp_scale(transfer, noise)
    np.testing.assert_allclose(transfer, composed.transfer, rtol=0.0, atol=1e-13 * scale**0.5)
    np.testing.assert_allclose(noise, composed.added_noise, rtol=0.0, atol=1e-13 * scale)
    for pair, channel in zip(pairs + [total], lifted + [composed]):
        got = propagation._pair_cp_defect(pair)
        want = gaussian.cp_defect(channel)
        assert abs(got - want) <= 1e-13 * _cp_scale(channel.transfer, channel.added_noise)


@pytest.mark.parametrize(
    "slab",
    [Slab(0.5, 3.0, 0.0, 0.0), Slab(1.0, 2.0, 5.0, 1.0), Slab(0.5, 15.7, 0.0, 8.0)],
)
def test_pair_cp_check_rejects_a_noise_pushed_below_cp(slab):
    pair = propagation._pair_segment(slab)
    propagation._check_pair_cp(pair)
    transfer, (x, y, z) = pair
    # lowering both diagonal entries lowers every eigenvalue by as much
    below = 1e-6 * _cp_scale(*_matrices(pair))
    push = propagation._pair_cp_defect(pair) + below
    pushed = (transfer, (x - push, y, z - push))
    # the lifted channel cannot be built, so its defect is read off directly
    t, n = (gaussian.transfer_from_mode_matrix(a) for a in _matrices(pushed))
    want = gaussian.cp_defect(types.SimpleNamespace(transfer=t, added_noise=n))
    assert want == pytest.approx(-below, rel=1e-3)
    assert abs(propagation._pair_cp_defect(pushed) - want) <= 1e-13 * _cp_scale(t, n)
    with pytest.raises(ValueError, match="not completely positive"):
        propagation._check_pair_cp(pushed)
    with pytest.raises(ValueError, match="not completely positive"):
        propagation._lift(_matrices(pushed))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATE, _RATE, _RATE), min_size=1, max_size=3))
@example([(2.2250738585e-313, 0.0, 2.2250738585e-313)])  # subnormal g and h
def test_search_objective_matches_propagate_exact(rates):
    profile = SlabProfile(tuple(Slab(1.0 / len(rates), *r) for r in rates))
    gem, infeasibility = propagation._pair_objective(profile)
    exact = propagation.propagate_exact(profile)
    # both cancel fluxes of the size of the noise figures
    size = max(1.0, exact.figures.f_a, exact.figures.f_b)
    assert gem == pytest.approx(exact.gemellity, rel=0.0, abs=1e-13 * size)
    assert infeasibility == pytest.approx(
        abs(exact.sum_transmission - 1.0), rel=0.0, abs=1e-13 * size
    )


def _mpmath_abs(h):
    """|H| of a Hermitian mpmath matrix from its eigendecomposition."""
    e, v = mpmath.eighe(h)
    return v * mpmath.diag([abs(x) for x in e]) * v.H


def _mpmath_pair_maps(segments, digits):
    """Pair maps of complex generators at `digits` digits, and their product.

    For each (B, L): M = e^{BL} and Q from the Van Loan block
    [[-B, D], [0, B^dag]] with D = |B eta + eta B^dag|, eta = diag(1, -1),
    taken over L / 2^k with ||B||_1 L / 2^k <= 1 and squared k times, so
    no entry grows like e^{-BL}.
    """
    with mpmath.workdps(digits):
        eta = mpmath.diag([1, -1])
        maps = []
        for block, length in segments:
            block = np.asarray(block, dtype=complex)
            b = mpmath.matrix(block.tolist())
            k = max(0, math.ceil(math.log2(np.abs(block).sum(axis=0).max() * length)))
            van_loan = mpmath.zeros(4)
            van_loan[0:2, 0:2] = -b
            van_loan[0:2, 2:4] = _mpmath_abs(b * eta + eta * b.H)
            van_loan[2:4, 2:4] = b.H
            e = mpmath.expm(van_loan * (mpmath.mpf(length) / 2**k))
            m = e[2:4, 2:4].H
            q = m * e[0:2, 2:4]
            for _ in range(k):
                m, q = m * m, m * q * m.H + q
            maps.append((m, (q + q.H) / 2))
        m, q = maps[0]
        for m2, q2 in maps[1:]:
            m, q = m2 * m, m2 * q * m2.H + q2
        return maps, (m, q)


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
    segments, (transfer, noise) = _mpmath_pair_maps(zip(blocks, lengths), 60)
    for slab, block, (m, q) in zip(profile.slabs, blocks, segments):
        m, q = _as_array(m), _as_array(q)
        scale = _cp_scale(m, q)
        # the search's closed form and the pair engine
        closed = _matrices(propagation._pair_segment(slab))
        for got_m, got_q in (closed, propagation._pair_map(block, slab.dz)):
            np.testing.assert_allclose(got_m, m, rtol=0.0, atol=1e-14 * np.abs(m).max())
            np.testing.assert_allclose(got_q, q, rtol=0.0, atol=1e-14 * scale)
    with mpmath.workdps(60):
        cov = transfer * transfer.H + noise
        f_a, f_b, c = mpmath.re(cov[0, 0]), mpmath.re(cov[1, 1]), mpmath.re(cov[0, 1])
        gem = float((f_a + f_b) / 2 - mpmath.sqrt(c * c + ((f_a - f_b) / 2) ** 2))
        flux = float(abs(transfer[0, 0]) ** 2 + abs(transfer[1, 0]) ** 2)
        size = float(max(f_a, f_b))
    got, infeasibility = propagation._pair_objective(profile)
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
        _, pair = _mpmath_pair_maps([(block, 1.0)], 80)
        transfer, noise = (gaussian.transfer_from_mode_matrix(_as_array(x)) for x in pair)
        got = propagation.exact_channel(block, 1.0)
        scale = _cp_scale(transfer, noise)
        np.testing.assert_allclose(got.transfer, transfer, rtol=0.0, atol=1e-13 * scale**0.5)
        np.testing.assert_allclose(got.added_noise, noise, rtol=0.0, atol=1e-13 * scale)
        # M is the closed-form exponential; taken from the Van Loan squarings
        # it was 2.8e-14 off here
        m, exact_m = propagation._pair_map(block, 1.0)[0], _as_array(pair[0])
        assert np.abs(m - exact_m).max() <= 4e-15 * np.abs(exact_m).max()
        # the printed gemellity, against that of the correctly rounded map
        want = propagation._result_from_channel(gaussian.GaussianChannel(transfer, noise))
        res = propagation.propagate_coupling(block)
        assert res.gemellity_db == pytest.approx(want.gemellity_db, rel=0.0, abs=1e-12)


def _count_channel_calls(monkeypatch):
    calls = {"cp_defect": 0, "compose": 0, "compose_power": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(gaussian, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gaussian, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_propagate_exact_lifts_once_and_composes_no_channel(monkeypatch, n):
    segments = (Slab(0.5, 3.0, 0.0, 0.0), Slab(0.25, 7.0, 2.0, 19.0), Slab(0.25, 0.0, 11.0, 4.0))
    calls = _count_channel_calls(monkeypatch)
    propagation.propagate_exact(SlabProfile(segments[:n]))
    assert calls == {"cp_defect": 1, "compose": 0, "compose_power": 0}


@pytest.mark.parametrize(
    "block, length",
    [
        # the default sweep's -40.4 MHz generator: ||B||_1 = 202, 8 squarings
        (_default_sweep_blocks([137])[0], 1.0),
        (np.array([[0.4j, 0.3], [0.3, -0.2 - 0.1j]]), 7.0),
    ],
)
def test_propagate_coupling_lifts_once_and_composes_no_channel(monkeypatch, block, length):
    calls = _count_channel_calls(monkeypatch)
    propagation.propagate_coupling(block, length)
    assert calls == {"cp_defect": 1, "compose": 0, "compose_power": 0}


@pytest.mark.parametrize(
    "seed, gemellity", [(0, 0.2231301601484299), (1, 0.18973527216087405)]
)
def test_two_segment_searches_keep_their_optima(seed, gemellity):
    out = propagation.search_beyond_lumped_limit(n_segments=2, seed=seed)
    assert out.found
    assert out.result.gemellity == pytest.approx(gemellity, rel=1e-12)


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
