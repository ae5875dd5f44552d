"""Covariance states, Gaussian channels, and their composition laws."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import atomic, gaussian, propagation
from twinbeam.configio import angular_from_mhz


def test_vacuum_state_is_identity_covariance():
    v = gaussian.vacuum_state()
    assert np.array_equal(v.cov, np.eye(4))
    assert np.all(v.mean == 0)
    assert gaussian.uncertainty_defect(v) >= -gaussian._CP_TOL


def test_coherent_input_mean_and_quadratures():
    s = gaussian.coherent_input(1.5 - 0.5j, 0.25j)
    assert np.array_equal(s.cov, np.eye(4))
    assert s.mean[0] == 1.5 - 0.5j and s.mean[1] == 0.25j


def test_covariance_must_be_symmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        gaussian.CovarianceState(bad, np.zeros(2, dtype=complex))


def test_mean_shape_validated():
    with pytest.raises(ValueError):
        gaussian.CovarianceState(np.eye(4), np.zeros(3, dtype=complex))


def test_unphysical_covariance_detected():
    squeezed_below_vacuum = np.diag([0.1, 0.1, 1.0, 1.0])
    s = gaussian.CovarianceState(squeezed_below_vacuum, np.zeros(2, dtype=complex))
    assert gaussian.uncertainty_defect(s) < -0.5


def test_amplifier_channel_covariance_closed_form():
    # a -> sqrt(G) a + sqrt(G-1) b^dag gives variance 2G-1 on each mode
    # and cross correlation 2 sqrt(G(G-1)) between like quadratures
    g = 1.23
    out = gaussian.apply(gaussian.amplifier_channel(g), gaussian.vacuum_state())
    f = 2 * g - 1
    c = 2 * np.sqrt(g * (g - 1))
    expected = np.array(
        [
            [f, 0, c, 0],
            [0, f, 0, -c],
            [c, 0, f, 0],
            [0, -c, 0, f],
        ]
    )
    assert np.allclose(out.cov, expected, atol=1e-12)
    assert gaussian.uncertainty_defect(out) >= -gaussian._CP_TOL


def test_amplifier_mean_map():
    g = 2.0
    alpha, beta = 0.7 + 0.2j, -0.1 + 0.4j
    out = gaussian.apply(gaussian.amplifier_channel(g), gaussian.coherent_input(alpha, beta))
    assert np.isclose(out.mean[0], np.sqrt(g) * alpha + np.sqrt(g - 1) * np.conj(beta))
    assert np.isclose(out.mean[1], np.sqrt(g) * beta + np.sqrt(g - 1) * np.conj(alpha))


def test_amplifier_gain_below_one_rejected():
    with pytest.raises(ValueError):
        gaussian.amplifier_channel(0.99)


def test_loss_on_vacuum_is_vacuum():
    out = gaussian.apply(gaussian.loss_channel(0.3, 0.8), gaussian.vacuum_state())
    assert np.allclose(out.cov, np.eye(4), atol=1e-12)


def test_loss_mean_scaling():
    out = gaussian.apply(gaussian.loss_channel(0.25, 1.0), gaussian.coherent_input(2.0, 1.0))
    assert np.isclose(out.mean[0], 1.0)  # sqrt(0.25) * 2
    assert np.isclose(out.mean[1], 1.0)


def test_loss_transmission_range_checked():
    with pytest.raises(ValueError):
        gaussian.loss_channel(1.2, 0.5)
    with pytest.raises(ValueError):
        gaussian.loss_channel(0.5, -0.1)


def test_rotation_channel_rotates_mean_phase():
    theta = 0.7
    out = gaussian.apply(gaussian.rotation_channel(theta, 0.0), gaussian.coherent_input(1.0))
    assert np.isclose(out.mean[0], np.exp(-1j * theta))
    assert np.allclose(out.cov, np.eye(4), atol=1e-12)


def test_zero_noise_lossy_transfer_rejected():
    lossy = gaussian.loss_channel(0.5, 0.5).transfer
    with pytest.raises(ValueError):
        gaussian.GaussianChannel(lossy, np.zeros((4, 4)))


def test_mode_matrix_reproduces_amplifier_transfer():
    g = 1.7
    e = np.array(
        [
            [np.sqrt(g), np.sqrt(g - 1)],
            [np.sqrt(g - 1), np.sqrt(g)],
        ],
        dtype=complex,
    )
    t = gaussian.transfer_from_mode_matrix(e)
    assert np.allclose(t, gaussian.amplifier_channel(g).transfer, atol=1e-12)


def test_mode_matrix_reproduces_rotation_transfer():
    ta, tb = 0.4, -1.1
    e = np.diag([np.exp(-1j * ta), np.exp(1j * tb)])
    t = gaussian.transfer_from_mode_matrix(e)
    assert np.allclose(t, gaussian.rotation_channel(ta, tb).transfer, atol=1e-12)


def test_minimal_noise_completion_matches_loss():
    ta, tb = 0.3, 0.65
    ch = gaussian.minimal_noise_channel(gaussian.loss_channel(ta, tb).transfer)
    assert np.allclose(ch.added_noise, np.diag([1 - ta, 1 - ta, 1 - tb, 1 - tb]), atol=1e-12)


def test_minimal_noise_vanishes_for_symplectic_transfer():
    ch = gaussian.minimal_noise_channel(gaussian.amplifier_channel(3.0).transfer)
    assert np.max(np.abs(ch.added_noise)) < 1e-12


def test_compose_order_and_noise_law():
    amp = gaussian.amplifier_channel(1.5)
    loss = gaussian.loss_channel(0.6, 0.9)
    both = gaussian.compose(loss, amp)  # amplifier first
    assert np.allclose(both.transfer, loss.transfer @ amp.transfer)
    expected_noise = loss.transfer @ amp.added_noise @ loss.transfer.T + loss.added_noise
    assert np.allclose(both.added_noise, expected_noise)
    # sanity on a state: sequential application agrees
    s = gaussian.coherent_input(1.0)
    step = gaussian.apply(loss, gaussian.apply(amp, s))
    direct = gaussian.apply(both, s)
    assert np.allclose(step.cov, direct.cov, atol=1e-12)
    assert np.allclose(step.mean, direct.mean, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 37])
def test_compose_power_matches_sequential(n):
    ch = gaussian.compose(
        gaussian.loss_channel(0.97, 0.99), gaussian.amplifier_channel(1.02)
    )
    powered = gaussian.compose_power(ch, n)
    seq = ch
    for _ in range(n - 1):
        seq = gaussian.compose(ch, seq)
    assert np.allclose(powered.transfer, seq.transfer, atol=1e-12)
    assert np.allclose(powered.added_noise, seq.added_noise, atol=1e-12)


def test_compose_power_requires_positive_count():
    with pytest.raises(ValueError):
        gaussian.compose_power(gaussian.amplifier_channel(1.1), 0)


_gain = st.floats(min_value=1.0, max_value=4.0)
_trans = st.floats(min_value=0.0, max_value=1.0)
_angle = st.floats(min_value=0.0, max_value=2 * np.pi)


@settings(max_examples=150, deadline=None)
@given(_gain, _trans, _trans, _angle, _angle, _gain)
def test_random_channel_chains_preserve_physicality(g1, ta, tb, tha, thb, g2):
    chain = gaussian.compose(
        gaussian.amplifier_channel(g2),
        gaussian.compose(
            gaussian.rotation_channel(tha, thb),
            gaussian.compose(gaussian.loss_channel(ta, tb), gaussian.amplifier_channel(g1)),
        ),
    )
    out = gaussian.apply(chain, gaussian.coherent_input(1.0, 0.5j))
    assert gaussian.uncertainty_defect(out) >= -1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_minimal_noise_completion_is_always_cp(seed):
    rng = np.random.default_rng(seed)
    transfer = rng.normal(scale=1.2, size=(4, 4))
    ch = gaussian.minimal_noise_channel(transfer)  # would raise if not CP
    assert gaussian.cp_defect(ch) >= -1e-9


def _eigh_abs_i(a):
    """|i a| from eigh of -a^2 and the square roots of its eigenvalues."""
    m = -a @ a
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    n = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (n + n.T)


def _abs_i_errors(transfer):
    """Errors of the minimal noise and of the eigh route, relative to max|D|,
    against |i A| at 50 digits, A = Omega - T Omega T^t of the float T."""
    with mpmath.workdps(50):
        t = mpmath.matrix(transfer.tolist())
        omega = mpmath.matrix(gaussian.SYMPLECTIC_FORM.tolist())
        a = omega - t * omega * t.T
        e, v = mpmath.eigsy(-a * a)
        exact = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in e]) * v.T
        exact = np.array(exact.tolist(), dtype=float)
    size = np.abs(exact).max()
    a = gaussian.SYMPLECTIC_FORM - transfer @ gaussian.SYMPLECTIC_FORM @ transfer.T
    closed = gaussian.minimal_noise_channel(transfer).added_noise
    return np.abs(closed - exact).max() / size, np.abs(_eigh_abs_i(a) - exact).max() / size


def test_minimal_noise_keeps_the_digits_of_a_thin_atomic_slab():
    # a 1/64 slab of the default sweep's -40.4 MHz generator: the small
    # eigenvalues of -A^2 sit far below the large ones, and the square roots
    # of eigh's eigenvalues lose what the closed form keeps
    delta = np.linspace(-150.0, 50.0, 251)[137]
    block = atomic.sideband_blocks(atomic.params_from_mapping({}), [angular_from_mhz(delta)])[0]
    transfer = gaussian.transfer_from_mode_matrix(propagation._expm2x2((block / 64)[None])[0][0])
    closed, eigh = _abs_i_errors(transfer)
    assert closed <= 1e-14
    assert eigh > 1e-11


def test_minimal_noise_is_as_close_as_eigh_on_random_transfers():
    rng = np.random.default_rng(20261018)
    errors = np.array([_abs_i_errors(rng.normal(scale=1.2, size=(4, 4))) for _ in range(60)])
    closed, eigh = errors.T
    # a few rounding units of max|D| on every draw; below that floor a
    # single draw may favour either route, so eigh is compared in bulk
    assert closed.max() <= 4.0 * np.finfo(float).eps
    assert closed.max() <= eigh.max()
    assert np.median(closed) <= np.median(eigh)


@pytest.mark.parametrize("gain, transmission", [(2.0, 0.5), (4e4, 0.25), (4e8, 0.25)])
def test_cp_check_scales_with_the_channel(gain, transmission):
    # lossy gain completed with the least noise sits on the CP boundary;
    # |T|^2 is about 1, 1e4 and 1e8 across the cases
    transfer = np.sqrt(transmission) * gaussian.amplifier_channel(gain).transfer
    ch = gaussian.minimal_noise_channel(transfer)  # as built, it passes
    scale = max(1.0, np.abs(ch.transfer).max() ** 2, np.abs(ch.added_noise).max())
    assert scale == pytest.approx(gain * transmission, rel=1e-3)
    with pytest.raises(ValueError, match="not completely positive"):
        gaussian.GaussianChannel(ch.transfer, ch.added_noise - 1e-6 * scale * np.eye(4))
