"""Two-mode Gaussian states and phase-insensitive Gaussian channels.

Conventions used throughout the package: quadratures are ordered
(X_a, Y_a, X_b, Y_b) with X = a + a^dag and Y = -i(a - a^dag), so the
vacuum covariance is the identity and a variance of 1 is the standard
quantum limit.  Mean fields are carried separately as two complex
amplitudes in square-root photon-flux units.  A channel is a pair
(transfer, added_noise) acting as cov -> T cov T^t + N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SYMPLECTIC_FORM",
    "CovarianceState",
    "GaussianChannel",
    "vacuum_state",
    "coherent_input",
    "amplifier_channel",
    "loss_channel",
    "rotation_channel",
    "apply",
    "compose",
    "compose_power",
    "transfer_from_mode_matrix",
    "minimal_noise_channel",
    "uncertainty_defect",
    "cp_defect",
]

# Block-diagonal symplectic form for [X_a, Y_a, X_b, Y_b]; [X, Y] = 2i
# in this normalization, so physicality reads cov + i*Omega >= 0.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SYMPLECTIC_FORM = np.block(
    [[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]]
)
SYMPLECTIC_FORM.setflags(write=False)

_SYMMETRY_TOL = 1e-12
_CP_TOL = 1e-9


def _as_square(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 real matrix, got shape {arr.shape}")
    _require_finite_entries(arr, name)
    return arr


def _require_finite_entries(arr: np.ndarray, name: str) -> None:
    """Raise a ValueError naming the first non-finite entry of an array."""
    if not np.isfinite(arr).all():
        index = tuple(np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(f"{name} entry [{', '.join(map(str, index))}] must be finite, got {arr[index]}")


def _symmetrize(arr: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(arr).max()))
    defect = float(np.abs(arr - arr.T).max())
    if defect > _SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric (asymmetry {defect:.3e})")
    out = 0.5 * (arr + arr.T)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CovarianceState:
    """Second moments plus mean fields of a two-mode Gaussian state.

    Attributes
    ----------
    cov : (4, 4) ndarray
        Shot-noise normalized quadrature covariance, vacuum = identity.
    mean : (2,) complex ndarray
        Mean amplitudes (probe, conjugate) in sqrt(photon flux) units.
    """

    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        cov = _symmetrize(_as_square(self.cov, "cov"), "cov")
        mean = np.array(self.mean, dtype=complex)
        if mean.shape != (2,):
            raise ValueError(f"mean must have two complex entries, got shape {mean.shape}")
        _require_finite_entries(mean, "mean")
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True)
class GaussianChannel:
    """Deterministic Gaussian map cov -> transfer cov transfer^t + added_noise.

    Construction validates complete positivity: added_noise plus
    i(Omega - T Omega T^t) must be positive semidefinite.
    """

    transfer: np.ndarray
    added_noise: np.ndarray

    def __post_init__(self):
        transfer = _as_square(self.transfer, "transfer")
        transfer.setflags(write=False)
        noise = _symmetrize(_as_square(self.added_noise, "added_noise"), "added_noise")
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "added_noise", noise)
        scale = max(1.0, float(np.abs(transfer).max()) ** 2, float(np.abs(noise).max()))
        _require_cp(cp_defect(self), scale)


def _require_cp(defect: float, scale: float) -> None:
    """Reject a CP defect below -tolerance * scale, where scale is
    max(1, max|T|^2, max|N|): forming T Omega T^t alone rounds at about
    eps |T|^2, so the tolerance scales with the matrices compared."""
    if defect < -_CP_TOL * scale:
        raise ValueError(f"channel is not completely positive (CP defect {defect:.3e})")


def uncertainty_defect(state: CovarianceState) -> float:
    """Minimum eigenvalue of cov + i*Omega; >= 0 for physical states."""
    m = state.cov + 1j * SYMPLECTIC_FORM
    return float(np.linalg.eigvalsh(m)[0])


def cp_defect(channel: GaussianChannel) -> float:
    """Minimum eigenvalue of N + i(Omega - T Omega T^t); >= 0 iff CP."""
    t = channel.transfer
    m = channel.added_noise + 1j * (SYMPLECTIC_FORM - t @ SYMPLECTIC_FORM @ t.T)
    return float(np.linalg.eigvalsh(m)[0])


def vacuum_state() -> CovarianceState:
    return CovarianceState(np.eye(4), np.zeros(2, dtype=complex))


def coherent_input(alpha: complex, beta: complex = 0.0) -> CovarianceState:
    """Coherent seed: probe amplitude alpha, conjugate amplitude beta."""
    return CovarianceState(np.eye(4), np.array([alpha, beta], dtype=complex))


def amplifier_channel(gain: float) -> GaussianChannel:
    """Phase-insensitive amplifier a -> sqrt(G) a + sqrt(G-1) b^dag.

    The transfer is the two-mode squeezer with cosh r = sqrt(G); it is
    symplectic, so no added noise is required.
    """
    if not math.isfinite(gain):
        raise ValueError(f"amplifier gain must be finite, got {gain}")
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    return _two_mode_squeezer(np.sqrt(gain), np.sqrt(gain - 1.0))


def _two_mode_squeezer(c: float, s: float) -> GaussianChannel:
    """Two-mode squeezer a -> c a + s b^dag from c = cosh r, s = sinh r."""
    t = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return GaussianChannel(t, np.zeros((4, 4)))


def loss_channel(probe_transmission: float, conj_transmission: float) -> GaussianChannel:
    """Independent beamsplitter losses with vacuum fed into the open ports."""
    for name, t in (("probe", probe_transmission), ("conjugate", conj_transmission)):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} transmission must lie in [0, 1], got {t}")
    ta, tb = probe_transmission, conj_transmission
    t = np.diag([np.sqrt(ta), np.sqrt(ta), np.sqrt(tb), np.sqrt(tb)])
    n = np.diag([1 - ta, 1 - ta, 1 - tb, 1 - tb])
    return GaussianChannel(t, n)


def rotation_channel(theta_a: float, theta_b: float) -> GaussianChannel:
    """Phase rotation of each mode, a -> e^{-i theta} a in quadrature form."""
    for name, theta in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not math.isfinite(theta):
            raise ValueError(f"{name} must be finite, got {theta}")

    def rot(th):
        c, s = np.cos(th), np.sin(th)
        return np.array([[c, s], [-s, c]])

    t = np.zeros((4, 4))
    t[:2, :2] = rot(theta_a)
    t[2:, 2:] = rot(theta_b)
    return GaussianChannel(t, np.zeros((4, 4)))


def apply(channel: GaussianChannel, state: CovarianceState) -> CovarianceState:
    """Push a state through a channel; means follow the same transfer."""
    t = channel.transfer
    cov = t @ state.cov @ t.T + channel.added_noise
    m = state.mean
    vec = np.array([m[0].real, m[0].imag, m[1].real, m[1].imag])
    out = t @ vec
    mean = np.array([out[0] + 1j * out[1], out[2] + 1j * out[3]])
    return CovarianceState(cov, mean)


def compose(second: GaussianChannel, first: GaussianChannel) -> GaussianChannel:
    """Channel applying `first` then `second`."""
    t2, t1 = second.transfer, first.transfer
    return GaussianChannel(t2 @ t1, t2 @ first.added_noise @ t2.T + second.added_noise)


def compose_power(channel: GaussianChannel, n: int) -> GaussianChannel:
    """Compose a channel with itself n times, by repeated squaring."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"repetition count must be an integer, got {n}")
    if n < 1:
        raise ValueError(f"repetition count must be >= 1, got {n}")
    result = None
    base = channel
    k = n
    while k:
        if k & 1:
            result = base if result is None else compose(base, result)
        k >>= 1
        if k:
            base = compose(base, base)
    return result


def transfer_from_mode_matrix(e: np.ndarray) -> np.ndarray:
    """Quadrature transfer for a linear mode map on (a, b^dag).

    `e` is the complex 2x2 matrix with a' = e00 a + e01 b^dag and
    b^dag' = e10 a + e11 b^dag; the conjugate rows are implied.
    """
    e = np.asarray(e, dtype=complex)
    if e.shape != (2, 2):
        raise ValueError(f"mode matrix must be 2x2, got shape {e.shape}")
    e00, e01, e10, e11 = e[0, 0], e[0, 1], e[1, 0], e[1, 1]
    return np.array(
        [
            [e00.real, -e00.imag, e01.real, e01.imag],
            [e00.imag, e00.real, e01.imag, -e01.real],
            [e10.real, -e10.imag, e11.real, e11.imag],
            [-e10.imag, -e10.real, -e11.imag, e11.real],
        ]
    )


def _abs_i(a: np.ndarray) -> np.ndarray:
    """|i a| (matrix absolute value) of a real antisymmetric 4x4 matrix.

    -a^2 has the eigenvalues s1^2, s2^2 (each twice), where s1 s2 = |Pf a|
    and s1^2 + s2^2 = ||a||_F^2 / 2, so |i a| = (-a^2 + s1 s2 I) / (s1 + s2)
    needs no eigendecomposition and no square root of a small eigenvalue.
    """
    pf = abs(a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2])
    total = math.sqrt(float(np.sum(a * a)) / 2.0 + 2.0 * pf)
    if total == 0.0:
        return np.zeros((4, 4))
    n = (pf * np.eye(4) - a @ a) / total
    return 0.5 * (n + n.T)


def minimal_noise_channel(transfer: np.ndarray) -> GaussianChannel:
    """Complete a (possibly non-symplectic) transfer with the least noise.

    The added noise is |i(Omega - T Omega T^t)| (matrix absolute value),
    which reproduces the exact vacuum noise of loss and of phase
    insensitive gain and vanishes for symplectic transfers.
    """
    t = _as_square(transfer, "transfer")
    return GaussianChannel(t, _abs_i(SYMPLECTIC_FORM - t @ SYMPLECTIC_FORM @ t.T))
