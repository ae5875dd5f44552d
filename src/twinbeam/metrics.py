"""Twin-beam noise criteria: noise figures, difference noise, gemellity.

All quantities are linear relative to the standard quantum limit
(vacuum variance = 1); decibel helpers convert via 10 log10.  The
gemellity of a pair with amplitude noise figures F_a, F_b and
normalized correlation C_ab is

    (F_a + F_b)/2 - sqrt(C_ab^2 F_a F_b + ((F_a - F_b)/2)^2),

the smallest difference noise reachable by optimally weighting the two
photocurrents; values below 1 certify nonclassical twin correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseFigures",
    "InferenceResult",
    "db_from_linear",
    "linear_from_db",
    "noise_figures",
    "gemellity",
    "weighted_difference_noise",
    "infer_from_measurement",
]

_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class NoiseFigures:
    """Amplitude-quadrature noise figures of a beam pair.

    f_a, f_b are the individual variances relative to the SQL and c_ab
    is the normalized amplitude correlation <X_a X_b>/sqrt(F_a F_b).
    """

    f_a: float
    f_b: float
    c_ab: float

    def __post_init__(self):
        for name, value in (("f_a", self.f_a), ("f_b", self.f_b), ("c_ab", self.c_ab)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.f_a <= 0.0 or self.f_b <= 0.0:
            raise ValueError(
                f"noise figures must be positive, got ({self.f_a}, {self.f_b})"
            )
        if abs(self.c_ab) > 1.0 + 1e-9:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.c_ab}")


@dataclass(frozen=True)
class InferenceResult:
    """Noise figures and gemellity reconstructed from measured spectra."""

    figures: NoiseFigures
    gemellity: float
    gemellity_db: float


def db_from_linear(x: float) -> float:
    if math.isnan(x):
        raise ValueError("cannot express ratio nan in dB")
    if x <= 0.0:
        raise ValueError(f"cannot express nonpositive ratio {x} in dB")
    return 10.0 * np.log10(x)


def linear_from_db(x_db: float) -> float:
    """10^(x_db/10), 0.0 below the float range; a ValueError names x_db above it."""
    try:
        return 10.0 ** (float(x_db) / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db:g} dB has no finite linear value") from None


def _rotation_to_mean(mean: complex) -> np.ndarray:
    """2x2 quadrature rotation aligning X with the mean-field phase."""
    phi = np.angle(mean) if abs(mean) > 0 else 0.0
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def noise_figures(state) -> NoiseFigures:
    """Extract amplitude noise figures from a Gaussian state, a
    `gaussian.CovarianceState`.

    The amplitude quadrature of each mode is taken along its mean field
    when the mean is nonzero (intensity detection measures fluctuations
    in phase with the carrier); modes with zero mean use X as is.
    """
    r = np.zeros((4, 4))
    r[:2, :2] = _rotation_to_mean(state.mean[0])
    r[2:, 2:] = _rotation_to_mean(state.mean[1])
    cov = r @ state.cov @ r.T
    f_a, f_b = cov[0, 0], cov[2, 2]
    if f_a < _VARIANCE_FLOOR or f_b < _VARIANCE_FLOOR:
        raise ValueError("degenerate covariance, amplitude variance is not positive")
    c_ab = cov[0, 2] / np.sqrt(f_a * f_b)
    return NoiseFigures(float(f_a), float(f_b), float(np.clip(c_ab, -1.0, 1.0)))


def _gemellity(fa, fb, c):
    """`gemellity` of floats or arrays; either square root is correctly rounded."""
    sqrt = np.sqrt if isinstance(fa, np.ndarray) else math.sqrt
    return (fa + fb) / 2.0 - sqrt(c * c * fa * fb + ((fa - fb) / 2.0) ** 2)


def gemellity(figures: NoiseFigures) -> float:
    """Twin-beam criterion; equals the weighted difference noise at the
    optimal power splitting and is symmetric under beam exchange."""
    return _gemellity(figures.f_a, figures.f_b, figures.c_ab)


def weighted_difference_noise(figures: NoiseFigures, p_a: float, p_b: float) -> float:
    """Intensity-difference noise for beam powers p_a, p_b, relative to
    the SQL of the total detected power."""
    _check_powers(p_a, p_b)
    fa, fb, c = figures.f_a, figures.f_b, figures.c_ab
    num = p_a * fa + p_b * fb - 2.0 * np.sqrt(p_a * p_b) * c * np.sqrt(fa * fb)
    return num / (p_a + p_b)


def _flux_weighted_difference_noise(figures: NoiseFigures, p_a: float, p_b: float) -> float:
    """Difference noise weighted by the actual beam fluxes; without a
    conjugate flux it is the probe's own noise figure."""
    if p_b > 0.0:
        return float(weighted_difference_noise(figures, p_a, p_b))
    return float(figures.f_a)


def _check_powers(p_a: float, p_b: float) -> None:
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        if not math.isfinite(p):
            raise ValueError(f"power {name} must be finite, got {p}")
    if p_a < 0.0 or p_b < 0.0:
        raise ValueError(f"powers must be nonnegative, got ({p_a}, {p_b})")
    if p_a + p_b <= 0.0:
        raise ValueError("total power must be positive")


def infer_from_measurement(
    diff_db: float,
    f_a_db: float,
    f_b_db: float,
    p_a: float,
    p_b: float,
) -> InferenceResult:
    """Reconstruct C_ab and the gemellity from measured spectra; raise
    ValueError for inputs not finite or not consistent, and RuntimeError
    where C_ab or the gemellity in dB has no float value.

    Parameters
    ----------
    diff_db : float
        Intensity-difference noise relative to the SQL of the total
        power, in dB.
    f_a_db, f_b_db : float
        Individual noise figures in dB.
    p_a, p_b : float
        Detected beam powers (any common unit).
    """
    _check_powers(p_a, p_b)
    if p_a == 0.0 or p_b == 0.0:
        raise ValueError("correlation is undefined when one beam power vanishes")
    # the formula is homogeneous in the powers: scaled exactly by a power of
    # two to below 1, they keep every bit and no product overflows
    e = -math.frexp(max(p_a, p_b))[1]
    p_a, p_b = math.ldexp(p_a, e), math.ldexp(p_b, e)
    measured = f"(difference {diff_db:g} dB, F_a {f_a_db:g} dB, F_b {f_b_db:g} dB)"
    try:
        s, fa, fb = (linear_from_db(x) for x in (diff_db, f_a_db, f_b_db))
    except ValueError:
        s = fa = fb = math.inf
    if not all(0.0 < x < math.inf for x in (s, fa, fb)):
        raise ValueError(f"a measured figure has no positive finite linear value {measured}")
    # c and the gemellity are homogeneous, of degree 0 and 1, in (s, F_a, F_b): a power
    # of two, 2^1021 at most, puts the larger figure in [0.5, 1), where no product overflows
    scale = 2.0 ** -max(math.frexp(max(fa, fb))[1], -1021)
    a, b = p_a * (fa * scale), p_b * (fb * scale)
    root_a, root_b = math.sqrt(a), math.sqrt(b)
    if not root_a * root_b > 0.0:
        raise RuntimeError(f"the beams' noise powers lie too far apart for a correlation {measured}")
    # 1 - c = (s (p_a + p_b) - (sqrt a - sqrt b)^2) / (2 sqrt(ab)), a = p_a F_a, b = p_b F_b
    gap = (a - b) / (root_a + root_b)
    one_minus_c = (s * scale * (p_a + p_b) - gap * gap) / (2.0 * root_a * root_b)
    if not -1e-9 <= one_minus_c <= 2.0 + 1e-9:
        raise ValueError(
            f"inferred correlation {1.0 - one_minus_c:.6g} lies outside [-1, 1]; "
            "measurement inputs are inconsistent"
        )
    one_minus_c = min(max(one_minus_c, 0.0), 2.0)
    c = 1.0 - one_minus_c
    # `gemellity` as F_a F_b (1 - c^2) / d, whose d lies in [max(F_a, F_b), F_a + F_b]
    high, low = max(fa, fb) * scale, min(fa, fb) * scale
    d = (high + low) / 2.0 + math.hypot(c * math.sqrt(high) * math.sqrt(low), (high - low) / 2.0)
    g = min(fa, fb) * (one_minus_c * (2.0 - one_minus_c)) * (high / d)
    if not g > 0.0:
        raise RuntimeError(f"the inferred gemellity at C_ab = {c:.17g} is 0, with no dB value {measured}")
    return InferenceResult(NoiseFigures(fa, fb, c), g, db_from_linear(g))
