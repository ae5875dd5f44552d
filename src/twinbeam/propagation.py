"""Distributed gain and loss along the medium, one exact map per segment.

A profile is a sequence of segments with constant two-mode gain rate g
and power loss rates alpha_a, alpha_b.  A segment is a constant
generator B on the pair (a, b^dag), the real block
[[-alpha_a/2, g], [g, -alpha_b/2]]; the complex sideband generators of
the atomic response model are the same kind of object.  Such a
phase-covariant generator maps the pair by a complex 2x2 transfer M and
adds a Hermitian 2x2 noise Q, and the least noise rate that keeps the
flow completely positive is D = |B eta + eta B^dag|, eta = diag(1, -1):
exactly the vacuum noise injected by absorption and by phase-insensitive
gain.

`_pair_map` solves the flow over a segment without discretization:
Q = integral_0^L e^{Bs} D e^{B^dag s} ds comes from one exponential of
the 4x4 complex Van Loan block [[-B, D], [0, B^dag]] (C. F. Van Loan,
IEEE TAC 23, 395, 1978), with D in closed form.  Since that block
carries e^{-BL}, the exponential is taken over L / 2^k and the map
squared k times, (M, Q) -> (M^2, M Q M^dag + Q), with k fixed by
||B||_1 L; the squaring is the exact semigroup law.  M = e^{BL} itself
is the closed-form 2x2 exponential, which keeps digits the squarings
lose, and which the atomic gain curves share.  Segments compose
as (M2 M1, M2 Q1 M2^dag + Q2), and the product is lifted to a
quadrature `GaussianChannel` once, with one CP check: the transfer is
`transfer_from_mode_matrix(M)`, and a Hermitian Q lifts the same way.
This engine gives every reported result (`exact_channel`,
`propagate_exact`, `propagate_coupling`).  The exponential is `_expm`,
Pade-13 scaling and squaring in numpy (N. J. Higham, SIAM J. Matrix
Anal. Appl. 26, 1179, 2005); a 2x2 generator's own exponential, e^{BL}
for the pair maps, the slab oracle and the atomic gain curves, is the
closed form `_expm2x2`.

The search's evaluations, which only rank candidate profiles, use a
closed form instead.  A real-rate B is symmetric, so e^{BL} and the
noise integral follow from its eigenvalues and one rotation angle; the
map is a real 2x2 transfer and a symmetric 2x2 noise of plain floats,
and a coherent seed's output reduces to three numbers, the two noise
figures and their covariance.  Each map passes the same CP check as a
channel.

The slab discretizations stay as the independent oracles the exact
maps are tested against: `propagate` factorizes each thin slab into
exact half-loss channels around an exact two-mode squeezer and composes
those channels (error second order in the slab width,
`refine_until_converged` halves the width until the gemellity settles),
and `coupling_slab_channel` completes the exact transfer of a thin slab
of a complex generator with the minimal noise (error first order in the
slab width).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .metrics import (
    NoiseFigures,
    _flux_weighted_difference_noise,
    db_from_linear,
    gemellity,
    noise_figures,
)

__all__ = [
    "Slab",
    "SlabProfile",
    "PropagationResult",
    "SearchResult",
    "OutputOverflowError",
    "slab_channel",
    "coupling_slab_channel",
    "exact_channel",
    "propagate",
    "propagate_exact",
    "propagate_coupling",
    "refine_until_converged",
    "search_beyond_lumped_limit",
]

_MAX_SQUEEZE_PER_SLAB = 0.5


class OutputOverflowError(RuntimeError):
    """A propagated output leaves the float range."""


@dataclass(frozen=True)
class Slab:
    """Constant-coefficient medium segment.

    dz is the segment length (the medium has unit total length in
    these normalized coordinates), g the two-mode gain rate and
    alpha_a, alpha_b the probe and conjugate power loss rates.
    """

    dz: float
    g: float
    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        if self.dz <= 0.0:
            raise ValueError(f"slab length must be positive, got {self.dz}")
        for name, rate in (
            ("g", self.g),
            ("alpha_a", self.alpha_a),
            ("alpha_b", self.alpha_b),
        ):
            if rate < 0.0:
                raise ValueError(f"rate {name} must be nonnegative, got {rate}")


@dataclass(frozen=True)
class SlabProfile:
    """Ordered segments, first entry is where the light enters."""

    slabs: tuple[Slab, ...]

    def __post_init__(self):
        slabs = tuple(self.slabs)
        if not slabs:
            raise ValueError("profile must contain at least one slab")
        object.__setattr__(self, "slabs", slabs)

    @property
    def total_length(self) -> float:
        return float(sum(s.dz for s in self.slabs))


@dataclass(frozen=True)
class PropagationResult:
    """Output state and derived twin-beam observables.

    g_a and g_b are output fluxes per unit coherent probe seed, read
    off the composed transfer; sum_transmission = g_a + g_b is 1 for a
    flux-neutral medium.  diff_noise weights the photocurrents by the
    actual fluxes, gemellity optimizes the weights.
    """

    state: gaussian.CovarianceState
    g_a: float
    g_b: float
    sum_transmission: float
    figures: NoiseFigures
    gemellity: float
    gemellity_db: float
    diff_noise: float


@dataclass(frozen=True)
class SearchResult:
    """Best profile found by the beyond-the-lumped-limit search."""

    profile: SlabProfile
    result: PropagationResult
    found: bool
    evaluations: int


_LOG_MAX = math.log(sys.float_info.max)  # e^x leaves the float range beyond this x


def _expm2x2(blocks: np.ndarray) -> np.ndarray:
    """e^B of every complex 2x2 matrix in an (N, 2, 2) stack, in closed form.

    By Cayley-Hamilton e^B = e^m (cosh s I + sinh(s)/s (B - m I)), with
    m = tr(B)/2, h = (b00 - b11)/2 and s^2 = h^2 + b01 b10 (D. S. Bernstein
    and W. So, IEEE TAC 38, 1228, 1993).  For |s| > 1/2 the same form is
    evaluated at the eigenvalues b11 + t and b00 - t, t = b01 b10 / (s - h),
    with the sign of s that keeps s - h free of cancellation, so a small
    eigenvalue next to a large one keeps its digits; near s = 0, sinh(s)/s
    is a series.  Each entry's arithmetic is independent of the stack.

    Every intermediate of a point is at most e^x 4 k, with x the largest
    real part of its exponents and k the largest of 1, |b01|, |b10|, |h|
    and, for |s| > 1/2, |t| and |s - h|.  A point where that bound leaves
    the float range gets inf entries, computed from 0 in place of its
    exponents, so that no operation overflows.  The squares h^2 and
    b01 b10 overflow once |s| passes about 1e154, so a point whose h or
    sqrt(|b01 b10|) passes 2^500 forms s and t of its h and q over an
    exact power of two r between half and all of the larger of the two,
    and scales them back.
    """
    b00, b01, b10, b11 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    m, h = 0.5 * (b00 + b11), 0.5 * (b00 - b11)
    k = np.maximum(np.maximum(np.abs(b01), np.abs(b10)), np.maximum(np.abs(h), 1.0))
    hr, b01r, b10r, r = h, b01, b10, np.ones(k.shape)
    big = np.zeros(k.shape, dtype=bool)
    if np.any(k > 2.0**500):  # k bounds |h| and sqrt(|b01 b10|)
        size = np.maximum(np.abs(h), np.sqrt(np.abs(b01)) * np.sqrt(np.abs(b10)))
        big = size > 2.0**500
        r = np.where(big, np.ldexp(1.0, np.frexp(size)[1] - 1), 1.0)
        hr, b01r, b10r = (np.where(big, x / r, x) for x in (h, b01, b10))
    qr = b01r * b10r
    sr = np.sqrt(hr * hr + qr)
    sr = np.where((sr * hr.conj()).real > 0.0, -sr, sr)  # so that |s - h| >= |s + h|
    s = np.where(big, sr * r, sr)
    # d = (e^{m+s} - e^{m-s}) / (2 s), the off-diagonal factor
    d, e00, e11 = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    over = np.empty(s.shape, dtype=bool)
    far = np.abs(s) > 0.5
    near = ~far
    if np.any(far):
        sf, hf = s[far], h[far]
        t = qr[far] / (sr[far] - hr[far])  # t = b01 b10 / (s - h), over r
        t = np.where(big[far], t * r[far], t)
        x_up, x_down = b11[far] + t, b00[far] - t
        kf = np.maximum(k[far], np.maximum(np.abs(t), np.abs(sf - hf)))
        over[far] = np.maximum(x_up.real, x_down.real) + np.log(kf) + np.log(4.0) > _LOG_MAX
        up = np.exp(np.where(over[far], 0.0, x_up))
        down = np.exp(np.where(over[far], 0.0, x_down))
        d[far] = (up - down) / (2.0 * sf)
        e00[far] = (t * up + (sf - hf) * down) / (2.0 * sf)
        e11[far] = ((sf - hf) * up + t * down) / (2.0 * sf)
    if np.any(near):
        over[near] = m[near].real + np.log(k[near]) + np.log(4.0) > _LOG_MAX
        sn, em = s[near], np.exp(np.where(over[near], 0.0, m[near]))
        tiny = np.abs(sn) < 1e-4
        sinhc = np.where(tiny, 1.0 + sn * sn / 6.0, np.sinh(sn) / np.where(tiny, 1.0, sn))
        d[near], c = em * sinhc, em * np.cosh(sn)
        e00[near], e11[near] = c + h[near] * d[near], c - h[near] * d[near]
    out = np.empty_like(blocks)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = e00, b01 * d, b10 * d, e11
    out[over] = np.inf
    return out


def _fluxes(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 = Re(z)^2 + Im(z)^2 of every complex transfer amplitude z.

    Python floats overflow to inf without a warning, so amplitudes past
    the float range give infinite fluxes quietly.
    """
    pairs = zip(amplitudes.real.tolist(), amplitudes.imag.tolist())
    return np.array([x * x + y * y for x, y in pairs])


# Pade-13 numerator coefficients and the largest 1-norm it takes without
# scaling (N. J. Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005)."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    ident = np.eye(len(a))
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: the identity is not rounded
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(squarings):
        r = r @ r
    return r


def slab_channel(slab: Slab, dz: float | None = None) -> gaussian.GaussianChannel:
    """Symmetric loss-squeeze-loss factorization of one thin slab.

    An optional dz overrides the slab's own length (used when
    subdividing).  Splitting the loss symmetrically around the
    squeezer makes the factorization error second order in the slab
    width.  The squeeze parameter g dz must stay below 0.5; subdivide
    instead of building thicker slabs.
    """
    h = slab.dz if dz is None else dz
    r = slab.g * h
    if r >= _MAX_SQUEEZE_PER_SLAB:
        raise ValueError(
            f"slab squeeze parameter g*dz = {r:.3f} too large; subdivide the segment"
        )
    channel = gaussian._two_mode_squeezer(float(np.cosh(r)), float(np.sinh(r)))
    if slab.alpha_a > 0.0 or slab.alpha_b > 0.0:
        half = gaussian.loss_channel(
            float(np.exp(-slab.alpha_a * h / 2.0)), float(np.exp(-slab.alpha_b * h / 2.0))
        )
        channel = gaussian.compose(half, gaussian.compose(channel, half))
    return channel


def coupling_slab_channel(block: np.ndarray, dz: float) -> gaussian.GaussianChannel:
    """First-order CP slab for a complex generator, see module docstring."""
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"pair-basis generator must be 2x2, got {block.shape}")
    e = _expm2x2((block * dz)[None])[0]
    return gaussian.minimal_noise_channel(gaussian.transfer_from_mode_matrix(e))


def _pair_diffusion(block: np.ndarray) -> np.ndarray:
    """Least noise rate |H| of a pair generator, H = B eta + eta B^dag.

    For a Hermitian 2x2 H with eigenvalues l1, l2, Cayley-Hamilton gives
    |H| = (H^2 + |det H| I) / (|l1| + |l2|), with |l1| + |l2| the larger
    of |tr H| and the eigenvalue gap; no square root of an eigenvalue is
    taken, so a small eigenvalue next to a large one keeps its digits.
    """
    # H = [[x, y], [y*, z]], eta = diag(1, -1)
    x, z = 2.0 * block[0, 0].real, -2.0 * block[1, 1].real
    y = complex(block[1, 0].conjugate() - block[0, 1])
    total = max(abs(x + z), math.hypot(x - z, 2.0 * abs(y)))
    if total == 0.0:
        return np.zeros((2, 2), dtype=complex)
    # work on H / 2^e, an exact scaling, so that no square under- or overflows
    exponent = math.frexp(total)[1]
    if exponent >= sys.float_info.max_exp:  # 2^e itself is past the float range
        raise OverflowError(f"pair generator's noise rate, of trace {total:.6e}, is out of range")
    scale = 2.0 ** exponent
    x, z, y, total = x / scale, z / scale, y / scale, total / scale
    yy = abs(y) ** 2
    det = abs(x * z - yy)
    off = y * (x + z) / total
    return scale * np.array(
        [[(x * x + yy + det) / total, off], [off.conjugate(), (z * z + yy + det) / total]]
    )


def _pair_map(block: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (M, Q) of a constant pair generator B over a length.

    Q = int_0^L e^{Bs} D e^{B^dag s} ds, D = `_pair_diffusion`, from one
    exponential of the complex Van Loan block [[-B, D], [0, B^dag]] over
    L / 2^k, then k squarings (M, Q) -> (M^2, M Q M^dag + Q).  M = e^{BL}
    is the closed form `_expm2x2`: the squarings lose digits of it, some
    1e-14 at ||B||_1 L of about 200.
    """
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"pair-basis generator must be 2x2, got {block.shape}")
    if length <= 0.0:
        raise ValueError(f"length must be positive, got {length}")
    norm = float(np.abs(block).sum(axis=0).max()) * length
    k = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    van_loan = np.zeros((4, 4), dtype=complex)
    van_loan[:2, :2] = -block
    van_loan[:2, 2:] = _pair_diffusion(block)
    van_loan[2:, 2:] = block.conj().T
    e = _expm(van_loan * (length / 2**k))
    m = e[2:, 2:].conj().T
    q = m @ e[:2, 2:]
    for i in range(k):
        q = m @ q @ m.conj().T + q
        if i + 1 < k:
            m = m @ m
    return _expm2x2((block * length)[None])[0], 0.5 * (q + q.conj().T)


def _lift(pair: tuple[np.ndarray, np.ndarray]) -> gaussian.GaussianChannel:
    """The 4x4 channel of a pair map; a Hermitian Q lifts like a mode matrix."""
    m, q = pair
    return gaussian.GaussianChannel(
        gaussian.transfer_from_mode_matrix(m), gaussian.transfer_from_mode_matrix(q)
    )


def exact_channel(block: np.ndarray, length: float) -> gaussian.GaussianChannel:
    """CP map of a constant pair-basis generator over a length, see module docstring."""
    return _lift(_pair_map(block, length))


# The search's objective runs on closed-form maps in the pair basis.  A
# real-rate segment B = [[p, g], [g, q]] has the minimal diffusion
# diag(alpha_a, alpha_b) whatever g is, so its map (M, Q) is real: a
# row-major 2x2 transfer (a, b, c, d) and a symmetric 2x2 noise (x, y, z)
# of plain floats, the map `_pair_map` gives.


def _pair_segment(slab: Slab) -> tuple[tuple, tuple]:
    """Closed-form (M, Q) of one segment: M = e^{BL}, Q = int_0^L e^{Bs} D e^{Bs} ds.

    B = m I + [[h, g], [g, -h]] with eigenvalues m +- r, r = hypot(h, g),
    and eigenvectors rotated by 1/2 atan2(g, h); in that basis the noise
    integral is D~_ij expm1((lam_i + lam_j) L) / (lam_i + lam_j).
    """
    length, g = slab.dz, slab.g
    alpha_a, alpha_b = slab.alpha_a, slab.alpha_b
    m = -(alpha_a + alpha_b) / 4.0
    h = (alpha_b - alpha_a) / 4.0
    r = math.hypot(h, g)

    def phi(rate):
        return math.expm1(rate * length) / rate if rate != 0.0 else length

    if r < 1e-300:
        # B = m I: a common loss, alpha_a == alpha_b.  Below 1e-300, h and g
        # may be subnormal, too coarse for the rotation, while r L is still
        # negligible beside 1
        em = math.exp(m * length)
        return (em, 0.0, 0.0, em), (alpha_a * phi(2.0 * m), 0.0, alpha_b * phi(2.0 * m))
    # squared cosine and sine of the rotation angle, each formed without
    # cancellation; both are >= 0 since g >= 0
    if h >= 0.0:
        c2, s2 = (r + h) / (2.0 * r), g / r * g / (2.0 * (r + h))
    else:
        c2, s2 = g / r * g / (2.0 * (r - h)), (r - h) / (2.0 * r)
    cs = g / (2.0 * r)
    e1, e2 = math.exp((m + r) * length), math.exp((m - r) * length)
    off = g * math.exp(m * length) * math.sinh(r * length) / r
    f11 = (c2 * alpha_a + s2 * alpha_b) * phi(2.0 * (m + r))
    f22 = (s2 * alpha_a + c2 * alpha_b) * phi(2.0 * (m - r))
    f12 = cs * (alpha_b - alpha_a) * phi(2.0 * m)
    transfer = (c2 * e1 + s2 * e2, off, off, s2 * e1 + c2 * e2)
    noise = (
        c2 * f11 + s2 * f22 - 2.0 * cs * f12,
        cs * (f11 - f22) + (h / r) * f12,
        s2 * f11 + c2 * f22 + 2.0 * cs * f12,
    )
    return transfer, noise


def _pair_compose(second: tuple, first: tuple) -> tuple[tuple, tuple]:
    """Pair map applying `first` then `second`: (M2 M1, M2 Q1 M2^t + Q2)."""
    (a, b, c, d), (x2, y2, z2) = second
    (a1, b1, c1, d1), (x, y, z) = first
    u, v = a * x + b * y, a * y + b * z
    w, t = c * x + d * y, c * y + d * z
    transfer = (a * a1 + b * c1, a * b1 + b * d1, c * a1 + d * c1, c * b1 + d * d1)
    noise = (u * a + v * b + x2, u * c + v * d + y2, w * c + t * d + z2)
    return transfer, noise


def _least_eigenvalue(x: float, y: float, z: float) -> float:
    return 0.5 * (x + z) - math.hypot(0.5 * (x - z), y)


def _pair_cp_defect(pair: tuple) -> float:
    """`gaussian.cp_defect` of the lifted channel: the least eigenvalue of
    Q +- (eta - M eta M^t), eta = diag(1, -1)."""
    (a, b, c, d), (x, y, z) = pair
    wx, wy, wz = 1.0 - a * a + b * b, b * d - a * c, d * d - c * c - 1.0
    return min(
        _least_eigenvalue(x + wx, y + wy, z + wz), _least_eigenvalue(x - wx, y - wy, z - wz)
    )


def _check_pair_cp(pair: tuple) -> None:
    """The CP check of `gaussian.GaussianChannel`, on a pair map."""
    transfer, noise = pair
    scale = max(1.0, max(map(abs, transfer)) ** 2, max(map(abs, noise)))
    gaussian._require_cp(_pair_cp_defect(pair), scale)


def _pair_objective(profile: SlabProfile) -> tuple[float, float]:
    """Gemellity and |G_a + G_b - 1| for a unit coherent probe seed.

    The same numbers `propagate_exact` reports, from the closed-form pair
    maps; every segment map and the composed map pass the CP check.
    """
    total = None
    for slab in profile.slabs:
        pair = _pair_segment(slab)
        _check_pair_cp(pair)
        total = pair if total is None else _pair_compose(pair, total)
    if len(profile.slabs) > 1:
        _check_pair_cp(total)
    (a, b, c, d), (x, y, z) = total
    # the seed's vacuum noise M M^t plus the added noise; both output
    # means are real and nonnegative, so X is the amplitude quadrature
    n_a, n_b, cov = a * a + b * b + x, c * c + d * d + z, a * c + b * d + y
    corr = min(max(cov / math.sqrt(n_a * n_b), -1.0), 1.0)
    return float(gemellity(NoiseFigures(n_a, n_b, corr))), abs(a * a + c * c - 1.0)


def _segment_channel(slab: Slab, subdivisions: int) -> gaussian.GaussianChannel:
    sub = slab_channel(slab, slab.dz / subdivisions)
    return gaussian.compose_power(sub, subdivisions)


def _result_from_channel(channel: gaussian.GaussianChannel) -> PropagationResult:
    """Push a unit coherent probe seed through a channel."""
    state = gaussian.apply(channel, gaussian.coherent_input(1.0))
    # fluxes per unit seed: the seed's transfer column (x_a, p_a, x_b, p_b)
    # read as the two complex amplitudes x + i p
    seed = np.ascontiguousarray(channel.transfer[:, 0]).view(complex)
    g_a, g_b = _fluxes(seed).tolist()
    figures = noise_figures(state)
    gem = float(gemellity(figures))
    return PropagationResult(
        state=state,
        g_a=g_a,
        g_b=g_b,
        sum_transmission=g_a + g_b,
        figures=figures,
        gemellity=gem,
        gemellity_db=db_from_linear(gem) if gem > 0 else -np.inf,
        diff_noise=_flux_weighted_difference_noise(figures, g_a, g_b),
    )


def propagate(profile: SlabProfile, subdivisions: int = 1) -> PropagationResult:
    """Push a unit coherent probe seed through the profile, `subdivisions`
    slabs per segment."""
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    total = None
    for slab in profile.slabs:
        seg = _segment_channel(slab, subdivisions)
        total = seg if total is None else gaussian.compose(seg, total)
    return _result_from_channel(total)


def propagate_exact(profile: SlabProfile) -> PropagationResult:
    """Push a unit coherent probe seed through the profile, one exact map
    per segment.

    The segment maps compose in the pair basis, (M2 M1, M2 Q1 M2^dag + Q2),
    and the product is lifted to a channel once.
    """
    m, q = np.eye(2), np.zeros((2, 2))
    for s in profile.slabs:
        m2, q2 = _pair_map([[-s.alpha_a / 2.0, s.g], [s.g, -s.alpha_b / 2.0]], s.dz)
        m, q = m2 @ m, m2 @ q @ m2.conj().T + q2
    return _result_from_channel(_lift((m, q)))


def propagate_coupling(block: np.ndarray, length: float = 1.0) -> PropagationResult:
    """Push a unit coherent probe seed through a constant complex
    pair-basis generator.

    Raises OutputOverflowError when the map or the output's noise figures
    leave the float range, as they do for optical depths of about 1e6.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _result_from_channel(exact_channel(block, length))
    except (OverflowError, FloatingPointError) as exc:
        raise OutputOverflowError(f"output overflows the float range ({exc})") from exc


def refine_until_converged(
    profile: SlabProfile,
    tol: float = 1e-8,
    initial_subdivisions: int = 8,
    max_doublings: int = 20,
) -> tuple[PropagationResult, int]:
    """Halve slab widths until the gemellity stops moving.

    Returns the converged result for a unit coherent probe seed and the
    number of doublings used.
    The factorization error is second order in the slab width, so the
    change per doubling shrinks by about a quarter.
    """
    if tol <= 0.0:
        raise ValueError(f"convergence tolerance must be positive, got {tol}")
    n = initial_subdivisions
    prev = propagate(profile, n)
    for doubling in range(1, max_doublings + 1):
        n *= 2
        cur = propagate(profile, n)
        if abs(cur.gemellity - prev.gemellity) < tol:
            return cur, doubling
        prev = cur
    raise RuntimeError(
        f"slab refinement did not converge to {tol} after {max_doublings} doublings"
    )


def _uniform_profile(rates: np.ndarray, n_segments: int) -> SlabProfile:
    dz = 1.0 / n_segments
    slabs = tuple(
        Slab(dz, float(rates[3 * k]), float(rates[3 * k + 1]), float(rates[3 * k + 2]))
        for k in range(n_segments)
    )
    return SlabProfile(slabs)


def search_beyond_lumped_limit(
    n_segments: int = 2,
    seed: int | None = 0,
    rate_bound: float = 20.0,
    feasibility_tol: float = 0.01,
    target_db: float = -2.8,
    restarts: int = 16,
) -> SearchResult:
    """Look for a flux-neutral profile with gemellity below the lumped limit.

    Pattern search over piecewise-constant profiles (n_segments equal
    segments, rates in [0, rate_bound]) with an escalating penalty on
    |G_a + G_b - 1|, evaluated on the closed-form pair maps (a candidate
    whose map overflows the floating-point range scores as infeasible); the
    reported result is `propagate_exact` of the best feasible profile.
    Placing loss upstream of gain costs no quantum correlation, so
    distributed profiles can beat the lumped gain-then-loss bound; the
    search reports found=False rather than raising when it fails to get
    below target_db.

    The run is deterministic for a fixed seed; seed=None draws fresh
    randomness.
    """
    if not 1 <= n_segments <= 8:
        raise ValueError(f"n_segments must lie in [1, 8], got {n_segments}")
    if rate_bound <= 0.0:
        raise ValueError(f"rate bound must be positive, got {rate_bound}")
    if feasibility_tol <= 0.0:
        raise ValueError(f"feasibility tolerance must be positive, got {feasibility_tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    dim = 3 * n_segments
    evaluations = 0

    def evaluate(x: np.ndarray) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        try:
            return _pair_objective(_uniform_profile(x, n_segments))
        except OverflowError:
            # a map beyond the floating-point range scores as infeasible
            return math.inf, math.inf

    def penalized(x: np.ndarray, mu: float) -> float:
        gem, infeas = evaluate(x)
        return gem + mu * infeas

    best_feasible: tuple[float, np.ndarray] | None = None

    starts = [rng.uniform(0.0, rate_bound, size=dim) for _ in range(restarts)]
    if n_segments >= 2:
        # physically motivated start: attenuate the probe first, amplify
        # after.  Pure upstream loss on a coherent seed leaves the noise
        # at vacuum, so the downstream squeezer reaches its ideal
        # correlation while the loss balances the total flux to one.
        seeded = np.zeros(dim)
        r = 0.75
        seeded[3 * (n_segments - 1)] = r * n_segments
        seeded[1] = np.log(np.cosh(2.0 * r)) * n_segments
        starts[0] = np.clip(seeded, 0.0, rate_bound)

    for x in starts:
        mu = 10.0
        for _escalation in range(4):
            step = rate_bound / 4.0
            fx = penalized(x, mu)
            while step > 1e-3:
                improved = False
                for i in range(dim):
                    for sign in (1.0, -1.0):
                        cand = x.copy()
                        cand[i] = float(np.clip(cand[i] + sign * step, 0.0, rate_bound))
                        if cand[i] == x[i]:
                            continue
                        fc = penalized(cand, mu)
                        if fc < fx:
                            x, fx = cand, fc
                            improved = True
                if not improved:
                    step /= 2.0
            gem, infeas = evaluate(x)
            if infeas <= feasibility_tol:
                if best_feasible is None or gem < best_feasible[0]:
                    best_feasible = (gem, x.copy())
                break
            mu *= 10.0

    if best_feasible is None:
        # nothing feasible at all; report the flux-neutral trivial profile
        trivial = _uniform_profile(np.zeros(dim), n_segments)
        res = propagate_exact(trivial)
        return SearchResult(trivial, res, False, evaluations)

    profile = _uniform_profile(best_feasible[1], n_segments)
    result = propagate_exact(profile)
    found = (
        result.gemellity_db < target_db
        and abs(result.sum_transmission - 1.0) <= feasibility_tol
    )
    return SearchResult(profile, result, bool(found), evaluations)
