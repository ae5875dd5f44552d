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

`_pair_maps` solves the flow of a whole stack of generators without
discretization or a per-point loop: M = e^{BL} is the closed-form 2x2
exponential `_expm2x2`, which the atomic gains share (`_pair_gains`), and
Q = int_0^L e^{Bs} D e^{B^dag s} ds is Van Loan's noise integral
(C. F. Van Loan, IEEE TAC 23, 395, 1978) in closed form, on the spectral
projectors of B or, for near eigenvalues, through the Cayley-Hamilton
form.  `_pair_outputs` reads the fluxes, the noise figures and the
gemellity of each map in the pair basis, after one CP check per map in
its complex 2x2 form; it names the first point whose output leaves the
float range, or whose gemellity cancels to no correct digit.  `_pair_maps`
guards each point against that range only where a stack-wide bound, a
few numpy calls, does not clear the whole stack.
Segments compose as (M2 M1, M2 Q1 M2^dag + Q2).  This engine gives every
reported result (`propagate_exact`, `propagate_coupling`, and the
`sweep-delta` grid), and no quadrature state or channel is built on its
way.

The search's evaluations, which only rank candidate profiles, use a
closed form instead.  A real-rate B is symmetric, so e^{BL} and the
noise integral follow from its eigenvalues and one rotation angle; the
map is a real 2x2 transfer and a symmetric 2x2 noise of plain floats,
and a coherent seed's output reduces to three numbers, the two noise
figures and their covariance.  Each map passes the same CP check as a
channel.  A candidate remaps only the segment it moves, reusing the
incumbent's other maps and running products in the order of a full
evaluation, and scores as infeasible when its map overflows, its CP
defect is NaN or its gemellity has no correct digit.

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
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import gaussian
from .metrics import NoiseFigures, _flux_weighted_difference_noise, _gemellity

__all__ = [
    "Slab",
    "SlabProfile",
    "PropagationResult",
    "SearchResult",
    "OutputOverflowError",
    "GemellityRoundingError",
    "slab_channel",
    "coupling_slab_channel",
    "propagate",
    "propagate_exact",
    "propagate_coupling",
    "refine_until_converged",
    "search_beyond_lumped_limit",
]

_MAX_SQUEEZE_PER_SLAB = 0.5


class OutputOverflowError(RuntimeError):
    """A propagated output leaves the float range."""


class GemellityRoundingError(RuntimeError):
    """An output's gemellity cancels below the rounding of its noise figures."""


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


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
        for field in fields(self):
            _check_finite(field.name, getattr(self, field.name))
        if not self.dz > 0.0:
            raise ValueError(f"slab length must be positive, got {self.dz}")
        for name, rate in (
            ("g", self.g),
            ("alpha_a", self.alpha_a),
            ("alpha_b", self.alpha_b),
        ):
            if not rate >= 0.0:
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


@dataclass(frozen=True)
class PropagationResult:
    """Twin-beam observables of the output, read in the pair basis.

    g_a and g_b are output fluxes per unit coherent probe seed, read
    off the composed transfer; sum_transmission = g_a + g_b is 1 for a
    flux-neutral medium.  diff_noise weights the photocurrents by the
    actual fluxes, gemellity optimizes the weights.
    """

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
    evaluations: int  # the candidates scored; none is scored twice at one penalty


_LOG_MAX = math.log(sys.float_info.max)  # e^x leaves the float range beyond this x
# each sum, product and the root of `_gemellity` rounds once, and its root is at
# most S = (F_a + F_b)/2, so they move the gemellity by at most 5u S, u = 2^-53;
# near a gemellity of 0, |c_ab| is near 1 and its own roundings, about 8u, move
# the root by about 8u S more.  Within 16u S of 0 a gemellity has no correct digit
_ROUNDING = 4.0 * sys.float_info.epsilon  # 16u S = _ROUNDING (F_a + F_b); 4 eps = 2^-50


def _split(mask: np.ndarray):
    """Indexes of a mask's points and of the others, None for none and a
    slice, which indexes without copying, for all; one count decides."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return slice(None), None
    return (None, slice(None)) if count == 0 else (mask, ~mask)


def _joined(parts: list, n: int) -> tuple:
    """The 1-d arrays of n points from (index, arrays) parts that cover them,
    a part's own where it covers them all; None joins to None."""
    if len(parts) == 1:
        return parts[0][1]
    joined = [None if x is None else np.empty(n, dtype=x.dtype) for x in parts[0][1]]
    for index, arrays in parts:
        for out, x in zip(joined, arrays):
            if out is not None:
                out[index] = x
    return tuple(joined)


def _tame(blocks: np.ndarray) -> bool:
    """Whether no point of an (N, 2, 2) stack of generators can trip a guard
    of its pair map: with entries at most 2^20 in size and the eigenvalues'
    real parts at most 128 by Gershgorin's bound on the columns, the guards of
    `_expm2x2`, `_near_noise` and `_far_noise` bound every intermediate below
    e^257 2^78, far inside the float range."""
    size = np.abs(blocks)
    reach = blocks.real.diagonal(0, 1, 2) + size[:, ::-1].diagonal(0, 1, 2)
    # counted, not reduced by max: every entry within its bound, and NaN not
    return np.count_nonzero(size <= 2.0**20) == size.size and np.count_nonzero(reach <= 128.0) == reach.size


def _expm2x2(blocks: np.ndarray, first: bool = False):
    """(e, roots): e^B of every complex 2x2 matrix in an (N, 2, 2) stack, in
    closed form, and roots = (m, h, s, t, k, far), the quantities the noise
    integral of `_pair_maps` reuses.  With first, e is only e^B's first
    column, an (N, 2) stack, and nothing of the second column is computed.

    By Cayley-Hamilton e^B = e^m (cosh s I + sinh(s)/s (B - m I)), with
    m = tr(B)/2, h = (b00 - b11)/2 and s^2 = h^2 + b01 b10 (D. S. Bernstein
    and W. So, IEEE TAC 38, 1228, 1993).  For |s| > 1/2 (far) the same form
    is evaluated at the eigenvalues b11 + t and b00 - t, t = b01 b10 / (s - h),
    with the sign of s that keeps s - h free of cancellation, so a small
    eigenvalue next to a large one keeps its digits; near s = 0, sinh(s)/s
    is a series.  Each entry's arithmetic is independent of the stack.  t is
    0 where |s| <= 1/2; m is None where first and no point is near, as no
    far point reads it; k is None where `_tame` clears the stack, so that no
    point is guarded.

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
    h = 0.5 * (b00 - b11)
    tame = _tame(blocks)
    k = None if tame else np.maximum(np.maximum(np.abs(b01), np.abs(b10)), np.maximum(np.abs(h), 1.0))
    hr, b01r, b10r, big = h, b01, b10, None
    if not tame and (k > 2.0**500).any():  # k bounds |h| and sqrt(|b01 b10|)
        size = np.maximum(np.abs(h), np.sqrt(np.abs(b01)) * np.sqrt(np.abs(b10)))
        big = size > 2.0**500
        r = np.where(big, np.ldexp(1.0, np.frexp(size)[1] - 1), 1.0)
        hr, b01r, b10r = (np.where(big, x / r, x) for x in (h, b01, b10))
    qr = b01r * b10r
    sr = np.sqrt(hr * hr + qr)
    np.negative(sr, out=sr, where=(sr * hr.conj()).real > 0.0)  # so that |s - h| >= |s + h|
    s = sr if big is None else np.where(big, sr * r, sr)
    over = None if tame else np.empty(s.shape, dtype=bool)
    far = np.abs(s) > 0.5
    f, n = _split(far)
    m = 0.5 * (b00 + b11) if not first or n is not None else None  # far points' e^B never reads m
    # per part: d = (e^{m+s} - e^{m-s}) / (2 s), the off-diagonal factor, e00, e11 and t
    parts = []
    if f is not None:
        sf, hf = s[f], h[f]
        t = qr[f] / (sr[f] - hr[f])  # t = b01 b10 / (s - h), over r
        t = t if big is None else np.where(big[f], t * r[f], t)
        x_up, x_down = b11[f] + t, b00[f] - t
        if not tame:
            k[f] = np.maximum(k[f], np.maximum(np.abs(t), np.abs(sf - hf)))
            over[f] = np.maximum(x_up.real, x_down.real) + np.log(k[f]) + np.log(4.0) > _LOG_MAX
            x_up, x_down = np.where(over[f], 0.0, x_up), np.where(over[f], 0.0, x_down)
        up, down, two_s, gap = np.exp(x_up), np.exp(x_down), 2.0 * sf, sf - hf
        e11 = None if first else (gap * up + t * down) / two_s
        parts.append((f, ((up - down) / two_s, (t * up + gap * down) / two_s, e11, t)))
    if n is not None:
        sn, em = s[n], m[n]
        if not tame:
            over[n] = m[n].real + np.log(k[n]) + np.log(4.0) > _LOG_MAX
            em = np.where(over[n], 0.0, em)
        em = np.exp(em)
        tiny = np.abs(sn) < 1e-4
        sinhc = np.where(tiny, 1.0 + sn * sn / 6.0, np.sinh(sn) / np.where(tiny, 1.0, sn))
        d, c = em * sinhc, em * np.cosh(sn)
        hd = h[n] * d
        parts.append((n, (d, c + hd, None if first else c - hd, np.zeros_like(sn))))
    d, e00, e11, t = _joined(parts, s.size)
    if first:
        out = np.empty((s.size, 2), dtype=blocks.dtype)
        out[:, 0], out[:, 1] = e00, b10 * d
    else:
        out = np.empty_like(blocks)
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = e00, b01 * d, b10 * d, e11
    if not tame:
        out[over] = np.inf
    return out, (m, h, s, t, k, far)


def _fluxes(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 = Re(z)^2 + Im(z)^2 of every complex transfer amplitude z, the
    IEEE operations of Python floats.  A square past the float range
    overflows; a caller whose amplitudes may pass 2^511 enters the error
    state that makes that quiet."""
    return amplitudes.real * amplitudes.real + amplitudes.imag * amplitudes.imag


def _pair_gains(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G_a, G_b) of every pair generator of an (N, 2, 2) stack: the fluxes of
    e^B's first column, the mean-field transfer `propagate_coupling` reports.
    A stack that `_tame` clears keeps that column's parts far below 2^511 and
    is squared outside any error state; elsewhere inf gains come quietly."""
    column, (*_, k, _far) = _expm2x2(blocks, first=True)
    if k is None:
        return tuple(_fluxes(column).T)
    with np.errstate(over="ignore"):
        return tuple(_fluxes(column).T)


def slab_channel(slab: Slab) -> gaussian.GaussianChannel:
    """Symmetric loss-squeeze-loss factorization of one thin slab.

    Splitting the loss symmetrically around the squeezer makes the
    factorization error second order in the slab width.  The squeeze
    parameter g dz must stay below 0.5; subdivide instead of building
    thicker slabs.
    """
    r = slab.g * slab.dz
    if r >= _MAX_SQUEEZE_PER_SLAB:
        raise ValueError(
            f"slab squeeze parameter g*dz = {r:.3f} too large; subdivide the segment"
        )
    channel = gaussian._two_mode_squeezer(float(np.cosh(r)), float(np.sinh(r)))
    if slab.alpha_a > 0.0 or slab.alpha_b > 0.0:
        half = gaussian.loss_channel(
            float(np.exp(-slab.alpha_a * slab.dz / 2.0)),
            float(np.exp(-slab.alpha_b * slab.dz / 2.0)),
        )
        channel = gaussian.compose(half, gaussian.compose(channel, half))
    return channel


def coupling_slab_channel(block: np.ndarray, dz: float) -> gaussian.GaussianChannel:
    """First-order CP slab for a complex generator, see module docstring."""
    e = _expm2x2(_generator(block) * dz)[0][0]
    return gaussian.minimal_noise_channel(gaussian.transfer_from_mode_matrix(e))


def _generator(block: np.ndarray) -> np.ndarray:
    """A 2x2 pair-basis generator as a complex stack of one."""
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"pair-basis generator must be 2x2, got {block.shape}")
    return block[None]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of 2x2 matrices, entry by entry."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _pair_diffusion(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least noise rate |H| of each pair generator, H = B eta + eta B^dag,
    as (|H| / 2^e, e, tr / 2^e): an exact power-of-two scale and the trace
    norm.

    For a Hermitian 2x2 H with eigenvalues l1, l2, Cayley-Hamilton gives
    |H| = (H^2 + |det H| I) / (|l1| + |l2|), with tr = |l1| + |l2| the
    larger of |tr H| and the eigenvalue gap; no square root of an
    eigenvalue is taken, so a small eigenvalue next to a large one keeps
    its digits.  e, with 2^(e-1) <= tr < 2^e, is read off H / 4, whose
    sums do not overflow; then |H| / 2^e is formed from H / 2^e, scaled
    exactly from the entries, so that no square over- or underflows.  e
    reaches the float range's exponent limit only where 2^e leaves it.
    """
    b00, b01, b10, b11 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    # H = [[x, y], [y*, z]], eta = diag(1, -1); its scale is read off H / 4
    x, z, y = 0.5 * b00.real, -0.5 * b11.real, 0.25 * b10.conj() - 0.25 * b01
    e = np.frexp(np.maximum(np.abs(x + z), np.hypot(x - z, 2.0 * np.abs(y))))[1] + 2
    # H / 2^e, scaled exactly from the entries
    x, z = np.ldexp(b00.real, 1 - e), np.ldexp(-b11.real, 1 - e)
    y = 0.5 * b10.conj() - 0.5 * b01  # |y| <= tr, though b01 and b10 need not be
    y = np.ldexp(y.real, 1 - e) + 1j * np.ldexp(y.imag, 1 - e)
    total = np.maximum(np.abs(x + z), np.hypot(x - z, 2.0 * np.abs(y)))
    scaled = np.where(total == 0.0, 1.0, total)
    yy = y.real * y.real + y.imag * y.imag
    det = np.abs(x * z - yy)
    off = y * (x + z) / scaled
    d = np.empty(blocks.shape, dtype=complex)
    d[:, 0, 0], d[:, 0, 1] = (x * x + yy + det) / scaled, off
    d[:, 1, 0], d[:, 1, 1] = off.conj(), (z * z + yy + det) / scaled
    return d, e, total


def _phi(x: np.ndarray) -> np.ndarray:
    """phi(x) = int_0^1 e^{x u} du = expm1(x) / x, without cancellation; 1
    below |x| = 1e-300, so that no subnormal x divides."""
    tiny = np.abs(x) < 1e-300
    return np.where(tiny, 1.0, np.expm1(x) / np.where(tiny, 1.0, x))


# Moments int_0^1 u^n e^{r u} du up to this n, and the largest |r| whose
# moments come from series; beyond it the recurrence in n is stable
_MOMENTS = 40
# Near r = 0 the series sum_j r^j / (j! (n+j+1)) alternates for r < 0 but
# loses under two bits for |r| <= 1/2; cut after 16 terms, below 1e-18 of
# the sum, it is one product with a constant table.  The near points there
# have |s| <= 1/2 and need half the moments.
_SERIES_TABLE = 1.0 / np.array(
    [[math.factorial(j) * (n + j + 1) for n in range(_MOMENTS // 2)] for j in range(16)], dtype=float
)


def _moments(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, shift, R): sigma[:, n] = R^n e^-shift int_0^1 u^n e^{ru} du,
    n < _MOMENTS, with R = max(1, -r) and shift = r for r > _MOMENTS, else 0.

    For |r| <= 1/2, the series of _SERIES_TABLE, for n < _MOMENTS / 2 only
    (the rest are 0).  For |r| <= _MOMENTS, series of positive terms:
    sum_j r^j / (j! (n+j+1)) for r >= 0 and e^r sum_j n! |r|^j / (n+j+1)!
    for r < 0, each cut at 20 + 2.5 |r| terms, where the next is below 1e-18
    of the sum.  Beyond, the recurrences sigma_n = n sigma_{n-1} - R^(n-1) e^r
    (r < 0) and sigma_n = (1 - n sigma_{n-1}) / r (r > 0), from
    sigma_0 = -expm1(-|r|) / |r|: each step shrinks the error it inherits
    and subtracts at most a tenth of its first term.  A point's terms and
    their order do not depend on the rest of the stack.
    """
    sigma = np.zeros((r.size, _MOMENTS))
    small, wide = np.abs(r) <= 0.5, np.abs(r) > _MOMENTS
    shift = np.where(r > _MOMENTS, r, 0.0)
    rate = np.maximum(-r, 1.0)
    if small.any():
        powers = r[small, None] ** np.arange(len(_SERIES_TABLE))
        sigma[small, : _MOMENTS // 2] = (powers[:, :, None] * _SERIES_TABLE).sum(axis=1)
    if wide.any():
        rw, log_rate = r[wide], np.log(rate[wide])
        moment = -np.expm1(-np.abs(rw)) / np.abs(rw)
        sigma[wide, 0] = moment
        for n in range(1, _MOMENTS):
            moment = np.where(rw > 0.0, (1.0 - n * moment) / rw, n * moment - np.exp(rw + (n - 1) * log_rate))
            sigma[wide, n] = moment
    middle = ~small & ~wide
    if middle.any():
        rs = r[middle, None, None]
        n, j = np.arange(_MOMENTS)[:, None], np.arange(20 + math.ceil(2.5 * np.abs(rs).max()))
        ratio = np.where(rs >= 0.0, rs / np.maximum(j[1:], 1), -rs / (n + j[1:] + 1))
        terms = np.concatenate([np.ones(ratio.shape[:2] + (1,)), ratio], axis=2).cumprod(axis=2)
        terms /= np.where(rs >= 0.0, n + j + 1, n + 1)
        terms = np.where(j < 20 + np.ceil(2.5 * np.abs(rs)), terms, 0.0)
        sums = terms.cumsum(axis=2)[:, :, -1] * np.exp(np.minimum(rs[:, 0], 0.0))
        sigma[middle] = sums * rate[middle, None] ** np.arange(_MOMENTS)
    return sigma, shift, rate


_FACTORIALS = np.array([math.factorial(n) for n in range(_MOMENTS)], dtype=float)
_I_POWERS = np.resize([1.0, 1j, -1.0, -1j], _MOMENTS)


def _near_noise(blocks, m, h, s, k, d, e):
    """Q of each block whose eigenvalues are near, and whether it leaves the
    float range (False for all, unguarded, where k is None); see `_pair_maps`.

    I00, I10 and I11 integrate e^{ru} against (cosh au + cos bu) / 2,
    (sinh au + i sin bu) / 2s and (cosh au - cos bu) / 2|s|^2, a + ib = 2s,
    whose power series in u have the coefficients (a^n +- (ib)^n) / n!.
    Their terms are below (2|s|/R)^n / n! and (2|s|/R)^n times the first,
    R = max(1, -r), so the moments of `_moments` carry them to 1e-18
    within |s| <= 1/2 and |s| <= -r/6.
    """
    sigma, shift, rate = _moments(2.0 * m.real)
    z = 2.0 * s / rate
    n = np.arange(_MOMENTS)
    a, b = z.real[:, None] ** n / _FACTORIALS, z.imag[:, None] ** n * _I_POWERS / _FACTORIALS
    plus, minus = (a + b) * sigma, (a - b) * sigma
    # I00, R I10 and R^2 I11, to go with N / R, so that none underflows;
    # below |z| = 1e-100, where |z|^2 may lose its digits, the last two are
    # their limits at s = 0, the moments of u and u^2, to 1e-200
    i00 = 0.5 * plus[:, ::2].sum(axis=1).real
    tiny = np.abs(z) < 1e-100
    z = np.where(tiny, 1.0, z)
    i10 = np.where(tiny, sigma[:, 1], plus[:, 1::2].sum(axis=1) / z)
    i11 = np.where(tiny, sigma[:, 2], minus[:, 2::2].sum(axis=1).real * 2.0 / (z * z.conj()).real)
    gen = np.stack([h, blocks[:, 0, 1], blocks[:, 1, 0], -h], axis=1).reshape(-1, 2, 2) / rate[:, None, None]
    over = False
    if k is not None:
        # every term of Q is at most 3 max(|I00|, 2k |I10|, 4k^2 |I11|) |D|
        log_i = [np.log(np.maximum(np.abs(x), 1e-300)) for x in (i00, 2.0 * i10, 4.0 * i11)]
        log_k = np.log(k) - np.log(rate)
        size = np.maximum.reduce([log_i[0], log_i[1] + log_k, log_i[2] + 2.0 * log_k])
        over = (shift > _LOG_MAX) | (2.0 * log_k + np.log(4.0) > _LOG_MAX)
        over |= shift + e * math.log(2.0) + size + np.log(3.0) > _LOG_MAX
        e, shift = np.where(over, 0, e), np.where(over, 0.0, shift)
        gen = np.where(over[:, None, None], 0.0, gen)
    # 2^e e^shift I, each partial product at most the whole
    scale = np.ldexp(1.0, e)
    i00, i10, i11 = (x * scale * np.exp(shift) for x in (i00, i10, i11))
    nd = _mul(gen, d)
    cross = i10[:, None, None] * nd
    noise = i00[:, None, None] * d + cross + _dagger(cross) + i11[:, None, None] * _mul(nd, _dagger(gen))
    return noise, over


def _far_noise(blocks, s, h, t, k, d, e):
    """Q = sum_ij phi(l_i + l_j*) P_i D P_j^dag over the spectral projectors
    P of each block whose eigenvalues are apart, and whether Q leaves the
    float range (False for all, unguarded, where k is None); see `_pair_maps`.

    The projectors on l = b11 + t and b00 - t are [[t, b01], [b10, s - h]] / 2s
    and [[s - h, -b01], [-b10, t]] / 2s, so their entries are at most
    k / 2|s|, and |phi(x)| is at most 2 e^max(Re x, 0) / max(|x|, 2).
    """
    b01, b10 = blocks[:, 0, 1], blocks[:, 1, 0]
    proj = np.array([t, b01, b10, s - h, s - h, -b01, -b10, t]).T.reshape(-1, 2, 2, 2)
    proj = proj / s[:, None, None, None] * 0.5
    # the exponents l_i + l_j*, halved so that no sum overflows
    half = 0.5 * np.array([blocks[:, 1, 1] + t, blocks[:, 0, 0] - t]).T
    half = half[:, :, None] + half[:, None, :].conj()
    over = False
    if k is not None:
        size, rate = np.abs(half), half.real
        log_phi = (np.maximum(2.0 * rate, 0.0) - np.log(np.maximum(size, 1.0))).max(axis=(1, 2))
        log_p = 2.0 * (np.log(k) - np.log(np.abs(s))) + np.log(8.0)
        over = (rate.max(axis=(1, 2)) > 0.5 * _LOG_MAX) | (size.max(axis=(1, 2)) > 2.0**1022)
        over |= (log_p > _LOG_MAX) | (log_phi + e * math.log(2.0) + log_p > _LOG_MAX)
        if over.any():
            half, e = np.where(over[:, None, None], 0.0, half), np.where(over, 0, e)
            proj = np.where(over[:, None, None, None], 0.0, proj)
    psi = _phi(2.0 * half) * np.ldexp(1.0, e)[:, None, None]
    # the products P_i D P_j^dag, a (2, 2) stack of them per point
    terms = _mul(_mul(proj, d[:, None])[:, :, None], _dagger(proj)[:, None])
    return np.add.reduce(psi[..., None, None] * terms, axis=(1, 2)), over


# Faults of a point's pair map and output, in the order the point meets them
_RATE, _TRANSFER, _NOISE, _CP, _FIGURES = range(1, 6)
_OVERFLOWS = {_TRANSFER: "the transfer e^(BL)", _NOISE: "the added noise of the pair map"}


def _fail(fault: np.ndarray, trace: np.ndarray, place=lambda i: "", figures: str = "") -> None:
    """Raise the OutputOverflowError of the first faulty point, if any."""
    if not np.count_nonzero(fault):
        return
    i = int(np.flatnonzero(fault)[0])
    if fault[i] == _RATE:
        what = f"pair generator's noise rate, of trace {trace[i]:.6e}, is out of range"
    else:
        what = _OVERFLOWS.get(int(fault[i]), figures)
    raise OutputOverflowError(f"output overflows the float range ({what}){place(i)}")


def _pair_maps(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, Q, fault, trace) of every pair generator over its length, A = BL,
    of a complex (N, 2, 2) stack.

    M = e^A is `_expm2x2`; Q = int_0^1 e^{Au} D e^{A^dag u} du,
    with D `_pair_diffusion`, is Van Loan's noise integral (C. F. Van Loan,
    IEEE TAC 23, 395, 1978) in closed form.  Where the eigenvalues m +- s
    are apart, Q = sum_ij phi(l_i + l_j*) P_i D P_j^dag on the spectral
    projectors P (`_far_noise`).  Those lose (r/s)^2 of the digits of Q,
    r = 2 Re m, so within |s| <= 1/2, and within |s| <= -r/6, the
    Cayley-Hamilton form e^{Au} = e^{mu} (cosh(su) I + sinh(su)/s N),
    N = A - m I, gives Q = I00 D + I10 N D + I10* D N^dag + I11 N D N^dag,
    whose scalars are power series in s over the moments of e^{ru}
    (`_near_noise`; N. J. Higham, Functions of Matrices, SIAM 2008, ch. 10).

    fault is 0, or the first of _RATE, _TRANSFER and _NOISE a point meets;
    such a point's M and Q are not to be read, and no operation overflows.
    trace is the trace norm of D where some point's is out of range.  A stack
    that `_tame` clears runs none of the guards.
    """
    d, e, trace = _pair_diffusion(a)
    rate = e >= sys.float_info.max_exp
    if np.count_nonzero(rate):
        # tr itself, below 2^1024 as long as e <= 1024; elsewhere tr bounds
        # the entries of H and so |Re tr(A)|, and no exponent overflows
        trace = np.where(e <= 1024, np.ldexp(trace, np.minimum(e, 1024)), np.inf)
        d[rate], e[rate] = 0.0, 0
        a = np.where(rate[:, None, None], 0.0, a)
    transfer, (m, h, s, t, k, far) = _expm2x2(a)
    # noise takes a's memory layout, which the products of its readers follow
    noise, over = np.empty_like(a), np.empty(far.shape, dtype=bool)
    near = ~far | (np.abs(s) <= -m.real / 3.0)
    for p, branch, args in zip(_split(near), (_near_noise, _far_noise), ((m, h, s, k), (s, h, t, k))):
        if p is not None:
            noise[p], over[p] = branch(a[p], *(x if x is None else x[p] for x in args), d[p], e[p])
    fault = np.where(rate, _RATE, np.where(np.isinf(transfer[:, 0, 0]), _TRANSFER, np.where(over, _NOISE, 0)))
    return transfer, 0.5 * noise + 0.5 * _dagger(noise), fault, trace


_ETA = np.array([1.0, -1.0])  # the diagonal of eta = diag(1, -1)


def _pair_cp_defects(transfer: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """`gaussian.cp_defect` of each lifted pair map: the least eigenvalue of
    Q +- (eta - M eta M^dag), eta = diag(1, -1)."""
    w = _mul(transfer * _ETA, _dagger(transfer))
    signs = _ETA[:, None]  # the two signs of +-, one per row
    x = noise[:, 0, 0].real + signs * (1.0 - w[:, 0, 0].real)
    z = noise[:, 1, 1].real + signs * (-1.0 - w[:, 1, 1].real)
    y = noise[:, 0, 1] - signs * w[:, 0, 1]
    return np.minimum.reduce(0.5 * (x + z) - np.hypot(0.5 * (x - z), np.abs(y)))


class _PairOutputs(NamedTuple):
    """The outputs of every point of a stack, for a unit coherent probe seed."""

    g_a: np.ndarray
    g_b: np.ndarray
    f_a: np.ndarray
    f_b: np.ndarray
    c_ab: np.ndarray
    gemellity: np.ndarray
    gemellity_db: np.ndarray


def _pair_outputs(transfer, noise, fault, trace, place=lambda i: "") -> _PairOutputs:
    """The quantum output of every pair map (M, Q) of a stack, with the fault
    and trace of `_pair_maps`.

    Everything is read in the pair basis.  The fluxes are those of M's
    first column.  With K = M M^dag + Q, the noise figures are F_a = K00 and
    F_b = K11 and the amplitude correlation is
    Re(e^{-i(arg M00 - arg M10)} K01) / sqrt(F_a F_b), the amplitude
    quadrature of each beam being that of its mean field.  Each map passes
    the CP check of its lifted channel.

    The first point that fails, in the order a single point meets the
    checks, raises: OutputOverflowError naming the quantity that leaves the
    float range, followed by place(i), or the CP check's ValueError.  Where
    every point passes those, the first whose gemellity cancels to within
    its rounding bound of 0 raises GemellityRoundingError, followed by place(i).
    """
    # the largest real or imaginary part of M and of Q.  Where M's passes
    # 2^510 or Q's 2^1020, K = M M^dag + Q might not be a float, and its noise
    # figures pass 2^511, whose squares the gemellity may not take.  Every
    # stack runs these checks, which change no bit of a point inside the range
    parts = [np.maximum.reduce(np.abs(v.view(float)), axis=(1, 2)) for v in (transfer, noise)]
    huge = (parts[0] > 2.0**510) | (parts[1] > 2.0**1020)
    fault = np.where((fault == 0) & huge, _FIGURES, fault)
    if np.count_nonzero(fault):
        fine = fault == 0
        transfer, noise = (np.where(fine[:, None, None], x, 0.0) for x in (transfer, noise))
        parts = [np.where(fine, x, 0.0) for x in parts]
    # the CP check's scale, max(1, max|T|^2, max|N|) of the lifted channel
    scale = np.maximum(np.maximum(parts[0] ** 2, parts[1]), 1.0)
    defect = _pair_cp_defects(transfer, noise)
    fault = np.where((fault == 0) & (defect < -gaussian._CP_TOL * scale), _CP, fault)
    cov = _mul(transfer, _dagger(transfer)) + noise
    f_a, f_b = cov[:, 0, 0].real, cov[:, 1, 1].real
    fault = np.where((fault == 0) & (np.maximum(f_a, f_b) > 2.0**511), _FIGURES, fault)
    if np.count_nonzero(fault):
        i = int(np.flatnonzero(fault)[0])
        if fault[i] == _CP:
            gaussian._require_cp(float(defect[i]), float(scale[i]))
        figures = (np.inf, np.inf) if huge[i] else (f_a[i], f_b[i])
        _fail(fault, trace, place, "the squares of the noise figures %.6e and %.6e" % figures)
    phase = np.exp(-1j * (np.angle(transfer[:, 0, 0]) - np.angle(transfer[:, 1, 0])))
    c_ab = np.minimum(np.maximum((phase * cov[:, 0, 1]).real / np.sqrt(f_a * f_b), -1.0), 1.0)
    gem = _gemellity(f_a, f_b, c_ab)
    bound = _ROUNDING * (f_a + f_b)
    lost = ~(gem > bound)
    if np.count_nonzero(lost):
        i = int(np.flatnonzero(lost)[0])
        raise GemellityRoundingError(
            f"gemellity {gem[i]:.6e} is within the rounding bound {bound[i]:.6e} of "
            f"the noise figures {f_a[i]:.6e} and {f_b[i]:.6e}, with no correct digit{place(i)}"
        )
    gem_db = 10.0 * np.log10(gem)
    g_a, g_b = _fluxes(transfer[:, :, 0]).T  # M's parts are below 2^510 here
    return _PairOutputs(g_a, g_b, f_a, f_b, c_ab, gem, gem_db)


def _result(transfer, noise, fault=0, trace=None) -> PropagationResult:
    """The PropagationResult of a stack of one pair map, read by `_pair_outputs`."""
    out = _pair_outputs(transfer, noise, fault, trace)
    figures = NoiseFigures(float(out.f_a[0]), float(out.f_b[0]), float(out.c_ab[0]))
    g_a, g_b = float(out.g_a[0]), float(out.g_b[0])
    return PropagationResult(
        g_a=g_a,
        g_b=g_b,
        sum_transmission=g_a + g_b,
        figures=figures,
        gemellity=float(out.gemellity[0]),
        gemellity_db=float(out.gemellity_db[0]),
        diff_noise=_flux_weighted_difference_noise(figures, g_a, g_b),
    )


# The search's maps: a real-rate segment has the minimal diffusion
# diag(alpha_a, alpha_b) whatever g is, so its (M, Q) is a row-major real
# 2x2 transfer (a, b, c, d) and a symmetric noise (x, y, z) of plain floats.


def _pair_segment(length: float, g: float, alpha_a: float, alpha_b: float) -> tuple[tuple, tuple]:
    """Closed-form (M, Q) of one segment: M = e^{BL}, Q = int_0^L e^{Bs} D e^{Bs} ds.

    B = m I + [[h, g], [g, -h]] with eigenvalues m +- r, r = hypot(h, g),
    and eigenvectors rotated by 1/2 atan2(g, h); in that basis the noise
    integral is D~_ij expm1((lam_i + lam_j) L) / (lam_i + lam_j).
    """
    m = -(alpha_a + alpha_b) / 4.0
    h = (alpha_b - alpha_a) / 4.0
    r = math.hypot(h, g)
    q = 2.0 * m
    p0 = math.expm1(q * length) / q if q != 0.0 else length
    if r < 1e-300:
        # B = m I: a common loss, alpha_a == alpha_b.  Below 1e-300, h and g
        # may be subnormal, too coarse for the rotation, while r L is still
        # negligible beside 1
        em = math.exp(m * length)
        return (em, 0.0, 0.0, em), (alpha_a * p0, 0.0, alpha_b * p0)
    # squared cosine and sine of the rotation angle, each formed without
    # cancellation; both are >= 0 since g >= 0
    if h >= 0.0:
        c2, s2 = (r + h) / (2.0 * r), g / r * g / (2.0 * (r + h))
    else:
        c2, s2 = g / r * g / (2.0 * (r - h)), (r - h) / (2.0 * r)
    cs = g / (2.0 * r)
    e1, e2 = math.exp((m + r) * length), math.exp((m - r) * length)
    off = g * math.exp(m * length) * math.sinh(r * length) / r
    q, p = 2.0 * (m + r), 2.0 * (m - r)  # p < 0: m <= 0 < r
    f11 = (c2 * alpha_a + s2 * alpha_b) * (math.expm1(q * length) / q if q != 0.0 else length)
    f22 = (s2 * alpha_a + c2 * alpha_b) * (math.expm1(p * length) / p)
    f12 = cs * (alpha_b - alpha_a) * p0
    transfer = (c2 * e1 + s2 * e2, off, off, s2 * e1 + c2 * e2)
    noise = (
        c2 * f11 + s2 * f22 - 2.0 * cs * f12,
        cs * (f11 - f22) + (h / r) * f12,
        s2 * f11 + c2 * f22 + 2.0 * cs * f12,
    )
    return transfer, noise


def _check_pair_cp(pair: tuple) -> None:
    """The CP check of `gaussian.GaussianChannel` on a pair map, of the least
    eigenvalue of Q +- (eta - M eta M^t), eta = diag(1, -1); its scale
    max(1, max|T|^2, max|N|) is at least 1, so only a defect below -tol needs it."""
    (a, b, c, d), (x, y, z) = pair
    wx, wy, wz = 1.0 - a * a + b * b, b * d - a * c, d * d - c * c - 1.0
    # the least eigenvalue of [[u, v], [v, w]] is (u + w)/2 - hypot((u - w)/2, v)
    px, py, pz, mx, my, mz = x + wx, y + wy, z + wz, x - wx, y - wy, z - wz
    defect = 0.5 * (px + pz) - math.hypot(0.5 * (px - pz), py)
    other = 0.5 * (mx + mz) - math.hypot(0.5 * (mx - mz), my)
    defect = other if other < defect else defect  # min's pick, NaN too
    if not defect >= -gaussian._CP_TOL:
        if defect != defect:  # a map past the float range, which the objective scores
            raise OverflowError
        gaussian._require_cp(defect, max(1.0, max(map(abs, pair[0])) ** 2, max(map(abs, pair[1]))))


def _pair_objective(rates: list, length: float, incumbent=None, moved: int = 0):
    """(Gemellity, |G_a + G_b - 1|) of a unit coherent probe seed and the maps
    and products folds[k] = S_k ... S_0 of segments with rates (g, alpha_a,
    alpha_b), in one pass of float arithmetic: what `propagate_exact` reports,
    or (inf, inf) for a gemellity within _ROUNDING (F_a + F_b), the rounding
    bound of `_pair_outputs`; it scores (inf, inf) with maps None when a map
    or a square leaves the float range (the OverflowError of an exponential,
    a square or a NaN CP check).  Given an incumbent's (maps, folds)
    differing in segment `moved`, it maps that alone.
    """
    try:
        n = len(rates) // 3
        maps = incumbent[0].copy() if incumbent else [None] * n
        for k in (moved,) if incumbent else range(n):
            maps[k] = pair = _pair_segment(length, rates[3 * k], rates[3 * k + 1], rates[3 * k + 2])
            _check_pair_cp(pair)
        folds = incumbent[1][:moved] if moved else [maps[0]]
        for k in range(moved or 1, n):
            # S_k after folds[k - 1]: M2 M1, M2 Q1 M2^t + Q2
            (a, b, c, d), (x2, y2, z2) = maps[k]
            (a1, b1, c1, d1), (x, y, z) = folds[-1]
            u, v, w, t = a * x + b * y, a * y + b * z, c * x + d * y, c * y + d * z
            transfer = (a * a1 + b * c1, a * b1 + b * d1, c * a1 + d * c1, c * b1 + d * d1)
            folds.append((transfer, (u * a + v * b + x2, u * c + v * d + y2, w * c + t * d + z2)))
        if n > 1:
            _check_pair_cp(folds[-1])
        (a, b, c, d), (x, y, z) = folds[-1]
        # the seed's vacuum noise M M^t plus the added noise; both output
        # means are real and nonnegative, so X is the amplitude quadrature
        n_a, n_b, cov = a * a + b * b + x, c * c + d * d + z, a * c + b * d + y
        r = cov / math.sqrt(n_a * n_b)
        corr = -1.0 if r < -1.0 else 1.0 if r > 1.0 else r  # min(max(r, -1), 1), NaN too
        gem = _gemellity(n_a, n_b, corr)
        score = (gem, abs(a * a + c * c - 1.0)) if gem > _ROUNDING * (n_a + n_b) else (math.inf, math.inf)
        return score, (maps, folds)
    except OverflowError:
        return (math.inf, math.inf), None


def _segment_channel(slab: Slab, subdivisions: int) -> gaussian.GaussianChannel:
    sub = slab_channel(replace(slab, dz=slab.dz / subdivisions))
    return gaussian.compose_power(sub, subdivisions)


def _mode_matrix(t: np.ndarray) -> np.ndarray:
    """The 2x2 mode matrix e whose lift to quadratures is the 4x4 block t."""
    return np.array([[t[0, 0] + 1j * t[1, 0], t[0, 2] + 1j * t[0, 3]], [t[2, 0] - 1j * t[2, 1], t[2, 2] + 1j * t[2, 3]]])


def propagate(profile: SlabProfile, subdivisions: int = 1) -> PropagationResult:
    """Push a unit coherent probe seed through the profile, `subdivisions`
    slabs per segment."""
    if subdivisions < 1:
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    total = None
    for slab in profile.slabs:
        seg = _segment_channel(slab, subdivisions)
        total = seg if total is None else gaussian.compose(seg, total)
    return _result(_mode_matrix(total.transfer)[None], _mode_matrix(total.added_noise)[None])


def propagate_exact(profile: SlabProfile) -> PropagationResult:
    """Push a unit coherent probe seed through the profile, one exact map
    per segment.

    The segment maps come from one stacked `_pair_maps` call and compose in
    the pair basis, (M2 M1, M2 Q1 M2^dag + Q2); the product's output is
    read in the pair basis, with one CP check.
    """
    blocks = np.array(
        [[[-s.alpha_a / 2.0, s.g], [s.g, -s.alpha_b / 2.0]] for s in profile.slabs], dtype=complex
    )
    lengths = np.array([s.dz for s in profile.slabs])[:, None, None]
    transfers, noises, fault, trace = _pair_maps(blocks * lengths)
    _fail(fault, trace)
    m, q = transfers[0], noises[0]
    for m2, q2 in zip(transfers[1:], noises[1:]):
        m, q = m2 @ m, m2 @ q @ m2.conj().T + q2
    return _result(m[None], q[None])


def propagate_coupling(block: np.ndarray) -> PropagationResult:
    """Push a unit coherent probe seed through a constant complex
    pair-basis generator over the unit medium length.

    Raises OutputOverflowError, naming the quantity, when the map or the
    output's noise figures leave the float range, as they do for optical
    depths of about 1e6.
    """
    return _result(*_pair_maps(_generator(block)))


_REFINE_TOL = 1e-8
_REFINE_DOUBLINGS = 20


def refine_until_converged(profile: SlabProfile) -> tuple[PropagationResult, int]:
    """Halve slab widths, from 8 slabs per segment, until a doubling moves
    the gemellity by less than _REFINE_TOL: the factorization error is
    second order in the slab width, so the change per doubling shrinks by
    about a quarter.  Returns the converged result for a unit coherent probe
    seed and the number of doublings used; raises RuntimeError after
    _REFINE_DOUBLINGS doublings.
    """
    n = 8
    prev = propagate(profile, n)
    for doubling in range(1, _REFINE_DOUBLINGS + 1):
        n *= 2
        cur = propagate(profile, n)
        if abs(cur.gemellity - prev.gemellity) < _REFINE_TOL:
            return cur, doubling
        prev = cur
    raise RuntimeError(
        f"slab refinement did not converge to {_REFINE_TOL} after {_REFINE_DOUBLINGS} doublings"
    )


def search_beyond_lumped_limit(
    n_segments: int = 2,
    seed: int | None = 0,
    rate_bound: float = 20.0,
    feasibility_tol: float = 0.01,
    restarts: int = 16,
) -> SearchResult:
    """Look for a flux-neutral profile with gemellity below the lumped limit.

    Hooke-Jeeves pattern search (R. Hooke and T. A. Jeeves, J. ACM 8, 212,
    1961) over piecewise-constant profiles (n_segments equal segments, rates
    in [0, rate_bound]) with an escalating penalty on |G_a + G_b - 1|, scored
    in one pass of float arithmetic on the closed-form pair maps of the rate
    vector.  The objective scores a candidate as infeasible when its map
    overflows the float range, its CP defect is NaN or its gemellity has no
    correct digit.  It remaps only the segment it moves, reusing the incumbent's other maps and
    their running products.  evaluations counts the candidates scored: a
    point whose score is held at the current penalty (the incumbent, the
    point it replaced, a probe it rejected) is not scored again.  The result
    is `propagate_exact` of the best feasible profile.  Placing loss upstream
    of gain costs no quantum correlation, so distributed profiles can beat
    the lumped gain-then-loss bound, `lumped.optimize_unit_transmission`,
    5 - 2 sqrt(5) (-2.7748 dB); found says whether the reported profile is
    strictly below it and flux-neutral within feasibility_tol, and the search
    reports found=False rather than raising when it is not.  The run is
    deterministic for a fixed seed; seed=None draws fresh randomness.  Each
    restart draws its start when it begins.
    """
    if not 1 <= n_segments <= 8:
        raise ValueError(f"n_segments must lie in [1, 8], got {n_segments}")
    _check_finite("rate_bound", rate_bound)
    if not rate_bound > 0.0:
        raise ValueError(f"rate bound must be positive, got {rate_bound}")
    _check_finite("feasibility_tol", feasibility_tol)
    if not feasibility_tol > 0.0:
        raise ValueError(f"feasibility tolerance must be positive, got {feasibility_tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    dim, dz = 3 * n_segments, 1.0 / n_segments
    evaluations = 0
    best_feasible: tuple[float, list] | None = None

    for restart in range(restarts):
        x = rng.uniform(0.0, rate_bound, size=dim)
        if restart == 0 and n_segments >= 2:
            # in place of the first draw, attenuate the probe first and
            # amplify after.  Pure upstream loss on a coherent seed leaves
            # the noise at vacuum, so the downstream squeezer reaches its
            # ideal correlation while the loss balances the flux to one.
            x = np.zeros(dim)
            r = 0.75
            x[3 * (n_segments - 1)] = r * n_segments
            x[1] = np.log(np.cosh(2.0 * r)) * n_segments
            x = np.clip(x, 0.0, rate_bound)
        x = x.tolist()
        mu, held = 10.0, None
        for _escalation in range(4):
            step = rate_bound / 4.0
            score, maps = held or (None, None)  # held: the incumbent's, past the first escalation
            while score is None or not math.isfinite(fx := score[0] + mu * score[1]):
                # an overflowing start has no descent: halve it toward 0, which never overflows
                x = [v / 2.0 for v in x] if score else x
                evaluations += 1
                score, maps = _pair_objective(x, dz)
            tried = [set() for _ in x]  # per coordinate, probes no better than x at this mu
            while step > 1e-3:
                improved = False
                for i in range(dim):
                    k, seen, xi = i // 3, tried[i], x[i]
                    for signed in (step, -step):
                        v = xi + signed
                        v = 0.0 if v < 0.0 else rate_bound if rate_bound < v else v  # min(max(v, 0), bound)
                        if v == xi or v in seen:
                            continue
                        seen.add(v)
                        cand = x.copy()
                        cand[i] = v
                        evaluations += 1
                        cand_score, cand_maps = _pair_objective(cand, dz, maps, k)
                        fc = cand_score[0] + mu * cand_score[1]
                        if fc < fx:
                            tried = [set() for _ in x]
                            seen = tried[i] = {xi}  # the point x replaces scored worse
                            x, xi, fx, score, maps = cand, v, fc, cand_score, cand_maps
                            improved = True
                if not improved:
                    step /= 2.0
            held = score, maps
            gem, infeas = score
            if infeas <= feasibility_tol:
                if best_feasible is None or gem < best_feasible[0]:
                    best_feasible = (gem, x)
                break
            mu *= 10.0

    # nothing feasible at all reports the flux-neutral trivial profile
    rates = [0.0] * dim if best_feasible is None else best_feasible[1]
    profile = SlabProfile(tuple(Slab(dz, *rates[3 * k : 3 * k + 3]) for k in range(n_segments)))
    result = propagate_exact(profile)
    from . import lumped  # the one use of lumped; the atomic commands load none

    found = (
        best_feasible is not None
        and result.gemellity < lumped.optimize_unit_transmission().gemellity
        and abs(result.sum_transmission - 1.0) <= feasibility_tol
    )
    return SearchResult(profile, result, found, evaluations)
