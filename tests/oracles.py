"""Reference constructions the tests hold the package's fast paths against:
channels built from its quadrature objects, and high-precision mpmath
evaluations of the atomic response, the pair maps and the measurement
inversion."""

import functools
import math

import mpmath
import numpy as np

from twinbeam import atomic, gaussian, propagation


def cascade_state(config):
    """The lumped cascade of `lumped.cascade`, by explicit channel composition."""
    channel = gaussian.compose(
        gaussian.loss_channel(config.probe_transmission, config.conj_transmission),
        gaussian.amplifier_channel(config.gain),
    )
    return gaussian.apply(channel, gaussian.coherent_input(1.0))


def lift(pair):
    """The 4x4 channel of a pair map (M, Q); a Hermitian Q lifts like a mode matrix."""
    m, q = pair
    return gaussian.GaussianChannel(
        gaussian.transfer_from_mode_matrix(m), gaussian.transfer_from_mode_matrix(q)
    )


def exact_channel(block, length=1.0):
    """The lifted exact map of a constant pair-basis generator over a length."""
    transfer, noise, fault, _ = propagation._pair_maps(np.asarray(block, dtype=complex)[None] * length)
    assert not fault.any()
    return lift((transfer[0], noise[0]))


def _chain(channels):
    """The channels applied in turn, the first to the light entering."""
    return functools.reduce(lambda total, channel: gaussian.compose(channel, total), channels)


def output_state(channel):
    """A channel's output for a unit coherent probe seed."""
    return gaussian.apply(channel, gaussian.coherent_input(1.0))


def exact_state(profile):
    """The output of `propagation.propagate_exact`: each segment's lifted
    exact map, composed as quadrature channels."""
    return output_state(
        _chain(
            exact_channel([[-s.alpha_a / 2.0, s.g], [s.g, -s.alpha_b / 2.0]], s.dz)
            for s in profile.slabs
        )
    )


def slab_state(profile, subdivisions):
    """The output of `propagation.propagate`: its composed slab channel."""
    return output_state(
        _chain(propagation._segment_channel(s, subdivisions) for s in profile.slabs)
    )


def mpmath_pair_block(p: atomic.AtomicParams, delta: float, digits: int = 40) -> mpmath.matrix:
    """The pair generator at delta, with every step at `digits` digits: the
    trace-constrained steady state of the 16x16 generator and the 4x4
    sector solve."""
    with mpmath.workdps(digits):
        g = mpmath.mpf(p.excited_decay_rate)
        h = mpmath.zeros(4)
        h[0, 0] = -mpmath.mpf(delta) / g
        h[2, 2] = -mpmath.mpf(p.one_photon_detuning) / g
        h[3, 3] = h[2, 2] + h[0, 0] - mpmath.mpf(p.hyperfine_splitting) / g
        h[2, 1] = h[1, 2] = h[3, 0] = h[0, 3] = -mpmath.mpf(p.rabi_frequency) / g / 2
        jumps = [(ground, excited, mpmath.mpf(1) / 2) for excited in (2, 3) for ground in (0, 1)]
        rate = mpmath.mpf(p.ground_decoherence) / g
        jumps += [(0, 1, rate), (1, 0, rate)]

        def generator(rho):
            out = -1j * (h * rho - rho * h)
            for i, j, r in jumps:  # r |i><j| rho |j><i| - r/2 {|j><j|, rho}
                out[i, i] += r * rho[j, j]
                for k in range(4):
                    out[j, k] -= r / 2 * rho[j, k]
                    out[k, j] -= r / 2 * rho[k, j]
            return out

        def unit(k):
            e = mpmath.zeros(4)
            e[k % 4, k // 4] = 1
            return e

        # column-stacked generator, one column per basis matrix
        gen = mpmath.zeros(16)
        for col in range(16):
            image = generator(unit(col))
            for row in range(16):
                gen[row, col] = image[row % 4, row // 4]
        trace_row = gen.copy()
        for col in range(16):
            trace_row[0, col] = 1 if col % 5 == 0 else 0
        vec = mpmath.lu_solve(trace_row, mpmath.matrix([1] + [0] * 15))
        rho = mpmath.matrix(4)
        for k in range(16):
            rho[k % 4, k // 4] = vec[k]
        idx = atomic._SECTOR_INDICES
        system = mpmath.matrix([[gen[r, c] for c in idx] for r in idx])
        block = mpmath.zeros(2)
        for col, (i, j) in enumerate(((2, 0), (1, 3))):
            drive = mpmath.zeros(4)
            drive[i, j] = -mpmath.mpf(1) / 2
            source = -1j * (drive * rho - rho * drive)
            x = mpmath.lu_solve(system, mpmath.matrix([-source[k % 4, k // 4] for k in idx]))
            block[0, col] = 1j * p.depth / 2 * x[1]
            block[1, col] = -1j * p.depth / 2 * x[2]
        return block


def mpmath_gains(p: atomic.AtomicParams, delta: float, digits: int = 40) -> tuple:
    """G_a and G_b at delta: mpmath.expm of the `digits`-digit pair generator."""
    with mpmath.workdps(digits):
        e = mpmath.expm(mpmath_pair_block(p, delta, digits))
        return abs(e[0, 0]) ** 2, abs(e[1, 0]) ** 2


def mpmath_flux_balance(p: atomic.AtomicParams, delta: float, digits: int = 40):
    """G_a + G_b - 1 at delta, from `mpmath_gains`."""
    with mpmath.workdps(digits):
        return sum(mpmath_gains(p, delta, digits)) - 1


def mpmath_abs(h):
    """|H| of a Hermitian mpmath matrix from its eigendecomposition."""
    e, v = mpmath.eighe(h)
    return v * mpmath.diag([abs(x) for x in e]) * v.H


def mpmath_pair_maps(segments, digits):
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
            k = max(0, math.ceil(math.log2(max(np.abs(block).sum(axis=0).max() * length, 1.0))))
            van_loan = mpmath.zeros(4)
            van_loan[0:2, 0:2] = -b
            van_loan[0:2, 2:4] = mpmath_abs(b * eta + eta * b.H)
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


def mpmath_inference(s, f_a, f_b, p_a, p_b):
    """(C_ab, gemellity, gemellity in dB) of `metrics.infer_from_measurement`
    from the linear difference noise s and figures it reads; 1 - C_ab is of
    the order of the ratio of s to the figures, so the digits grow with it."""
    decades = math.log10(max(s, f_a, f_b)) - math.log10(min(s, f_a, f_b))
    with mpmath.workdps(40 + 2 * math.ceil(decades)):
        s, f_a, f_b, p_a, p_b = map(mpmath.mpf, (s, f_a, f_b, p_a, p_b))
        c = (p_a * f_a + p_b * f_b - s * (p_a + p_b)) / (2 * mpmath.sqrt(p_a * p_b * f_a * f_b))
        g = (f_a + f_b) / 2 - mpmath.sqrt(c * c * f_a * f_b + ((f_a - f_b) / 2) ** 2)
        return c, g, 10 * mpmath.log10(g)
