"""Reference constructions the tests hold the package's fast paths against:
channels built from its quadrature objects, the search objective as
separate helper calls, the search with its former probe loop, the
beam-splitter point's former Illinois polish, and high-precision mpmath
evaluations of the atomic response, the pair maps and the measurement
inversion."""

import dataclasses
import functools
import math
import sys

import mpmath
import numpy as np

from twinbeam import atomic, gaussian, lumped, propagation
from twinbeam.metrics import _gemellity


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


# The search objective as separate helper calls: a segment map whose phi
# is a closure, a compose, a CP defect taken with min and a clamp taken with
# min and max.  `propagation._pair_objective` does the same float operations
# in the same order in one pass, so it must agree to the bit, exceptions and
# NaNs included; where these raise OverflowError it scores ((inf, inf), None).


def pair_segment(length, g, alpha_a, alpha_b):
    """Closed-form (M, Q) of one segment, as `propagation._pair_segment`."""
    m = -(alpha_a + alpha_b) / 4.0
    h = (alpha_b - alpha_a) / 4.0
    r = math.hypot(h, g)

    def phi(rate):
        return math.expm1(rate * length) / rate if rate != 0.0 else length

    if r < 1e-300:
        em = math.exp(m * length)
        return (em, 0.0, 0.0, em), (alpha_a * phi(2.0 * m), 0.0, alpha_b * phi(2.0 * m))
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


def pair_compose(second, first):
    """Pair map applying `first` then `second`: (M2 M1, M2 Q1 M2^t + Q2)."""
    (a, b, c, d), (x2, y2, z2) = second
    (a1, b1, c1, d1), (x, y, z) = first
    u, v = a * x + b * y, a * y + b * z
    w, t = c * x + d * y, c * y + d * z
    transfer = (a * a1 + b * c1, a * b1 + b * d1, c * a1 + d * c1, c * b1 + d * d1)
    noise = (u * a + v * b + x2, u * c + v * d + y2, w * c + t * d + z2)
    return transfer, noise


def pair_cp_defect(pair):
    """`gaussian.cp_defect` of the lifted channel, the least eigenvalue of
    Q +- (eta - M eta M^t), eta = diag(1, -1)."""
    (a, b, c, d), (x, y, z) = pair
    wx, wy, wz = 1.0 - a * a + b * b, b * d - a * c, d * d - c * c - 1.0
    # the least eigenvalue of [[u, v], [v, w]] is (u + w)/2 - hypot((u - w)/2, v)
    px, py, pz, mx, my, mz = x + wx, y + wy, z + wz, x - wx, y - wy, z - wz
    return min(
        0.5 * (px + pz) - math.hypot(0.5 * (px - pz), py),
        0.5 * (mx + mz) - math.hypot(0.5 * (mx - mz), my),
    )


def check_pair_cp(pair):
    """`propagation._check_pair_cp` on `pair_cp_defect`; a NaN defect raises
    OverflowError."""
    defect = pair_cp_defect(pair)
    if math.isnan(defect):
        raise OverflowError
    if defect < -gaussian._CP_TOL:
        gaussian._require_cp(defect, max(1.0, max(map(abs, pair[0])) ** 2, max(map(abs, pair[1]))))


def pair_objective(rates, length, incumbent=None, moved=0):
    """`propagation._pair_objective`: (gemellity, |G_a + G_b - 1|) and the
    (maps, folds), remapping only segment `moved` of an incumbent; a
    gemellity within 4 eps (F_a + F_b) of 0 scores (inf, inf), and an
    overflow raises."""
    n = len(rates) // 3
    maps, folds = (incumbent[0].copy(), incumbent[1][:moved]) if incumbent else ([None] * n, [])
    for k in range(moved, n):
        if incumbent is None or k == moved:
            maps[k] = pair_segment(length, *rates[3 * k : 3 * k + 3])
            check_pair_cp(maps[k])
        folds.append(pair_compose(maps[k], folds[-1]) if k else maps[0])
    if n > 1:
        check_pair_cp(folds[-1])
    (a, b, c, d), (x, y, z) = folds[-1]
    n_a, n_b, cov = a * a + b * b + x, c * c + d * d + z, a * c + b * d + y
    corr = min(max(cov / math.sqrt(n_a * n_b), -1.0), 1.0)
    gem = _gemellity(n_a, n_b, corr)
    if not gem > 4.0 * sys.float_info.epsilon * (n_a + n_b):
        return (math.inf, math.inf), (maps, folds)  # no correct digit
    return (gem, abs(a * a + c * c - 1.0)), (maps, folds)


def search_beyond_lumped_limit(
    n_segments: int = 2,
    seed: int | None = 0,
    rate_bound: float = 20.0,
    feasibility_tol: float = 0.01,
    restarts: int = 16,
) -> propagation.SearchResult:
    """`propagation.search_beyond_lumped_limit` with the probe loop it had
    as an `evaluate` closure over the module's `_pair_objective`, one (i, v)
    tuple per probe and a clip taken with min and max.  The search must walk
    the same points, count the same evaluations and report the same result,
    to the bit."""
    if not 1 <= n_segments <= 8:
        raise ValueError(f"n_segments must lie in [1, 8], got {n_segments}")
    propagation._check_finite("rate_bound", rate_bound)
    if not rate_bound > 0.0:
        raise ValueError(f"rate bound must be positive, got {rate_bound}")
    propagation._check_finite("feasibility_tol", feasibility_tol)
    if not feasibility_tol > 0.0:
        raise ValueError(f"feasibility tolerance must be positive, got {feasibility_tol}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    dim, dz = 3 * n_segments, 1.0 / n_segments
    evaluations = 0

    def evaluate(x: list, incumbent=None, moved: int = 0):
        nonlocal evaluations
        evaluations += 1
        try:
            return propagation._pair_objective(x, dz, incumbent, moved)
        except OverflowError:
            # a map beyond the floating-point range scores as infeasible
            return (math.inf, math.inf), None

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
            # past the first escalation, the incumbent keeps its score and maps
            score, maps = held or evaluate(x)
            fx = score[0] + mu * score[1]
            while not math.isfinite(fx):
                # a start whose map overflows sits on a plateau with no
                # descent; halve it toward the all-zero profile, which never
                # overflows.  A finite start draws and evaluates nothing more
                x = [v / 2.0 for v in x]
                score, maps = evaluate(x)
                fx = score[0] + mu * score[1]
            tried = set()  # probes (i, v) known to score no better than x at this mu
            while step > 1e-3:
                improved = False
                for i in range(dim):
                    for sign in (1.0, -1.0):
                        v = min(max(x[i] + sign * step, 0.0), rate_bound)
                        if v == x[i] or (i, v) in tried:
                            continue
                        tried.add((i, v))
                        cand = x.copy()
                        cand[i] = v
                        cand_score, cand_maps = evaluate(cand, maps, i // 3)
                        fc = cand_score[0] + mu * cand_score[1]
                        if fc < fx:
                            tried = {(i, x[i])}  # the point x replaces scored worse
                            x, fx, score, maps = cand, fc, cand_score, cand_maps
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
    slabs = (propagation.Slab(dz, *rates[3 * k : 3 * k + 3]) for k in range(n_segments))
    profile = propagation.SlabProfile(tuple(slabs))
    result = propagation.propagate_exact(profile)
    found = (
        best_feasible is not None
        and result.gemellity < lumped.optimize_unit_transmission().gemellity
        and abs(result.sum_transmission - 1.0) <= feasibility_tol
    )
    return propagation.SearchResult(profile, result, found, evaluations)


def illinois(f, a: float, b: float, fa: float, fb: float) -> float:
    """The former polish of `atomic.find_beam_splitter_point`, which
    `atomic._regula_falsi` replaced: root of f in the sign-change bracket
    [a, b], to the last float; fa and fb are f(a) and f(b).

    Regula falsi with the Illinois modification (M. Dowell and
    P. Jarratt, BIT 11, 168, 1971): when the new point falls on the
    side of the previous one, the secant weight of the end kept on the
    other side is halved; a secant point outside the bracket is replaced
    by the midpoint, and one that rounds onto the newest end, while the
    secant's denominator is finite, by the next float inside, Brent's
    least step (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  Stops at an exact zero or when the ends
    are adjacent floats, returning the end with the smaller |f|.  Raises
    RuntimeError when atomic._ROOT_MAXITER steps do not get there.
    """
    x0, x1, f0, f1 = float(a), float(b), float(fa), float(fb)
    if f0 == 0.0:
        return x0
    if f1 == 0.0:
        return x1
    if math.copysign(1.0, f0) == math.copysign(1.0, f1):
        raise ValueError("f(a) and f(b) must have different signs")
    w0 = f0  # the secant weight of the kept end x0; x1 is the newest point
    for _ in range(atomic._ROOT_MAXITER):
        if math.nextafter(x0, x1) == x1:
            return x0 if abs(f0) <= abs(f1) else x1
        x2 = x1 - f1 * (x1 - x0) / (f1 - w0)
        if x2 == x1 and math.isfinite(f1 - w0):
            x2 = math.nextafter(x1, x0)
        if not min(x0, x1) < x2 < max(x0, x1):
            x2 = x0 + (x1 - x0) / 2.0
        f2 = f(x2)
        if f2 == 0.0:
            return x2
        if math.copysign(1.0, f2) == math.copysign(1.0, f1):
            w0 /= 2.0
        else:
            x0, f0, w0 = x1, f1, f1
        x1, f1 = x2, f2
    raise RuntimeError(
        f"root search did not converge in {atomic._ROOT_MAXITER} steps, bracket [{x0}, {x1}]"
    )


def kron_liouvillian(p: atomic.AtomicParams) -> np.ndarray:
    """The generator written out per point with np.kron."""
    g = p.excited_decay_rate
    delta = p.two_photon_detuning / g
    big_delta = p.one_photon_detuning / g
    hf = p.hyperfine_splitting / g
    rabi = p.rabi_frequency / g
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = -delta
    h[2, 2] = -big_delta
    h[3, 3] = -(big_delta + hf + delta)
    h[2, 1] = h[1, 2] = -rabi / 2.0
    h[3, 0] = h[0, 3] = -rabi / 2.0
    eye = np.eye(4)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    ops = []
    for excited in (2, 3):
        for ground in (0, 1):
            op = np.zeros((4, 4))
            op[ground, excited] = 1.0
            ops.append(np.sqrt(0.5) * op)
    exchange = np.sqrt(p.ground_decoherence / p.excited_decay_rate)
    for i, j in ((0, 1), (1, 0)):
        op = np.zeros((4, 4))
        op[i, j] = 1.0
        ops.append(exchange * op)
    for op in ops:
        opdop = op.conj().T @ op
        gen += np.kron(op.conj(), op)
        gen -= 0.5 * (np.kron(eye, opdop) + np.kron(opdop.T, eye))
    return gen


def loop_liouvillian(p: atomic.AtomicParams) -> np.ndarray:
    """The generator of `atomic.liouvillian` with its former per-operator
    loop: the same broadcast outer products, added one operator at a time."""
    eye = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore"):
        g = p.excited_decay_rate
        delta = p.two_photon_detuning / g
        big_delta = p.one_photon_detuning / g
        hf = p.hyperfine_splitting / g
        rabi = p.rabi_frequency / g
        h = np.zeros((4, 4), dtype=complex)
        h[0, 0] = -delta
        h[2, 2] = -big_delta
        h[3, 3] = -(big_delta + hf + delta)
        h[2, 1] = h[1, 2] = -rabi / 2.0
        h[3, 0] = h[0, 3] = -rabi / 2.0
        ops = atomic._JUMPS * np.sqrt([0.5] * 4 + [p.ground_decoherence / g] * 2)[:, None, None]
        xs = np.concatenate([h[None], ops.conj().transpose(0, 2, 1) @ ops])
        left = (eye[:, None, :, None] * xs[:, None, :, None, :]).reshape(-1, 16, 16)
        right = (xs.transpose(0, 2, 1)[:, :, None, :, None] * eye[:, None, :]).reshape(-1, 16, 16)
        jumps = (ops.conj()[:, :, None, :, None] * ops[:, None, :, None, :]).reshape(-1, 16, 16)
        gen = -1j * (left[0] - right[0])
        for jump, opdop_left, opdop_right in zip(jumps, left[1:], right[1:]):
            gen += jump
            gen -= 0.5 * (opdop_left + opdop_right)
    return gen


def kron_pair_block(p: atomic.AtomicParams) -> np.ndarray:
    """sideband_response(p).pair_block computed one point at a time, as the
    detuning-linear algorithm does: the even block and the sideband sector
    of the np.kron generator at zero two-photon detuning, the state from
    the even block bordered by the trace functional, and the response from
    the sector with its diagonal shifted by -i delta/Gamma."""
    gen = kron_liouvillian(dataclasses.replace(p, two_photon_detuning=0.0))
    even = [0, 3, 5, 6, 9, 10, 12, 15]  # populations, (1,2), (2,1), (0,3), (3,0)
    trace = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    vec = np.zeros(16, dtype=complex)
    vec[even] = np.linalg.solve(gen[np.ix_(even, even)] + np.outer(trace, trace), trace)
    rho = vec.reshape((4, 4), order="F")
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    slots = ((1, 0), (2, 0), (1, 3), (2, 3))
    indices = [row + 4 * col for row, col in slots]
    system = gen[np.ix_(indices, indices)]
    system[np.diag_indices(4)] += p.two_photon_detuning / p.excited_decay_rate * -1j
    scale = p.depth / 2.0
    block = np.zeros((2, 2), dtype=complex)
    for col, slot in enumerate(((2, 0), (1, 3))):
        drive = np.zeros((4, 4))
        drive[slot] = -0.5
        source = -1j * (drive @ rho - rho @ drive)
        x = np.linalg.solve(system, -source.reshape(16, order="F")[indices])
        block[0, col] = 1j * scale * x[slots.index((2, 0))]
        block[1, col] = -1j * scale * x[slots.index((1, 3))]
    return block


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

    Each B is a complex 2x2 array, or an mpmath matrix whose entries are
    used as they are, unrounded.
    For each (B, L): M = e^{BL} and Q from the Van Loan block
    [[-B, D], [0, B^dag]] with D = |B eta + eta B^dag|, eta = diag(1, -1),
    taken over L / 2^k with ||B||_1 L / 2^k <= 1 and squared k times, so
    no entry grows like e^{-BL}.
    """
    with mpmath.workdps(digits):
        eta = mpmath.diag([1, -1])
        maps = []
        for b, length in segments:
            if not isinstance(b, mpmath.matrix):
                b = mpmath.matrix(np.asarray(b, dtype=complex).tolist())
            block = np.array(b.tolist(), dtype=complex)
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


def mpmath_gemellity(m, q):
    """The gemellity of a pair map (M, Q) at the working precision, read in
    the pair basis as `propagation._pair_outputs` reads it."""
    k = m * m.H + q
    f_a, f_b = mpmath.re(k[0, 0]), mpmath.re(k[1, 1])
    c = mpmath.re(mpmath.exp(-1j * (mpmath.arg(m[0, 0]) - mpmath.arg(m[1, 0]))) * k[0, 1])
    return (f_a + f_b) / 2 - mpmath.sqrt(c * c + ((f_a - f_b) / 2) ** 2)


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
