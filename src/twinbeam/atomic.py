"""Microscopic double-lambda response of the four-wave-mixing medium.

Four atomic levels: two ground states split by the hyperfine frequency
and two excited states.  A single strong pump couples the lower ground
state to one excited state (detuned by the one-photon detuning) and
the upper ground state to the other (detuned further by the hyperfine
splitting).  The probe and conjugate sidebands close the two Raman
legs, so one four-wave-mixing cycle moves an atom lower ground ->
excited -> upper ground -> other excited -> lower ground while
emitting one probe and one conjugate photon.

The pump-dressed steady state of the Lindblad generator is computed
exactly.  The generator conserves manifold parity, so it splits into an
8-dimensional even sector, where the state lives, and the sideband
coherences.  The two-photon detuning enters it only on the diagonal
and linearly, and not at all in the even block: so the state does not
depend on the detuning, and it is one 8x8 solve of the even block
bordered by the trace functional.  Weak sidebands are then treated in
linear response, a 4x4 solve in the sideband sector, whose diagonal is
that at zero detuning shifted by -i delta/Gamma; this yields a complex
2x2 generator per unit medium length for the co-propagating pair
(probe annihilation, conjugate creation).

The process holds one medium, the last analysed, keyed on the exact bits
of every field but the two-photon detuning, and the next medium replaces
it: its generator at zero detuning, its state, the sector's two source
columns and bounds on the shifted sector's singular values.  At every
detuning the smallest is at least the slowest sideband decay rate, and
the largest exceeds the zero-detuning sector's norm by at most
|delta|/Gamma; only points whose degeneracy check these bounds cannot
pass (no ground decoherence, or detunings of order 1e18 rad/s) pay a
4x4 SVD.  The bounds that clear a root's bracket clear every point
between its ends, so where they do the polish runs no check.  The held
medium keeps its last grid's gains with the dip both finders read, and
its last point's output; the root's output reads the block the polish
solved there.

A point and a whole scan grid share one solve, a strided diagonal shift
and a stacked 4x4 solve, with the same operations per point.  The
classical gains are the exact mean-field transfer e^generator, read by
`propagation._pair_gains` off the first column of the closed-form
(Cayley-Hamilton) exponential; `propagation.propagate_coupling` turns the
same generator into the exact quantum noise output through the pair map
(M, Q), whose M is that exponential and whose Q is Van Loan's noise
integral in closed form.  The flux-neutral point is polished by
`_regula_falsi`, a bracketed regula falsi on the capped flux balance, to
adjacent floats.  numpy is the only dependency.

The probe gain curve shows a deep Raman absorption dip at negative
two-photon detuning; the pump light shift moves the dip by roughly
(Omega^2/4)(1/(Delta + hyperfine) - 1/Delta), so the dip position
scales with pump power.  Near the dip there is a two-photon detuning
where the output flux equals the input flux although both gains are
far from unity: the medium acts there as a correlated beam splitter.

All public frequencies are angular (rad/s); internally everything is
normalized by the excited-state decay rate.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import propagation
from .configio import ConfigError, angular_from_khz, angular_from_mhz, check_keys
from .configio import section_float, section_frequency

__all__ = [
    "AtomicParams",
    "CouplingMatrix",
    "GainCurve",
    "BeamSplitterPoint",
    "DegenerateSteadyStateError",
    "MediumOverflowError",
    "NoCrossingError",
    "steady_state",
    "liouvillian",
    "sideband_response",
    "sideband_blocks",
    "gain_curves",
    "pair_output",
    "find_raman_dip",
    "find_beam_splitter_point",
    "params_from_mapping",
]

TWO_PI = 2.0 * np.pi


class DegenerateSteadyStateError(RuntimeError):
    """The Lindblad generator has no unique steady state."""


class NoCrossingError(RuntimeError):
    """No flux-neutral point in the scanned detuning window."""


class MediumOverflowError(RuntimeError):
    """The generator built from a medium's finite rates overflows the
    float range."""


@dataclass(frozen=True)
class AtomicParams:
    """Pump-dressed four-level medium parameters.

    one_photon_detuning is the pump detuning from the lower-ground
    transition, two_photon_detuning the additional Raman mismatch of
    the probe.  All rates and detunings are angular frequencies;
    depth is the dimensionless resonant optical depth of the medium.
    Defaults give the rubidium D1 configuration of the reference
    gain-curve calculation.
    """

    one_photon_detuning: float = TWO_PI * 800e6
    two_photon_detuning: float = 0.0
    rabi_frequency: float = TWO_PI * 420e6
    excited_decay_rate: float = TWO_PI * 5.75e6
    ground_decoherence: float = TWO_PI * 1e4
    depth: float = 500.0
    hyperfine_splitting: float = TWO_PI * 3.036e9

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.excited_decay_rate <= 0.0:
            raise ValueError(
                f"excited-state decay rate must be positive, got {self.excited_decay_rate}"
            )
        if self.rabi_frequency < 0.0:
            raise ValueError(f"Rabi frequency must be nonnegative, got {self.rabi_frequency}")
        if self.ground_decoherence < 0.0:
            raise ValueError(
                f"ground decoherence rate must be nonnegative, got {self.ground_decoherence}"
            )
        if self.depth < 0.0:
            raise ValueError(f"optical depth must be nonnegative, got {self.depth}")
        if self.hyperfine_splitting < 0.0:
            raise ValueError(
                f"hyperfine splitting must be nonnegative, got {self.hyperfine_splitting}"
            )


@dataclass(frozen=True)
class CouplingMatrix:
    """Local sideband generator per unit normalized medium length.

    pair_block is the complex 2x2 generator for the fluctuation pair
    (da, db^dag); the daggered partners obey its complex conjugate.
    """

    pair_block: np.ndarray

    def __post_init__(self):
        b = np.array(self.pair_block, dtype=complex)
        if b.shape != (2, 2):
            raise ValueError(f"pair block must be 2x2, got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "pair_block", b)


@dataclass(frozen=True)
class GainCurve:
    """Classical probe/conjugate gains over a two-photon detuning grid."""

    delta: np.ndarray
    probe_gain: np.ndarray
    conj_gain: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        pa = np.array(self.probe_gain, dtype=float)
        pb = np.array(self.conj_gain, dtype=float)
        if not (d.shape == pa.shape == pb.shape) or d.ndim != 1:
            raise ValueError("gain curve arrays must be 1-d and congruent")
        for arr in (d, pa, pb):
            arr.setflags(write=False)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "probe_gain", pa)
        object.__setattr__(self, "conj_gain", pb)


@dataclass(frozen=True)
class BeamSplitterPoint:
    """Flux-neutral operating point and the twin-beam metrics there."""

    delta: float
    probe_gain: float
    conj_gain: float
    gemellity: float
    gemellity_db: float


# basis: 0 = upper ground (probe leg), 1 = lower ground (pump leg),
#        2 = excited shared by pump and probe, 3 = excited shared by
#        pump and conjugate.  All entries in decay-rate units.
def _collapse_operators(p: AtomicParams) -> list[np.ndarray]:
    ops = []
    for excited in (2, 3):
        for ground in (0, 1):
            op = np.zeros((4, 4))
            op[ground, excited] = 1.0
            ops.append(np.sqrt(0.5) * op)  # Gamma/2 branching per ground state
    exchange = np.sqrt(p.ground_decoherence / p.excited_decay_rate)
    for i, j in ((0, 1), (1, 0)):
        op = np.zeros((4, 4))
        op[i, j] = 1.0
        ops.append(exchange * op)
    return ops


_EYE = np.eye(4)


def liouvillian(p: AtomicParams) -> np.ndarray:
    """16x16 Lindblad generator, column-stacked, in decay-rate units.

    Raises MediumOverflowError when the generator leaves the float range,
    as it does for rates of order 1e300 Gamma.
    """
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
        ops = np.array(_collapse_operators(p))
        xs = np.concatenate([h[None], ops.conj().transpose(0, 2, 1) @ ops])
        # np.kron's products as broadcast outer products, one per entry: I (x) X and
        # X^T (x) I for X = h and each op^dag op, then op^* (x) op for each op alone
        left = (_EYE[:, None, :, None] * xs[:, None, :, None, :]).reshape(-1, 16, 16)
        right = (xs.transpose(0, 2, 1)[:, :, None, :, None] * _EYE[:, None, :]).reshape(-1, 16, 16)
        # the terms in the order of a per-operator loop, gen += jump then
        # gen -= 0.5 (left + right), summed in that order; x - y = x + (-y) exactly
        terms = np.empty((1 + 2 * len(ops), 16, 16), dtype=complex)
        terms[0] = -1j * (left[0] - right[0])
        terms[1::2] = (ops.conj()[:, :, None, :, None] * ops[:, None, :, None, :]).reshape(-1, 16, 16)
        np.negative(0.5 * (left[1:] + right[1:]), out=terms[2::2])
        gen = np.add.reduce(terms, axis=0)
    _require_finite(p, "generator", np.isfinite(gen).all())
    return gen


def _at(deltas: np.ndarray, i: int) -> str:
    return f"at two-photon detuning {deltas[i]:.6e} rad/s"


# The generator conserves manifold parity: the pump couples only levels
# 1 <-> 2 and 0 <-> 3, and every jump maps populations to populations.
# So in the column-stacked basis (slot row + 4 col) it is block diagonal.
# The even sector holds the populations and the coherences inside
# {1, 2} and inside {0, 3}; the stationary state lives there.  The odd
# sector holds the sideband coherences driven by the probe and
# conjugate fields, (row, column) slots (1,0), (2,0), (1,3), (2,3), and
# their complex conjugates, each set mapped into itself.  Solving inside
# a sector is exact and keeps the cost at an 8x8 solve for the state and
# a 4x4 solve per detuning for the response.
_EVEN_INDICES = [k for k in range(16) if (k % 4 in (1, 2)) == (k // 4 in (1, 2))]
_EVEN = np.ix_(_EVEN_INDICES, _EVEN_INDICES)
_TRACE = np.array([1.0 if k % 5 == 0 else 0.0 for k in _EVEN_INDICES])
_BORDER = np.outer(_TRACE, _TRACE)
_SECTOR_SLOTS = ((1, 0), (2, 0), (1, 3), (2, 3))
_SECTOR_INDICES = [row + 4 * col for row, col in _SECTOR_SLOTS]
_SECTOR = np.ix_(_SECTOR_INDICES, _SECTOR_INDICES)
_PAIR_ROWS = np.array([[1j], [-1j]])  # the factors of the pair block's rows, over depth/2


def _detuning_grid(delta_grid) -> np.ndarray:
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("detuning grid must be a nonempty 1-d array")
    if not np.isfinite(deltas).all():
        raise ValueError("detuning grid must be finite")
    return deltas


class _Response:
    """The detuning-independent part of the sideband response of p.

    sector is the sideband sector at zero two-photon detuning and
    sing_even the even block's singular values.  rho is the stationary
    state, residual the even block's residual on it, and sources the
    sector's source columns of the probe and the conjugate field; rho is
    None when the even block is degenerate.

    The detuning shifts the sector by -i delta/Gamma, which leaves its
    Hermitian part, in floating point too, at that of the zero-detuning
    sector.  For a unit vector v, |S v| >= |Re v^dag S v|, so every
    shifted sector's smallest singular value is at least
    mu = -lambda_max(that Hermitian part), the slowest sideband decay
    rate gamma_g/Gamma, and its largest at most norm + |delta|/Gamma,
    norm being the zero-detuning sector's Frobenius norm.

    The process holds one response, the last medium's, shared through
    `_response`, so its arrays are read-only.  It keeps the gains of the
    last grid any caller asked for, with their dip, and the output at the
    last point asked for, and nothing else; a call that raises keeps
    nothing.  A caller that holds a point's block, as the polish does at
    its root, hands it to `output`, which then solves nothing.
    """

    def __init__(
        self, p: AtomicParams, sector: np.ndarray, sing_even: np.ndarray, mu: float,
        norm: float, rho: np.ndarray | None = None, residual: float = math.nan,
        sources: np.ndarray | None = None,
    ):
        self.p, self.sector, self.sing_even, self.mu, self.norm = p, sector, sing_even, mu, norm
        self.rho, self.residual, self.sources = rho, residual, sources
        for array in (sector, sing_even, rho, sources):
            if array is not None:
                array.setflags(write=False)
        self._last_gains = self._last_output = (None, None)

    def _shifted(self, deltas: np.ndarray) -> np.ndarray:
        """The sector at every detuning of deltas, an (n, 4, 4) stack."""
        system = self.sector[None].repeat(deltas.size, axis=0)
        # the diagonal as a strided view: every fifth entry of a flat 4x4
        system.reshape(deltas.size, 16)[:, ::5] -= 1j * (deltas / self.p.excited_decay_rate)[:, None]
        return system

    def _cleared(self, deltas: np.ndarray) -> bool:
        """Whether the bounds on the sector's singular values pass the
        check at every detuning of deltas.

        Twice the check's tolerance absorbs the SVD's rounding, about eps
        times the largest singular value, so a grid cleared here is one
        the SVD check passes too.  The bound on the largest singular value
        grows with |delta|, so the grid's widest detuning decides.
        """
        if not self.residual <= 1e-10 * max(1.0, self.sing_even[0]):  # NaN without a state
            return False
        reach = self.norm + float(np.maximum.reduce(np.abs(deltas))) / self.p.excited_decay_rate
        return min(self.sing_even[-2], self.mu) > 2e-10 * max(self.sing_even[0], reach)

    def check(self, deltas: np.ndarray) -> None:
        """Raise the DegenerateSteadyStateError of the first detuning of
        deltas at which the generator has no unique, well-conditioned
        stationary state.

        A grid the singular-value bounds do not clear is checked by one
        stacked SVD of its shifted sectors.
        """
        if self._cleared(deltas):
            return
        sing_odd = np.linalg.svd(self._shifted(deltas), compute_uv=False)
        # the generator's singular values are the even block's and twice
        # the sector's, so these are its largest and second-smallest
        top = np.maximum(self.sing_even[0], sing_odd[:, 0])
        second = np.minimum(self.sing_even[-2], sing_odd[:, -1])
        degenerate = second <= 1e-10 * top
        bad = degenerate | (self.residual > 1e-10 * np.maximum(1.0, top))
        if bad.any():
            n = int(np.argmax(bad))  # the first bad detuning
            if degenerate[n]:
                raise DegenerateSteadyStateError(
                    f"stationary space is degenerate {_at(deltas, n)} "
                    f"(second singular value {second[n]:.2e} of {top[n]:.2e})"
                )
            raise DegenerateSteadyStateError(
                f"stationary residual {self.residual:.2e} exceeds tolerance {_at(deltas, n)}"
            )

    def pair_blocks(self, deltas: np.ndarray, cleared: bool = False) -> np.ndarray:
        """The pair block at every detuning of a valid grid (`_detuning_grid`), an (N, 2, 2) stack.

        One `check` and one stacked solve cover the grid, with the same
        floating-point operations per entry as a one-point grid, so a
        detuning's block does not depend on the grid it is computed in.
        A failing check raises the error the detuning raises on its own,
        the first failing detuning of the grid being the one named.  With
        cleared, the caller has found `_cleared` true for detunings at
        least as wide as these, and no check runs.
        """
        if not cleared:
            self.check(deltas)
        # once the check has passed, the sector's condition number is below 1e10
        # sources[None], not the bare (4, 2): numpy < 2 reads that as vectors
        solution = np.linalg.solve(self._shifted(deltas), self.sources[None])
        # rows i and -i depth/2 times the solution in slots (2, 0) and (1, 3), _SECTOR_SLOTS[1:3]
        return _PAIR_ROWS * (self.p.depth / 2.0) * solution[:, 1:3]

    def gains(self, delta_grid) -> tuple[np.ndarray, np.ndarray, int]:
        """(probe gains, conjugate gains, dip) at every detuning of a grid,
        dip being the nanargmin of the probe gains, which both finders
        read.  The last grid's are kept, keyed on its exact bits, and
        handed out read-only."""
        deltas = _detuning_grid(delta_grid)
        key = deltas.tobytes()
        if self._last_gains[0] != key:
            probe, conj = propagation._pair_gains(self.pair_blocks(deltas))
            for array in (probe, conj):
                array.setflags(write=False)
            self._last_gains = (key, (probe, conj, int(np.nanargmin(probe))))
        return self._last_gains[1]

    def output(self, delta: float, block: np.ndarray | None = None) -> propagation.PropagationResult:
        """The quantum output at one detuning, from its pair block where the
        caller has solved it; the last point's is kept, keyed on its exact
        bits (the frozen result is safe to share)."""
        key = float(delta).hex()
        if self._last_output[0] != key:
            if block is None:
                block = self.pair_blocks(np.array([delta], dtype=float))[0]
            self._last_output = (key, propagation.propagate_coupling(block))
        return self._last_output[1]


# H depends on the two-photon detuning only through H00 = H33 = -delta/Gamma,
# and no jump operator depends on it, so the generator is exactly
# L(delta) = L(0) + (delta/Gamma) diag(c), c_k = -i (dH_rr - dH_cc) for slot
# k = r + 4 c, with dH = diag(-1, 0, 0, -1).  Both levels of an even slot lie
# in {0, 3} or both in {1, 2}, so c vanishes there: the even block, and with
# it the stationary state, does not depend on delta.  Each sector slot pairs
# one level of each set, so c = -i on the whole sector diagonal.
def _response(p: AtomicParams) -> _Response:
    """The detuning-independent part of p's sideband response, built once
    per medium and then taken from the cache."""
    return _medium_response(struct.pack("6d", *_medium_fields(p)))


_MEDIUM_FIELDS = tuple(f.name for f in fields(AtomicParams) if f.name != "two_photon_detuning")
_medium_fields = operator.attrgetter(*_MEDIUM_FIELDS)
_RATE_FIELDS = ("one_photon_detuning", "rabi_frequency", "hyperfine_splitting", "ground_decoherence")


def _require_finite(p: AtomicParams, quantity: str, finite: bool) -> None:
    """Raise MediumOverflowError naming the quantity and the medium's
    largest rate in decay-rate units, unless finite."""
    if finite:
        return
    ratios = {name: abs(getattr(p, name)) / p.excited_decay_rate for name in _RATE_FIELDS}
    name = max(ratios, key=ratios.get)
    raise MediumOverflowError(
        f"the dressed-atom {quantity} overflows the float range "
        f"({name} / excited_decay_rate = {ratios[name]:.6e})"
    )


@functools.lru_cache(maxsize=1)
def _medium_response(key: bytes) -> _Response:
    """The _Response of the medium at zero two-photon detuning whose other
    fields, as doubles, pack to key, every bit and the sign of a zero kept;
    from one generator build and one solve for the state."""
    p = AtomicParams(**dict(zip(_MEDIUM_FIELDS, struct.unpack("6d", key))))
    gen = liouvillian(p)
    even, sector = gen[_EVEN], gen[_SECTOR]
    # rates of order 1e150 Gamma overflow the sector's norm; the even block's
    # entries are of the sector's order, so past this check its SVD and the
    # state solve stay finite
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(sector)
    _require_finite(p, "sideband sector's norm", math.isfinite(norm))
    sing_even = np.linalg.svd(even, compute_uv=False)
    parts = (p, sector, sing_even, -np.linalg.eigvalsh(0.5 * (sector + sector.conj().T))[-1], norm)
    if sing_even[-2] <= 1e-10 * sing_even[0]:  # degenerate at every detuning
        return _Response(*parts)
    # Trace preservation makes w^T E = 0 for the trace functional w, so
    # (E + w w^T) v = w holds exactly when E v = 0 and w^T v = 1; in floats w^T v
    # is 1 up to eps times E's condition number, below about 1e10 past the check above.
    vec = np.zeros(16, dtype=complex)
    vec[_EVEN_INDICES] = np.linalg.solve(even + _BORDER, _TRACE)
    # column-stacked vector: row-major reshape, then transpose
    rho = vec.reshape(4, 4).T
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    # the state has no odd slots, so the generator's residual is the even block's
    residual = np.linalg.norm(even @ rho.T.reshape(16)[_EVEN_INDICES])

    probe_drive = np.zeros((4, 4))
    probe_drive[2, 0] = -0.5  # lowers probe photon into the upper-ground coherence
    conj_drive = np.zeros((4, 4))
    conj_drive[1, 3] = -0.5
    # one source column per field, shared by the sector at every detuning
    sources = np.empty((4, 2), dtype=complex)
    for col, drive in enumerate((probe_drive, conj_drive)):
        source = -1j * (drive @ rho - rho @ drive)
        sources[:, col] = -source.T.reshape(16)[_SECTOR_INDICES]
    return _Response(*parts, rho, residual, sources)


def steady_state(p: AtomicParams) -> np.ndarray:
    """Unique trace-one stationary density matrix of the dressed atom.

    Raises DegenerateSteadyStateError when the generator's nullspace
    is not one-dimensional (for example with the pump off and no
    ground-state relaxation) instead of silently picking a vector.
    """
    response = _response(p)
    response.check(_detuning_grid([p.two_photon_detuning]))
    return response.rho.copy()


def sideband_blocks(p: AtomicParams, delta_grid: np.ndarray) -> np.ndarray:
    """Pair blocks of `sideband_response` for every detuning of a grid.

    Returns an (N, 2, 2) stack; entry i equals
    sideband_response(p with two_photon_detuning=delta_grid[i]).pair_block
    bit for bit.  A failing check raises for the first failing detuning
    and names it.
    """
    return _response(p).pair_blocks(_detuning_grid(delta_grid))


def sideband_response(p: AtomicParams) -> CouplingMatrix:
    """Quasi-static linear response of the dressed atom to weak
    probe/conjugate fields, the response that sets the gain curves.

    The returned generator is scaled by the optical depth and applies
    per unit normalized medium length.
    """
    return CouplingMatrix(sideband_blocks(p, np.array([p.two_photon_detuning]))[0])


def gain_curves(p: AtomicParams, delta_grid: np.ndarray) -> GainCurve:
    """Probe and conjugate gains per unit probe seed across a detuning grid.

    The gains are |expm(block)|^2 of each point's pair generator: the
    exact transfer of the mean fields over the medium, with no slab
    discretization.
    """
    probe, conj, _ = _response(p).gains(delta_grid)
    return GainCurve(delta_grid, probe, conj)


def pair_output(p: AtomicParams) -> propagation.PropagationResult:
    """Full quantum output of the medium at one operating point; the
    medium keeps its last point's, such as the root just found."""
    return _response(p).output(p.two_photon_detuning)


# the default detuning window of both finders and of the CLI, and its scan size
_WINDOW_MHZ = (-150.0, 50.0)
_SCAN_POINTS = 251
_DEFAULT_WINDOW = tuple(map(angular_from_mhz, _WINDOW_MHZ))


def _scan_grid(window: tuple[float, float], n_scan: int) -> np.ndarray:
    if not window[0] < window[1]:
        raise ValueError(f"window must be increasing, got {window}")
    if not math.isfinite(float(window[1]) - float(window[0])):
        raise ValueError(f"window span must be finite, got {window}")
    if n_scan < 2:
        raise ValueError(f"a detuning scan needs at least 2 points, got {n_scan}")
    return np.linspace(float(window[0]), float(window[1]), n_scan)


def find_raman_dip(
    p: AtomicParams,
    window: tuple[float, float] = _DEFAULT_WINDOW,
    n_scan: int = _SCAN_POINTS,
) -> tuple[float, float]:
    """Locate the probe-absorption dip: (detuning, probe gain) at the minimum."""
    grid = _scan_grid(window, n_scan)
    gains, _, i = _response(p).gains(grid)
    return float(grid[i]), float(gains[i])


# Far above the evaluations a bracket of doubles has needed: 131 on the analytic test
# functions (a triple root); on the flux balance, 9 on the 40 pool media, which
# test_a_pinned_root_ends_the_polish bounds at 9, and 19 on dense media of depth 1.5e6-2.3e6.
_ROOT_MAXITER = 400


def _regula_falsi(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in the sign-change bracket [a, b], to the last float;
    fa and fb are f(a) and f(b).

    Regula falsi with the Anderson-Bjorck modification (N. Anderson and
    A. Bjorck, BIT 13, 253, 1973): when the new point falls on the side
    of the previous one, the secant weight of the end kept on the other
    side is scaled by m = 1 - f(new)/f(previous), floored at 1/2, the
    Illinois halving (M. Dowell and P. Jarratt, BIT 11, 168, 1971): on a
    flat side f(new)/f(previous) nears 1, and m alone would shrink the
    weight towards 0 and stall the polish there.  A secant point
    outside the bracket is replaced by the midpoint, and one that rounds
    onto the newest end, while the secant's denominator is finite, by the
    next float inside, Brent's least step (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4); after three least
    steps in a row, by the midpoint until a secant point lands strictly
    inside the bracket, so ends whose values differ by hundreds of orders
    do not cost a step per float.  Stops at an exact zero or when the ends
    are adjacent floats, returning the end with the smaller |f|, or on a
    tie the end where f is positive, whatever path led there.  Raises
    RuntimeError when _ROOT_MAXITER steps do not get there.
    """
    x0, x1, f0, f1 = float(a), float(b), float(fa), float(fb)
    if f0 == 0.0:
        return x0
    if f1 == 0.0:
        return x1
    if math.copysign(1.0, f0) == math.copysign(1.0, f1):
        raise ValueError("f(a) and f(b) must have different signs")
    w0 = f0  # the secant weight of the kept end x0; x1 is the newest point
    least = 0  # the least steps in a row
    for _ in range(_ROOT_MAXITER):
        if math.nextafter(x0, x1) == x1:
            if abs(f0) == abs(f1):  # a tie: the end where f is positive
                return x0 if f0 > 0.0 else x1
            return x0 if abs(f0) < abs(f1) else x1
        x2 = x1 - f1 * (x1 - x0) / (f1 - w0)
        if x2 == x1 and math.isfinite(f1 - w0) and least < 3:
            x2, least = math.nextafter(x1, x0), least + 1
        elif min(x0, x1) < x2 < max(x0, x1):
            least = 0
        else:
            x2 = x0 + (x1 - x0) / 2.0
        f2 = f(x2)
        if f2 == 0.0:
            return x2
        if math.copysign(1.0, f2) == math.copysign(1.0, f1):
            m = 1.0 - f2 / f1
            w0 *= m if m > 0.5 else 0.5  # a NaN m takes 1/2 too
        else:
            x0, f0, w0 = x1, f1, f1
        x1, f1 = x2, f2
    raise RuntimeError(
        f"root search did not converge in {_ROOT_MAXITER} steps, bracket [{x0}, {x1}]"
    )


def _flux_balance(probe: np.ndarray, conj: np.ndarray) -> np.ndarray:
    return np.minimum(probe, 2.0) + np.minimum(conj, 2.0) - 1.0


def find_beam_splitter_point(
    p: AtomicParams,
    window: tuple[float, float] = _DEFAULT_WINDOW,
    n_scan: int = _SCAN_POINTS,
) -> BeamSplitterPoint:
    """Root-find the detuning where output flux equals the probe input.

    Scans the window, takes the flux-balance crossing adjacent to the
    Raman dip (below it when one exists there, else the nearest one
    above), polishes it with a bracketed root solve, and evaluates the
    quantum metrics at the polished point.  Scan and polish read one
    balance, min(G_a, 2) + min(G_b, 2) - 1, whose cap keeps the sign and
    keeps every value, a bracket end's too, within [-1, 3].  Near a root
    both gains are below 1, where it changes nothing.  Raises
    NoCrossingError when the window contains no sign change of the balance.
    """
    grid = _scan_grid(window, n_scan)
    # the scan, every flux balance and the output share one response
    response = _response(p)
    probe, conj, dip = response.gains(grid)
    # a point whose gains overflowed has no sign
    finite = np.isfinite(probe) & np.isfinite(conj)
    balance = np.where(finite, np.sign(_flux_balance(probe, conj)), 0.0)
    crossings = np.nonzero(balance[:-1] * balance[1:] < 0.0)[0]
    if crossings.size == 0:
        over = finite.size - np.count_nonzero(finite)
        raise NoCrossingError(
            "no flux-neutral crossing in the window "
            f"[{grid[0]:.6e}, {grid[-1]:.6e}] rad/s"
            + (f" ({over} of {finite.size} scan points overflow the float range)" if over else "")
        )
    below = crossings[crossings < dip]
    bracket = int(below[-1]) if below.size else int(crossings[0])
    ends = slice(bracket, bracket + 2)
    # every point the polish evaluates lies between the bracket's ends, so
    # the bound that clears them clears it; elsewhere each point is checked
    cleared = response._cleared(grid[ends])
    blocks = {}  # each polished point's block, by its bits, for the output at the root

    def flux_balance(delta: float) -> float:
        block = response.pair_blocks(np.array([delta]), cleared)
        blocks[delta.hex()] = block[0]
        return float(_flux_balance(*propagation._pair_gains(block))[0])

    # a point's block and exponential do not depend on the stack, so the
    # scan holds the flux balance at both ends bit for bit
    delta_star = _regula_falsi(flux_balance, *grid[ends], *_flux_balance(probe[ends], conj[ends]))
    # pair_output at delta_star, kept for a pair_output call there; a root at
    # a scan end, whose block the scan did not keep, is solved anew
    out = response.output(delta_star, blocks.get(delta_star.hex()))
    return BeamSplitterPoint(delta_star, out.g_a, out.g_b, out.gemellity, out.gemellity_db)


_PARAM_KEYS = {
    "Delta_MHz": ("one_photon_detuning", angular_from_mhz),
    "Omega_MHz": ("rabi_frequency", angular_from_mhz),
    "Gamma_MHz": ("excited_decay_rate", angular_from_mhz),
    "gamma_g_kHz": ("ground_decoherence", angular_from_khz),
    "depth": ("depth", float),
    "hyperfine_MHz": ("hyperfine_splitting", angular_from_mhz),
}


def params_from_mapping(mapping: dict) -> AtomicParams:
    """Build AtomicParams from the keys of an [atomic] config section;
    absent keys keep defaults."""
    check_keys(mapping, "atomic", _PARAM_KEYS)
    kwargs = {}
    for key, (field, convert) in _PARAM_KEYS.items():
        if key in mapping:
            read = section_float if key == "depth" else section_frequency
            kwargs[field] = convert(read(mapping, "atomic", key, None))
    try:
        return AtomicParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [atomic] parameters: {exc}") from exc
