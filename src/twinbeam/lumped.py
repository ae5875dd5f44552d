"""Lumped twin-beam model: ideal amplifier followed by output losses.

A phase-insensitive amplifier of gain G seeded by a coherent probe
emits beams with fluxes G and G-1 (per unit seed flux), noise figures
2G-1 and amplitude covariance 2 sqrt(G(G-1)).  Beamsplitter losses
T_a, T_b at the output scale the figures in closed form.  The
unit-transmission constraint T_a G + T_b (G-1) = 1 singles out the
configurations that neither amplify nor attenuate the total flux; the
best gemellity on that surface is the benchmark any distributed scheme
has to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .metrics import (
    NoiseFigures,
    _flux_weighted_difference_noise,
    db_from_linear,
    gemellity,
)

__all__ = [
    "LumpedConfig",
    "CascadeResult",
    "OptimumResult",
    "cascade",
    "cascade_state",
    "probe_loss_balancing_curve",
    "constrain_unit_transmission",
    "optimize_unit_transmission",
]


@dataclass(frozen=True)
class LumpedConfig:
    """Gain and output transmissions of the lumped cascade."""

    gain: float
    probe_transmission: float
    conj_transmission: float

    def __post_init__(self):
        if self.gain < 1.0:
            raise ValueError(f"gain must be >= 1, got {self.gain}")
        for name, t in (
            ("probe_transmission", self.probe_transmission),
            ("conj_transmission", self.conj_transmission),
        ):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {t}")


@dataclass(frozen=True)
class CascadeResult:
    """Closed-form observables of the cascade for a unit coherent seed."""

    figures: NoiseFigures
    probe_flux: float
    conj_flux: float
    total_transmission: float
    gemellity: float
    diff_noise: float


@dataclass(frozen=True)
class OptimumResult:
    """Constrained optimum with a local certificate."""

    config: LumpedConfig
    gemellity: float
    gemellity_db: float
    interior_in_gain: bool
    conj_at_boundary: bool


def cascade(config: LumpedConfig) -> CascadeResult:
    """Evaluate the amplifier-plus-loss cascade in closed form.

    The diff_noise field is the intensity-difference noise weighted by
    the actual output fluxes; gemellity is the optimum over weights.
    """
    g = config.gain
    ta, tb = config.probe_transmission, config.conj_transmission
    f_a = ta * (2.0 * g - 1.0) + (1.0 - ta)
    f_b = tb * (2.0 * g - 1.0) + (1.0 - tb)
    cov = 2.0 * np.sqrt(ta * tb * g * (g - 1.0))
    figures = NoiseFigures(f_a, f_b, cov / np.sqrt(f_a * f_b))
    probe_flux = ta * g
    conj_flux = tb * (g - 1.0)
    return CascadeResult(
        figures=figures,
        probe_flux=probe_flux,
        conj_flux=conj_flux,
        total_transmission=probe_flux + conj_flux,
        gemellity=float(gemellity(figures)),
        diff_noise=_flux_weighted_difference_noise(figures, probe_flux, conj_flux),
    )


def cascade_state(config: LumpedConfig) -> gaussian.CovarianceState:
    """Same cascade evaluated by explicit channel composition."""
    channel = gaussian.compose(
        gaussian.loss_channel(config.probe_transmission, config.conj_transmission),
        gaussian.amplifier_channel(config.gain),
    )
    return gaussian.apply(channel, gaussian.coherent_input(1.0))


def probe_loss_balancing_curve(gain: float, probe_transmissions) -> np.ndarray:
    """Flux-weighted difference noise versus probe attenuation at T_b = 1.

    Attenuating the brighter probe rebalances the beams: the curve has
    an interior minimum below the untouched value for moderate gain.
    """
    out = []
    for ta in np.atleast_1d(probe_transmissions):
        res = cascade(LumpedConfig(gain, float(ta), 1.0))
        out.append(res.diff_noise)
    return np.array(out)


def constrain_unit_transmission(gain: float, conj_transmission: float) -> float:
    """Probe transmission enforcing T_a G + T_b (G-1) = 1.

    Raises ValueError when no transmission in [0, 1] satisfies the
    constraint for the given gain.
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    if not 0.0 <= conj_transmission <= 1.0:
        raise ValueError(f"conjugate transmission must lie in [0, 1], got {conj_transmission}")
    ta = (1.0 - conj_transmission * (gain - 1.0)) / gain
    if not -1e-12 <= ta <= 1.0 + 1e-12:
        raise ValueError(
            f"no feasible probe transmission for gain {gain}, T_b {conj_transmission} "
            f"(constraint gives {ta:.6f})"
        )
    return float(min(max(ta, 0.0), 1.0))


def _constrained_gemellity(gain: float, conj_transmission: float) -> float:
    ta = constrain_unit_transmission(gain, conj_transmission)
    return cascade(LumpedConfig(gain, ta, conj_transmission)).gemellity


def optimize_unit_transmission(
    grid_step: float = 0.01,
    refine_tol: float = 1e-4,
) -> OptimumResult:
    """Minimize the gemellity over (G, T_b) on the unit-transmission surface.

    Coarse grid scan with the given step, then coordinate-wise interval
    shrinking until the parameters are located to refine_tol.  The
    result carries a local certificate: interior minimum in the gain
    direction, boundary optimum T_b = 1.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError(f"grid step must lie in (0, 0.1], got {grid_step}")
    if refine_tol <= 0.0:
        raise ValueError(f"refinement tolerance must be positive, got {refine_tol}")

    def objective(g, tb):
        try:
            return _constrained_gemellity(g, tb)
        except ValueError:
            return np.inf

    gains = np.arange(1.0 + grid_step, 2.0 + grid_step / 2, grid_step)
    tbs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    best = (np.inf, gains[0], 1.0)
    for g in gains:
        for tb in tbs:
            v = objective(g, tb)
            if v < best[0]:
                best = (v, g, tb)
    _, g0, tb0 = best

    # shrink a box around the coarse optimum; 5-point refinement per axis
    half_g = grid_step
    half_tb = grid_step
    g, tb = g0, tb0
    while half_g > refine_tol / 2 or half_tb > refine_tol / 2:
        for gg in np.linspace(max(1.0, g - half_g), g + half_g, 5):
            for tt in np.linspace(max(0.0, tb - half_tb), min(1.0, tb + half_tb), 5):
                v = objective(gg, tt)
                if v < best[0]:
                    best = (v, gg, tt)
        _, g, tb = best
        half_g /= 2.0
        half_tb /= 2.0

    value, g, tb = best
    ta = constrain_unit_transmission(g, tb)
    step = max(refine_tol, 1e-6)
    interior = (
        objective(g - step, tb) > value and objective(g + step, tb) > value
    )
    at_boundary = tb >= 1.0 - refine_tol and objective(g, tb - step) > value
    return OptimumResult(
        config=LumpedConfig(float(g), ta, float(tb)),
        gemellity=float(value),
        gemellity_db=db_from_linear(value),
        interior_in_gain=bool(interior),
        conj_at_boundary=bool(at_boundary),
    )
