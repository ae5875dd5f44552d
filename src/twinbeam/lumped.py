"""Lumped twin-beam model: ideal amplifier followed by output losses.

A phase-insensitive amplifier of gain G seeded by a coherent probe
emits beams with fluxes G and G-1 (per unit seed flux), noise figures
2G-1 and amplitude covariance 2 sqrt(G(G-1)).  Beamsplitter losses
T_a, T_b at the output scale the figures in closed form.  The
unit-transmission constraint T_a G + T_b (G-1) = 1 singles out the
configurations that neither amplify nor attenuate the total flux; the
best gemellity on that surface is the benchmark any distributed scheme
has to beat.  It is known in closed form: G = sqrt(5) - 1,
T_a = (sqrt(5) - 1)/2, T_b = 1 and gemellity 5 - 2 sqrt(5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "constrain_unit_transmission",
    "optimize_unit_transmission",
]


def _check_gain(gain: float) -> None:
    if not math.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    if not gain >= 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")


@dataclass(frozen=True)
class LumpedConfig:
    """Gain and output transmissions of the lumped cascade."""

    gain: float
    probe_transmission: float
    conj_transmission: float

    def __post_init__(self):
        _check_gain(self.gain)
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


def constrain_unit_transmission(gain: float, conj_transmission: float) -> float:
    """Probe transmission enforcing T_a G + T_b (G-1) = 1.

    Raises ValueError when no transmission in [0, 1] satisfies the
    constraint for the given gain.
    """
    _check_gain(gain)
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


def optimize_unit_transmission() -> OptimumResult:
    """The minimum gemellity on the unit-transmission surface, in closed form.

    On T_a G + T_b (G-1) = 1 the optimum sits on the boundary T_b = 1
    at gain G = sqrt(5) - 1, with T_a = (sqrt(5) - 1)/2 and gemellity
    5 - 2 sqrt(5).  The gemellity is evaluated by `cascade` at that
    point.  The certificate compares the constrained gemellity there
    with its neighbours 1e-6 away: interior_in_gain holds when both
    gain neighbours lie above it, conj_at_boundary when lowering T_b
    raises it.
    """
    g = math.sqrt(5.0) - 1.0
    config = LumpedConfig(g, constrain_unit_transmission(g, 1.0), 1.0)
    value = cascade(config).gemellity
    # the gemellity rises quadratically along the gain and linearly as
    # T_b drops, so at this step the margins (about 2e-12 and 1e-7) stay
    # far above the rounding of the cascade formulas
    step = 1e-6
    interior = (
        _constrained_gemellity(g - step, 1.0) > value
        and _constrained_gemellity(g + step, 1.0) > value
    )
    at_boundary = _constrained_gemellity(g, 1.0 - step) > value
    return OptimumResult(
        config=config,
        gemellity=value,
        gemellity_db=db_from_linear(value),
        interior_in_gain=interior,
        conj_at_boundary=at_boundary,
    )
