"""Reference constructions the tests hold the package's fast paths against,
built from its quadrature channels."""

import functools

import numpy as np

from twinbeam import gaussian, propagation


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
