"""Reference constructions the tests hold the package's fast paths against,
built from its quadrature channels."""

from twinbeam import gaussian


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
