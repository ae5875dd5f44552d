"""Dressed-atom steady state, sideband response, gain curves, and the
flux-neutral operating point."""

import dataclasses
import functools
import gc
import json
import math
import re
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from twinbeam import atomic, cli, gaussian, propagation
from twinbeam.atomic import (
    AtomicParams,
    CouplingMatrix,
    DegenerateSteadyStateError,
    NoCrossingError,
)
from twinbeam.configio import ConfigError, angular_from_mhz, mhz_from_angular

from oracles import (
    exact_channel,
    illinois,
    kron_liouvillian,
    kron_pair_block,
    loop_liouvillian,
    mpmath_flux_balance,
    mpmath_gains,
    output_state,
)

TWO_PI = 2.0 * np.pi


def mhz(v: float) -> float:
    return TWO_PI * v * 1e6


def test_params_validation():
    with pytest.raises(ValueError):
        AtomicParams(excited_decay_rate=0.0)
    with pytest.raises(ValueError):
        AtomicParams(rabi_frequency=-1.0)
    with pytest.raises(ValueError):
        AtomicParams(ground_decoherence=-1.0)
    with pytest.raises(ValueError):
        AtomicParams(depth=-1.0)
    with pytest.raises(ValueError):
        AtomicParams(hyperfine_splitting=-1.0)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(AtomicParams)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(field, value):
    # a NaN passes every sign check, and used to end in a RuntimeWarning, a
    # NoCrossingError or a LinAlgError far from its cause
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        AtomicParams(**{field: value})


def test_an_overflowing_generator_raises_from_liouvillian_itself():
    # rates of 1e300 Gamma overflow the generator; a direct call used to warn
    # three times and return NaN entries, pytest makes any warning an error
    with pytest.raises(atomic.MediumOverflowError, match="dressed-atom generator overflows"):
        atomic.liouvillian(AtomicParams(excited_decay_rate=5e-324))


def test_params_from_mapping_defaults_and_conversions():
    assert atomic.params_from_mapping({}) == AtomicParams()
    p = atomic.params_from_mapping(
        {
            "Delta_MHz": "700",
            "Omega_MHz": "300",
            "Gamma_MHz": "6",
            "gamma_g_kHz": "10",
            "depth": "250",
            "hyperfine_MHz": "3035.7",
        }
    )
    assert p.two_photon_detuning == 0.0
    assert p.one_photon_detuning == pytest.approx(mhz(700.0))
    assert p.rabi_frequency == pytest.approx(mhz(300.0))
    assert p.excited_decay_rate == pytest.approx(mhz(6.0))
    assert p.ground_decoherence == AtomicParams().ground_decoherence
    assert p.depth == 250.0
    assert p.hyperfine_splitting == pytest.approx(mhz(3035.7))
    # the two-photon detuning is what the scans and the root search vary;
    # a medium does not set it
    with pytest.raises(ConfigError, match=r"unknown keys in \[atomic\]: delta_MHz"):
        atomic.params_from_mapping({"delta_MHz": "-50"})


def test_params_from_mapping_errors():
    with pytest.raises(ConfigError):
        atomic.params_from_mapping({"detuning_MHz": "1"})
    with pytest.raises(ConfigError):
        atomic.params_from_mapping({"depth": "thick"})
    with pytest.raises(ConfigError):
        atomic.params_from_mapping({"Gamma_MHz": "-1"})


def _steady_state_invariants(p: AtomicParams):
    rho = atomic.steady_state(p)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(rho).imag) < 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    residual = atomic.liouvillian(p) @ rho.reshape(16, order="F")
    assert np.linalg.norm(residual) < 1e-8


def test_steady_state_invariants_at_reference_parameters():
    _steady_state_invariants(AtomicParams())


def test_steady_state_invariants_over_random_parameters():
    rng = np.random.default_rng(42)
    for _ in range(60):
        sign = rng.choice([-1.0, 1.0])
        p = AtomicParams(
            one_photon_detuning=sign * mhz(rng.uniform(200.0, 1500.0)),
            two_photon_detuning=mhz(rng.uniform(-200.0, 100.0)),
            rabi_frequency=mhz(rng.uniform(50.0, 900.0)),
            ground_decoherence=TWO_PI * rng.uniform(1e3, 1e5),
        )
        _steady_state_invariants(p)


def test_steady_state_with_pump_off_is_the_ground_mixture():
    rho = atomic.steady_state(AtomicParams(rabi_frequency=0.0))
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-10)


def test_steady_state_degenerate_without_pump_and_exchange():
    with pytest.raises(DegenerateSteadyStateError):
        atomic.steady_state(
            AtomicParams(rabi_frequency=0.0, ground_decoherence=0.0)
        )


def test_a_state_whose_residual_fails_the_check_is_refused():
    # no medium is known to reach this refusal, so the held response's
    # residual is raised above tolerance; the bounds then clear nothing
    p = AtomicParams()
    atomic._response(p).residual = 1e-3
    for call in (atomic.steady_state, atomic.sideband_response):
        with pytest.raises(DegenerateSteadyStateError) as caught:
            call(p)
        assert str(caught.value) == (
            "stationary residual 1.00e-03 exceeds tolerance at two-photon detuning 0.000000e+00 rad/s"
        )


def _box_medium(rng) -> AtomicParams:
    """A seeded draw from the dense-media box, log-uniform in Omega
    (10-316 MHz), |Delta| (0.3-32 MHz) and depth (1e4-1e7), with and
    without ground decoherence."""
    omega, big, depth = (10.0 ** rng.uniform(lo, hi) for lo, hi in ((1.0, 2.5), (-0.5, 1.5), (4.0, 7.0)))
    return AtomicParams(
        rabi_frequency=mhz(omega),
        one_photon_detuning=float(mhz(big) * rng.choice([-1.0, 1.0])),
        ground_decoherence=float(rng.choice([0.0, AtomicParams().ground_decoherence])),
        depth=depth,
    )


# Media A and B of the scan-size study: dense, with little or no ground
# decoherence, their flux-neutral point depends on the scan size
_MEDIUM_A = AtomicParams(
    rabi_frequency=mhz(40.155), one_photon_detuning=mhz(27.263), ground_decoherence=0.0, depth=1.036e6
)
_MEDIUM_B = AtomicParams(
    rabi_frequency=2.599e8, one_photon_detuning=1.207e8, ground_decoherence=7.28e3, depth=2.28e5
)


def test_the_bordered_state_has_unit_trace_wherever_the_even_block_is_not_degenerate():
    # (E + w w^T) v = w with w^T E = 0 gives w^T v = 1 - w^T E v / w^T w:
    # 1 up to eps times a condition number the degeneracy check bounds near
    # 1e10, so a non-degenerate medium's state is never traceless
    rng = np.random.default_rng(20261021)
    media = [
        AtomicParams(),
        AtomicParams(ground_decoherence=0.0),
        *map(_pool_medium, range(40)),
        _MEDIUM_A,
        _MEDIUM_B,
        *(_box_medium(rng) for _ in range(200)),
    ]
    worst, solved = 0.0, 0
    for p in media:
        even = atomic.liouvillian(p)[atomic._EVEN]
        sing = np.linalg.svd(even, compute_uv=False)
        if sing[-2] <= 1e-10 * sing[0]:
            continue
        trace = atomic._TRACE @ np.linalg.solve(even + atomic._BORDER, atomic._TRACE)
        worst, solved = max(worst, abs(trace - 1.0)), solved + 1
    assert solved > 200
    assert worst <= 1e-9


def test_resonant_pump_populates_the_shared_excited_state():
    p = AtomicParams(
        one_photon_detuning=0.0,
        rabi_frequency=mhz(20.0),
        ground_decoherence=TWO_PI * 1e6,
    )
    rho = atomic.steady_state(p)
    assert rho[2, 2].real > 1e-3


def test_sideband_response_with_pump_off_matches_closed_forms():
    p = AtomicParams(
        rabi_frequency=0.0,
        two_photon_detuning=mhz(-30.0),
        depth=500.0,
    )
    g = p.excited_decay_rate
    dn = p.two_photon_detuning / g
    big = p.one_photon_detuning / g
    hf = p.hyperfine_splitting / g
    gg = p.ground_decoherence / g
    block = atomic.sideband_response(p).pair_block
    # bare Raman legs: probe sees a Lorentzian at Delta - delta, the
    # conjugate leg sits on the far hyperfine shoulder; no cross terms
    m_aa = -(p.depth / 4.0) * 0.5 / ((0.5 + gg / 2.0) - 1j * (big - dn))
    m_bb = -(p.depth / 4.0) * 0.5 / ((0.5 + gg / 2.0) + 1j * (big + hf + dn))
    assert block[0, 0] == pytest.approx(m_aa, abs=1e-12)
    assert block[1, 1] == pytest.approx(m_bb, abs=1e-12)
    assert abs(block[0, 1]) < 1e-15
    assert abs(block[1, 0]) < 1e-15


@pytest.mark.parametrize("delta_mhz", [-120.0, -50.0, 10.0])
def test_sector_solve_agrees_with_the_full_generator(delta_mhz):
    p = dataclasses.replace(AtomicParams(), two_photon_detuning=mhz(delta_mhz))
    block = atomic.sideband_response(p).pair_block

    rho0 = atomic.steady_state(p)
    gen = atomic.liouvillian(p)
    scale = p.depth / 2.0
    full = np.zeros((2, 2), dtype=complex)
    for col, slot in enumerate(((2, 0), (1, 3))):
        drive = np.zeros((4, 4))
        drive[slot] = -0.5
        source = -1j * (drive @ rho0 - rho0 @ drive)
        rhs = -source.reshape(16, order="F")
        x, *_ = np.linalg.lstsq(gen, rhs, rcond=None)
        full[0, col] = 1j * scale * x[2 + 4 * 0]
        full[1, col] = -1j * scale * x[1 + 4 * 3]
    np.testing.assert_allclose(block, full, atol=1e-9)


def test_coupling_matrix_structure():
    block = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2j, 0.4]])
    m = CouplingMatrix(block)
    np.testing.assert_array_equal(m.pair_block, block)
    assert m.pair_block.dtype == complex
    assert not m.pair_block.flags.writeable
    with pytest.raises(ValueError):
        CouplingMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CouplingMatrix(np.zeros((4, 4)))


def test_response_vanishes_far_from_resonance():
    p = dataclasses.replace(
        AtomicParams(), one_photon_detuning=AtomicParams().one_photon_detuning * 1e4
    )
    block = atomic.sideband_response(p).pair_block
    assert np.max(np.abs(block)) < 1e-4


def test_gain_curves_for_zero_depth_are_trivial():
    p = dataclasses.replace(AtomicParams(), depth=0.0)
    curve = atomic.gain_curves(p, np.linspace(mhz(-100.0), mhz(50.0), 7))
    np.testing.assert_array_equal(curve.probe_gain, np.ones(7))
    np.testing.assert_array_equal(curve.conj_gain, np.zeros(7))
    np.testing.assert_allclose(curve.probe_gain + curve.conj_gain, np.ones(7))


def test_gain_curves_validate_the_grid():
    p = AtomicParams()
    with pytest.raises(ValueError):
        atomic.gain_curves(p, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        atomic.gain_curves(p, np.array([]))
    with pytest.raises(ValueError):
        atomic.gain_curves(p, np.array([np.inf]))
    with pytest.raises(ValueError, match=r"^gain curve arrays must be 1-d and congruent$"):
        atomic.GainCurve(np.zeros(3), np.ones(3), np.zeros(2))


# |block| reaches about 210 at -40.69 MHz here; a 256-slab propagator
# used to fail its own CP check on a 248-point grid
_SHARP = AtomicParams(
    rabi_frequency=mhz(410.2971582625409),
    one_photon_detuning=mhz(761.5550940104606),
    depth=563.786954953772,
)


def test_gain_curves_survive_the_sharp_resonance_next_to_the_dip():
    curve = atomic.gain_curves(_SHARP, np.linspace(mhz(-150.0), mhz(50.0), 248))
    assert np.all(np.isfinite(curve.probe_gain))
    assert np.all(np.isfinite(curve.conj_gain))
    assert np.all(curve.probe_gain >= 0.0)
    assert np.all(curve.conj_gain >= 0.0)


def test_gain_curves_are_nonnegative_and_physical():
    grid = np.linspace(mhz(-120.0), mhz(20.0), 5)
    curve = atomic.gain_curves(AtomicParams(), grid)
    assert np.all(curve.probe_gain >= 0.0)
    assert np.all(curve.conj_gain >= 0.0)
    for delta in grid[::2]:
        p = dataclasses.replace(AtomicParams(), two_photon_detuning=float(delta))
        state = output_state(exact_channel(atomic.sideband_response(p).pair_block))
        assert gaussian.uncertainty_defect(state) > -1e-9


def _generators(p: AtomicParams, deltas: np.ndarray) -> np.ndarray:
    """The 16x16 generator at every detuning of a grid, one build each."""
    return np.array(
        [atomic.liouvillian(dataclasses.replace(p, two_photon_detuning=float(d))) for d in deltas]
    )


def _on_stack(index: tuple) -> tuple:
    """A generator block's index, applied to every matrix of a stack."""
    return (slice(None), *index)


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))


# grid sizes from the one-point grid up, around powers of two
_GRID_SIZES = (1, 2, 31, 32, 33, 64, 65)


@settings(max_examples=12, deadline=None)
@given(
    omega=st.floats(380.0, 460.0),
    big=st.floats(750.0, 850.0),
    depth=st.floats(400.0, 600.0),
    size=st.sampled_from(_GRID_SIZES),
    lo=st.floats(-150.0, 40.0),
    width=st.floats(0.5, 190.0),
)
# a grid where the gains' squares by pow and by a product differ in the last bit
@example(omega=380.0, big=750.0, depth=408.4969675887814, size=31, lo=0.0, width=0.5)
def test_batched_grid_matches_the_per_point_path_bit_for_bit(omega, big, depth, size, lo, width):
    p = AtomicParams(
        rabi_frequency=mhz(omega), one_photon_detuning=mhz(big), depth=depth
    )
    grid = np.linspace(mhz(lo), mhz(min(lo + width, 50.0)), size)
    blocks = atomic.sideband_blocks(p, grid)
    curve = atomic.gain_curves(p, grid)
    for i, delta in enumerate(grid):
        point = dataclasses.replace(p, two_photon_detuning=float(delta))
        single = atomic.sideband_response(point).pair_block
        _assert_bitwise(blocks[i], single)
        e = propagation._expm2x2(single[None])[0][0]
        for gain, z in ((curve.probe_gain[i], e[0, 0]), (curve.conj_gain[i], e[1, 0])):
            assert gain == z.real * z.real + z.imag * z.imag
    for delta in grid[:: max(1, size // 3)]:
        point = dataclasses.replace(p, two_photon_detuning=float(delta))
        _assert_bitwise(atomic.liouvillian(point), kron_liouvillian(point))
        _assert_bitwise(atomic.sideband_response(point).pair_block, kron_pair_block(point))


@pytest.mark.parametrize("medium", [None, *range(8)], ids=["default", *map(str, range(8))])
def test_generator_parts_plus_the_detuning_shift_match_the_generator(medium):
    # L(delta) = L(0) + (delta/Gamma) diag(c): exact up to the rounding of
    # the Hamiltonian's diagonal, so to a few ulp of the generator's norm,
    # on the scan grid and far beyond it
    p = AtomicParams() if medium is None else _pool_medium(medium)
    rng = np.random.default_rng(0 if medium is None else medium + 1)
    deltas = np.concatenate(
        [np.linspace(*atomic._DEFAULT_WINDOW, 251), mhz(rng.uniform(-5e3, 5e3, 100))]
    )
    gen = _generators(p, deltas)
    even = atomic.liouvillian(dataclasses.replace(p, two_photon_detuning=0.0))[atomic._EVEN]
    sector = atomic._response(p).sector
    ulp = np.finfo(float).eps * np.abs(gen).max(axis=(1, 2))
    # c_k = -i (dH_rr - dH_cc) for slot k = r + 4 c, dH = diag(-1, 0, 0, -1)
    dh = np.array([-1.0, 0.0, 0.0, -1.0])
    c = (-1j * (dh[:, None] - dh[None, :])).reshape(16, order="F")
    assert not np.any(c[atomic._EVEN_INDICES])
    assert np.all(c[atomic._SECTOR_INDICES] == -1j)
    assert np.all(np.abs(gen[_on_stack(atomic._EVEN)] - even).max(axis=(1, 2)) <= 4.0 * ulp)
    sectors = sector - 1j * (deltas / p.excited_decay_rate)[:, None, None] * np.eye(4)
    assert np.all(np.abs(gen[_on_stack(atomic._SECTOR)] - sectors).max(axis=(1, 2)) <= 4.0 * ulp)


def _count_builds(monkeypatch) -> dict:
    """Count the response lookups, the gain evaluations, the bordered 8x8
    state solves, the stacked (n, 4, 4) sector SVDs and solves, the
    sector solves of more than one detuning and the quantum outputs
    (propagate_coupling calls) of the atomic model."""
    calls = {
        "_response": 0, "_pair_gains": 0, "state_solve": 0, "sector_svd": 0,
        "sector_solve": 0, "scan_solve": 0, "output": 0,
    }
    for module, name in ((atomic, "_response"), (propagation, "_pair_gains")):

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)

    def solve(a, b, _original=np.linalg.solve):
        calls["state_solve"] += np.shape(a) == (8, 8)
        calls["sector_solve"] += np.shape(a)[1:] == (4, 4)
        calls["scan_solve"] += np.shape(a)[1:] == (4, 4) and np.shape(a)[0] > 1
        return _original(a, b)

    def svd(a, *args, _original=np.linalg.svd, **kwargs):
        calls["sector_svd"] += np.shape(a)[1:] == (4, 4)
        return _original(a, *args, **kwargs)

    def output(block, _original=propagation.propagate_coupling):
        calls["output"] += 1
        return _original(block)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(propagation, "propagate_coupling", output)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda p: atomic.gain_curves(p, np.linspace(*atomic._DEFAULT_WINDOW, 251)),
        lambda p: atomic.find_raman_dip(p),
        lambda p: atomic.find_beam_splitter_point(p),
        lambda p: atomic.sideband_blocks(p, np.linspace(*atomic._DEFAULT_WINDOW, 700)),
        lambda p: atomic.sideband_response(p),
        lambda p: atomic.steady_state(p),
        lambda p: atomic.pair_output(p),
    ],
    ids=[
        "gain_curves", "find_raman_dip", "find_beam_splitter_point", "sideband_blocks",
        "sideband_response", "steady_state", "pair_output",
    ],
)
def test_each_call_builds_the_generator_once(monkeypatch, call):
    calls = _count_builds(monkeypatch)
    call(AtomicParams())
    assert calls["_response"] == 1
    assert calls["state_solve"] == 1


def test_the_flux_balances_reuse_the_scan_generator(monkeypatch):
    # a root evaluation neither rebuilds the 16x16 generator nor solves
    # the state again
    calls = _count_builds(monkeypatch)
    atomic.find_beam_splitter_point(AtomicParams())
    # the scan and 6 flux balances; the bracket's ends come from the scan
    assert calls["_pair_gains"] == 7
    assert calls["_response"] == 1
    assert calls["state_solve"] == 1


def test_a_medium_is_solved_once_per_process(monkeypatch):
    calls = _count_builds(monkeypatch)
    p = AtomicParams()
    atomic.steady_state(p)
    assert calls["state_solve"] == 1
    # the two-photon detuning is no part of the key: the state does not
    # depend on it
    for delta in (0.0, -mhz(40.0), mhz(1e3), -0.0):
        point = dataclasses.replace(p, two_photon_detuning=delta)
        atomic.pair_output(point)
        atomic.gain_curves(point, _DEFAULT_GRID)
        atomic.find_raman_dip(point)
        atomic.find_beam_splitter_point(point)
        atomic.steady_state(point)
    assert calls["state_solve"] == 1
    # an int field is the float of the same value
    atomic.steady_state(dataclasses.replace(p, depth=500))
    assert calls["state_solve"] == 1
    # the process holds one medium: a second replaces the first, so
    # returning to the first solves it again
    other = dataclasses.replace(p, depth=1.0)
    atomic.steady_state(other)
    atomic.steady_state(other)
    assert calls["state_solve"] == 2
    atomic.steady_state(p)
    assert calls["state_solve"] == 3


def test_the_process_holds_only_the_last_medium():
    # medium a's response, its kept gains and its kept output go once
    # medium b is analysed
    a, b = AtomicParams(), AtomicParams(depth=1.0)
    atomic.find_beam_splitter_point(a)
    atomic.pair_output(a)
    held = atomic._response(a)
    refs = [weakref.ref(x) for x in (held, held._last_gains[1][0], held._last_output[1])]
    del held
    atomic.find_beam_splitter_point(b)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert atomic._medium_response.cache_info().maxsize == 1


@pytest.mark.parametrize(
    "field", ["one_photon_detuning", "rabi_frequency", "ground_decoherence", "hyperfine_splitting", "depth"]
)
def test_signed_zero_fields_do_not_share_a_response(monkeypatch, field):
    calls = _count_builds(monkeypatch)
    media = [AtomicParams(**{field: zero}) for zero in (0.0, -0.0)]
    responses = [atomic._response(p) for p in media]
    assert calls["state_solve"] == 2
    for p, response in zip(media, responses):
        assert math.copysign(1.0, getattr(response.p, field)) == math.copysign(1.0, getattr(p, field))
        atomic._medium_response.cache_clear()
        cold = atomic._response(p)
        for name in ("sector", "sing_even", "rho", "sources"):
            _assert_bitwise(getattr(response, name), getattr(cold, name))


@pytest.mark.parametrize("field", atomic._MEDIUM_FIELDS)
def test_media_one_ulp_apart_do_not_share_a_response(monkeypatch, field):
    # the key keeps every bit of each field but the two-photon detuning:
    # a medium one float away builds its own response, and the response
    # built holds the field's bits
    calls = _count_builds(monkeypatch)
    p = AtomicParams()
    for step in (math.inf, -math.inf):
        moved = dataclasses.replace(p, **{field: math.nextafter(getattr(p, field), step)})
        for q in (p, moved):
            assert getattr(atomic._response(q).p, field).hex() == float(getattr(q, field)).hex()
    assert calls["state_solve"] == 4


def test_the_steady_state_handed_out_is_a_copy():
    p = AtomicParams()
    rho = atomic.steady_state(p)
    want = rho.copy()
    rho[:] = 0.0
    _assert_bitwise(atomic.steady_state(p), want)
    # the cached arrays themselves are read-only
    response = atomic._response(p)
    for array in (response.sector, response.sing_even, response.rho, response.sources):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # ... and so are the kept gains of the last grid
    for array in response.gains(np.linspace(*atomic._DEFAULT_WINDOW, 11))[:2]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_the_finders_share_one_window_scan(monkeypatch):
    calls = _count_builds(monkeypatch)
    p = AtomicParams()
    dip = atomic.find_raman_dip(p)
    assert (calls["scan_solve"], calls["sector_solve"]) == (1, 1)
    point = atomic.find_beam_splitter_point(p)
    assert calls["scan_solve"] == 1
    # every other solve is one flux balance; the output at the root reads
    # the block the polish solved there
    assert calls["sector_solve"] == calls["_pair_gains"]
    # another window or scan size is scanned anew; the last scan is kept
    atomic.find_raman_dip(p, n_scan=250)
    atomic.gain_curves(p, np.linspace(atomic._DEFAULT_WINDOW[0], 0.0, 251))
    assert calls["scan_solve"] == 3
    # ... and the default one again, with the results of a cold scan
    assert atomic.find_raman_dip(p) == dip
    assert calls["scan_solve"] == 4
    atomic._medium_response.cache_clear()
    assert atomic.find_beam_splitter_point(p) == point
    # the chain a medium's analysis runs: gain curves on the default grid,
    # both finders on the default window, the output at the root
    atomic._medium_response.cache_clear()
    calls.update(scan_solve=0, output=0)
    grid = np.linspace(*atomic._DEFAULT_WINDOW, 251)
    atomic.gain_curves(p, grid)
    atomic.find_raman_dip(p)
    point = atomic.find_beam_splitter_point(p)
    assert (calls["scan_solve"], calls["output"]) == (1, 1)
    root = dataclasses.replace(p, two_photon_detuning=point.delta)
    solves = calls["sector_solve"]
    out = atomic.pair_output(root)
    assert (calls["sector_solve"], calls["output"]) == (solves, 1)
    assert (out.g_a, out.g_b, out.gemellity) == (point.probe_gain, point.conj_gain, point.gemellity)
    # a grid one bit away is scanned anew, and a detuning one float away solved anew
    moved = grid.copy()
    moved[-1] = math.nextafter(moved[-1], math.inf)
    atomic.gain_curves(p, moved)
    assert calls["scan_solve"] == 2
    atomic.pair_output(dataclasses.replace(root, two_photon_detuning=math.nextafter(point.delta, 0.0)))
    assert calls["output"] == 2
    # the output kept at the root is a cold one, bit for bit (a float's repr
    # round-trips, -0.0 included)
    atomic._medium_response.cache_clear()
    assert repr(atomic.pair_output(root)) == repr(out)


def test_a_failing_output_is_not_kept(monkeypatch):
    # at this depth the noise of the pair map leaves the float range
    calls = _count_builds(monkeypatch)
    p = AtomicParams(depth=1e6)
    errors = []
    for _ in range(2):
        with pytest.raises(propagation.OutputOverflowError) as caught:
            atomic.pair_output(p)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == "output overflows the float range (the added noise of the pair map)"
    assert calls["output"] == 2


def _record_polish_ends(monkeypatch) -> list:
    """The bracket ((a, b), (fa, fb), (f(a), f(b))) each polish
    (`_regula_falsi` call) is handed, in order."""
    ends = []

    def recording(f, a, b, fa, fb, _original=atomic._regula_falsi):
        ends.append(((a, b), (fa, fb), (f(a), f(b))))
        return _original(f, a, b, fa, fb)

    monkeypatch.setattr(atomic, "_regula_falsi", recording)
    return ends


def test_the_root_search_takes_its_bracket_ends_from_the_scan(monkeypatch):
    # a point's block and exponential do not depend on the stack, so the
    # scan's flux balance at each end is a one-point evaluation's, bit for bit.
    # Only on the dense medium does the cap move an end's value
    ends = _record_polish_ends(monkeypatch)
    capped = []
    for p in [AtomicParams(), *map(_pool_medium, range(40)), _dense_medium(_DENSE_DEPTHS[0])]:
        atomic.find_beam_splitter_point(p)
        bracket, scanned, _ = ends[-1]
        curve = atomic.gain_curves(p, np.array(bracket))
        capped.append(scanned != tuple(curve.probe_gain + curve.conj_gain - 1.0))
    assert len(ends) == 42
    assert capped == [False] * 41 + [True]
    for _, scanned, single in ends:
        assert scanned == single


def test_every_polish_gets_nonzero_ends_of_opposite_signs_from_the_scan(monkeypatch):
    # _regula_falsi checks neither end: its bracket is a scan cell where the
    # signs of the capped balance multiply to below 0, and its end values are
    # those same balances
    ends = _record_polish_ends(monkeypatch)
    media = [
        AtomicParams(), AtomicParams(ground_decoherence=0.0), *map(_pool_medium, range(40)),
        *map(_dense_medium, _DENSE_DEPTHS),
    ]
    # media A and B at every scan size of the study that has a crossing
    runs = [(p, atomic._SCAN_POINTS) for p in media] + [
        (p, n_scan) for p in (_MEDIUM_A, _MEDIUM_B) for n_scan in (251, 501, 1001, 4001)
    ]
    for p, n_scan in runs:
        atomic.find_beam_splitter_point(p, n_scan=n_scan)
        (a, b), (fa, fb), _ = ends[-1]
        grid = np.linspace(*atomic._DEFAULT_WINDOW, n_scan)
        curve = atomic.gain_curves(p, grid)
        balance = atomic._flux_balance(curve.probe_gain, curve.conj_gain)
        (i,) = np.flatnonzero(grid == a)
        assert b == grid[i + 1]
        assert [float(fa).hex(), float(fb).hex()] == [float(x).hex() for x in balance[i : i + 2]]
        assert fa != 0.0 and fb != 0.0
        assert math.copysign(1.0, fa) != math.copysign(1.0, fb)
    assert len(ends) == len(runs) == 54


def test_pair_output_gains_equal_the_gain_curves_bit_for_bit():
    # the transfer M of the quantum output is the gain curves' exponential
    grid = np.array([angular_from_mhz(d) for d in np.linspace(-150.0, 50.0, 251)])
    curve = atomic.gain_curves(AtomicParams(), grid)
    for delta, g_a, g_b in zip(grid, curve.probe_gain, curve.conj_gain):
        out = atomic.pair_output(AtomicParams(two_photon_detuning=float(delta)))
        assert (out.g_a, out.g_b) == (g_a, g_b)


def test_the_beam_splitter_point_does_not_depend_on_its_grid():
    # the point's outputs, taken on a one-point stack of the scan's response,
    # against a one-point propagate_coupling of its generator, bit for bit
    for p in map(_pool_medium, range(40)):
        point = atomic.find_beam_splitter_point(p)
        out = propagation.propagate_coupling(atomic.sideband_blocks(p, [point.delta])[0])
        assert (point.probe_gain, point.conj_gain) == (out.g_a, out.g_b)
        assert (point.gemellity, point.gemellity_db) == (out.gemellity, out.gemellity_db)


@pytest.mark.parametrize("depth", [1e160, 1e300, 1.7e308])
def test_gain_curves_past_the_float_range_warn_nothing(depth):
    # the blocks' squares would overflow before any exponent is formed, and
    # near the float maximum so would 4 k in the range test; pytest makes
    # any warning an error
    grid = np.linspace(*atomic._DEFAULT_WINDOW, 251)
    curve = atomic.gain_curves(dataclasses.replace(AtomicParams(), depth=depth), grid)
    for gains in (curve.probe_gain, curve.conj_gain):
        assert not np.any(np.isnan(gains))
        assert np.all(gains >= 0.0)
    assert np.all((curve.probe_gain == 0.0) | (curve.probe_gain == np.inf))
    assert np.any(curve.probe_gain == np.inf)


def test_degenerate_grid_names_its_first_detuning():
    p = AtomicParams(rabi_frequency=0.0, ground_decoherence=0.0)
    grid = np.linspace(mhz(-60.0), mhz(-20.0), 40)
    with pytest.raises(DegenerateSteadyStateError, match=re.escape(f"{grid[0]:.6e} rad/s")):
        atomic.gain_curves(p, grid)


def test_a_degenerate_sector_names_its_detuning():
    # the state, solved once, is fine; at 1e18 rad/s the shifted sector's
    # singular values dwarf the even block's, so that detuning fails alone
    with pytest.raises(
        DegenerateSteadyStateError,
        match=re.escape("degenerate at two-photon detuning 1.000000e+18 rad/s"),
    ):
        atomic.sideband_blocks(AtomicParams(), [0.0, 1e18])


_DEFAULT_GRID = np.linspace(*atomic._DEFAULT_WINDOW, 251)


def test_the_shifted_sector_is_bounded_by_the_per_call_bounds():
    # sigma_min(S(delta)) >= mu and sigma_max(S(delta)) <= ||S(0)||_F + |delta|/Gamma,
    # mu being the slowest sideband decay rate gamma_g/Gamma; the SVD itself
    # is exact only to a few eps sigma_max
    grid = np.concatenate([_DEFAULT_GRID, [-1e12, 3e14, 1e17]])
    eps = np.finfo(float).eps
    for p in [AtomicParams(), *map(_pool_medium, range(40))]:
        response = atomic._response(p)
        assert response.mu == pytest.approx(p.ground_decoherence / p.excited_decay_rate, rel=1e-12)
        sing = np.linalg.svd(response._shifted(grid), compute_uv=False)
        assert np.all(sing[:, -1] >= response.mu - 8.0 * eps * sing[:, 0])
        reach = response.norm + np.abs(grid) / p.excited_decay_rate
        assert np.all(sing[:, 0] <= reach * (1.0 + 8.0 * eps))
        # the default window is cleared by the bounds alone; 1e17 rad/s is not
        assert response._cleared(grid[:251])
        assert not response._cleared(grid)


def _blocks_and_errors(p: AtomicParams, grid) -> tuple:
    """The grid's blocks and the stationary state at its first detuning, each
    as bytes or as the text of its error."""
    outcome = []
    for call in (
        lambda: atomic.sideband_blocks(p, grid).tobytes(),
        lambda: atomic.steady_state(dataclasses.replace(p, two_photon_detuning=grid[0])).tobytes(),
    ):
        try:
            outcome.append(call())
        except DegenerateSteadyStateError as exc:
            outcome.append(str(exc))
    return tuple(outcome)


@pytest.mark.parametrize(
    "media, grid",
    [
        (lambda: [AtomicParams(), *map(_pool_medium, range(40))], _DEFAULT_GRID),
        (lambda: [AtomicParams(ground_decoherence=0.0)], _DEFAULT_GRID),
        (lambda: [AtomicParams(rabi_frequency=0.0)], _DEFAULT_GRID),
        (lambda: [AtomicParams(rabi_frequency=0.0, ground_decoherence=0.0)], [mhz(-20.0), 0.0]),
        (lambda: [AtomicParams(), _pool_medium(0)], [0.0, 1e18]),
        (lambda: [AtomicParams()], [1e18, 0.0]),
    ],
    ids=["pool", "gamma_g_0", "rabi_0", "pump_off_gamma_g_0", "to_1e18", "from_1e18"],
)
def test_the_bound_and_the_svd_check_give_the_same_blocks_and_errors(monkeypatch, media, grid):
    cleared = [_blocks_and_errors(p, grid) for p in media()]
    monkeypatch.setattr(atomic._Response, "_cleared", lambda self, chunk: False)
    assert [_blocks_and_errors(p, grid) for p in media()] == cleared


def test_a_default_scan_and_root_search_make_no_sector_svd(monkeypatch):
    calls = _count_builds(monkeypatch)
    counts = _count_polish(monkeypatch)
    atomic.gain_curves(AtomicParams(), _DEFAULT_GRID)
    assert (calls["sector_svd"], calls["sector_solve"]) == (0, 1)
    atomic.find_beam_splitter_point(AtomicParams())
    # the scan's solve and one per flux balance; the root's output solves none
    assert calls["sector_svd"] == 0 and calls["sector_solve"] == 1 + counts[0]


def _count_checks(monkeypatch) -> list:
    """The size of each detuning grid `_Response.check` is called on."""
    sizes = []

    def counted(self, deltas, _original=atomic._Response.check):
        sizes.append(deltas.size)
        return _original(self, deltas)

    monkeypatch.setattr(atomic._Response, "check", counted)
    return sizes


def test_the_polish_is_checked_only_where_the_bound_does_not_clear_its_bracket(monkeypatch):
    # a polish point lies between its bracket's ends, so the bound that clears
    # them clears it: the scan's is the only check and no SVD runs
    calls = _count_builds(monkeypatch)
    checks = _count_checks(monkeypatch)
    for p in [AtomicParams(), *map(_pool_medium, range(40))]:
        calls["sector_svd"], checks[:] = 0, []
        atomic.find_beam_splitter_point(p)
        assert (calls["sector_svd"], checks) == (0, [251])
    # without ground decoherence the bound clears nothing: each polish point
    # is checked by its own SVD, and the root's output by none
    counts = _count_polish(monkeypatch)
    calls["sector_svd"], checks[:] = 0, []
    atomic.find_beam_splitter_point(AtomicParams(ground_decoherence=0.0))
    assert counts[0] > 0
    assert calls["sector_svd"] == 1 + counts[0]
    assert checks == [251] + [1] * counts[0]


def test_a_scan_without_ground_decoherence_still_checks_by_svd(monkeypatch):
    calls = _count_builds(monkeypatch)
    atomic.gain_curves(AtomicParams(ground_decoherence=0.0), _DEFAULT_GRID)
    assert (calls["sector_svd"], calls["sector_solve"]) == (1, 1)


def test_steady_state_solves_no_sector_system(monkeypatch):
    calls = _count_builds(monkeypatch)
    atomic.steady_state(AtomicParams())
    assert (calls["sector_svd"], calls["sector_solve"]) == (0, 0)
    with pytest.raises(DegenerateSteadyStateError, match="degenerate"):
        atomic.steady_state(AtomicParams(rabi_frequency=0.0, ground_decoherence=0.0))
    assert (calls["sector_svd"], calls["sector_solve"]) == (1, 0)


@pytest.mark.parametrize("medium", [None, *range(8)], ids=["default", *map(str, range(8))])
def test_zero_offset_sector_is_an_invariant_block(medium):
    # why the zero-offset sector solve needs no condition check: the sector
    # is a block of the generator without its stationary vector, so its
    # condition number is bounded by the generator's sing[0]/sing[-2]
    p = AtomicParams() if medium is None else _pool_medium(medium)
    gen = _generators(p, np.linspace(*atomic._DEFAULT_WINDOW, 251))
    sector = np.array(atomic._SECTOR_INDICES)
    rest = np.setdiff1d(np.arange(16), sector)
    assert not np.any(gen[:, sector[:, None], rest])
    assert not np.any(gen[:, rest[:, None], sector])
    sing = np.linalg.svd(gen, compute_uv=False)
    bound = sing[:, 0] / sing[:, -2]
    assert np.all(np.linalg.cond(gen[_on_stack(atomic._SECTOR)]) <= (1.0 + 1e-9) * bound)
    assert np.all(bound < 1e10)


@pytest.mark.parametrize("medium", [None, *range(8)], ids=["default", *map(str, range(8))])
def test_generator_is_block_diagonal_in_manifold_parity(medium):
    # why the steady state needs only the 8x8 even block, and the
    # degeneracy check only its singular values and the sector's
    p = AtomicParams() if medium is None else _pool_medium(medium)
    gen = _generators(p, np.linspace(*atomic._DEFAULT_WINDOW, 251))
    even = np.array(atomic._EVEN_INDICES)
    odd = np.setdiff1d(np.arange(16), even)
    assert not np.any(gen[:, even[:, None], odd])
    assert not np.any(gen[:, odd[:, None], even])
    sing = np.linalg.svd(gen, compute_uv=False)
    sing_even = np.linalg.svd(gen[_on_stack(atomic._EVEN)], compute_uv=False)
    sing_odd = np.linalg.svd(gen[_on_stack(atomic._SECTOR)], compute_uv=False)
    union = -np.sort(-np.concatenate([sing_even, sing_odd, sing_odd], axis=1), axis=1)
    assert np.all(np.abs(union - sing) <= 1e-13 * sing[:, :1])


def test_raman_dip_location_and_depth():
    delta, gain = atomic.find_raman_dip(AtomicParams())
    assert delta / mhz(1.0) == pytest.approx(-41.2, abs=1e-6)
    assert gain < 0.2
    assert gain == pytest.approx(0.0025, abs=1e-3)


def test_raman_dip_moves_with_pump_power():
    # the dip follows the pump light shift, further out for stronger pumps
    dips = []
    for omega_mhz in (297.0, 420.0, 594.0):
        p = dataclasses.replace(AtomicParams(), rabi_frequency=mhz(omega_mhz))
        delta, _ = atomic.find_raman_dip(p, n_scan=201)
        dips.append(delta)
    assert dips[0] > dips[1] > dips[2]
    assert all(d < 0.0 for d in dips)


def test_beam_splitter_point_regression():
    point = atomic.find_beam_splitter_point(AtomicParams())
    assert point.delta / mhz(1.0) == pytest.approx(-49.33345073519885, abs=1e-3)
    assert point.probe_gain == pytest.approx(0.9076147960784431, abs=1e-5)
    assert point.conj_gain == pytest.approx(0.0923852039215545, abs=1e-5)
    assert abs(point.probe_gain + point.conj_gain - 1.0) < 1e-13
    assert point.gemellity == pytest.approx(0.5547444308712289, abs=1e-5)
    assert point.gemellity < 1.0
    assert point.gemellity_db == pytest.approx(-2.559070489950703, abs=1e-4)


# float.hex() of (delta, probe_gain, conj_gain, gemellity) of the beam-splitter
# point of the default medium (None) and of each pool medium.  The golden CSVs
# print 12 digits, which cannot see a one-ulp move of the root or the outputs
_POINT_BITS = {
    None: ("-0x1.279c90ccfd6dap+28", "0x1.d0b2e2f50b97ep-1", "0x1.7a68e857a3412p-4", "0x1.1c07764875ccap-1"),
    0: ("-0x1.54aac4ec6c635p+28", "0x1.d3f14a48ec87ap-1", "0x1.6075adb89bc1cp-4", "0x1.21b3a2e914ddfp-1"),
    1: ("-0x1.5297cb684dc09p+28", "0x1.ce25b555472bap-1", "0x1.8ed25555c6a48p-4", "0x1.17cca083b1e66p-1"),
    2: ("-0x1.657f292b82d8cp+28", "0x1.d62d68d57de40p-1", "0x1.4e94b95410e1fp-4", "0x1.25916e67ec52fp-1"),
    3: ("-0x1.4008d1ff3370fp+28", "0x1.cabb3b0779a16p-1", "0x1.aa2627c432f5ep-4", "0x1.12d74b19c638dp-1"),
    4: ("-0x1.0e6ee37cab2fdp+28", "0x1.d046979fec372p-1", "0x1.7dcb43009e47ep-4", "0x1.1b33a69990fabp-1"),
    5: ("-0x1.2f7573a8812ebp+28", "0x1.d32ad6b665732p-1", "0x1.66a94a4cd4660p-4", "0x1.1ff6cb61b285ap-1"),
    6: ("-0x1.11664afdc0287p+28", "0x1.d09073796a378p-1", "0x1.7b7c6434ae456p-4", "0x1.1b952301e00d6p-1"),
    7: ("-0x1.2d411d86aeddfp+28", "0x1.d5a3423e06b34p-1", "0x1.52e5ee0fca672p-4", "0x1.249d094adeb8ep-1"),
    8: ("-0x1.3eb5900a4acf0p+28", "0x1.cf71f975a568cp-1", "0x1.84703452d4ba0p-4", "0x1.1a084c0ed5bd4p-1"),
    9: ("-0x1.31077a88858a6p+28", "0x1.d43ca353f7e11p-1", "0x1.5e1ae56040f58p-4", "0x1.22420e0f6d2ffp-1"),
    10: ("-0x1.1a97609fcc65dp+28", "0x1.d2ff8979bf341p-1", "0x1.6803b4320660cp-4", "0x1.1fb6e94ed7738p-1"),
    11: ("-0x1.3cef5a9bc1ba9p+28", "0x1.d027a2090f916p-1", "0x1.7ec2efb783738p-4", "0x1.1b78ff72d200dp-1"),
    12: ("-0x1.02ad2d8c21a2ap+28", "0x1.cd0ddf6e1fa4ap-1", "0x1.9791048f02d9ep-4", "0x1.15e250f1de194p-1"),
    13: ("-0x1.08c2fb6c224abp+28", "0x1.d49780a47e404p-1", "0x1.5b43fadc0dfe6p-4", "0x1.22737b0f01cb0p-1"),
    14: ("-0x1.337f7d595dd5bp+28", "0x1.ca8dab1b3f428p-1", "0x1.ab92a72605ed4p-4", "0x1.12349525f7257p-1"),
    15: ("-0x1.22a09fd6abf04p+28", "0x1.d2c8037da1ea2p-1", "0x1.69bfe412f0b23p-4", "0x1.1f34accab6309p-1"),
    16: ("-0x1.58e1f499b63a4p+28", "0x1.d545d8eaf99e6p-1", "0x1.55d138a8330b8p-4", "0x1.23df8bc8ffb29p-1"),
    17: ("-0x1.2dcbfea511b04p+28", "0x1.cf1e6becbbaf9p-1", "0x1.870ca09a2283ap-4", "0x1.19c3438aeb852p-1"),
    18: ("-0x1.063bc4ce509ffp+28", "0x1.d727c2c117f7ep-1", "0x1.46c1e9f74040fp-4", "0x1.273f5c47c5e56p-1"),
    19: ("-0x1.0fb72d0a4b686p+28", "0x1.d07b36d6b51e6p-1", "0x1.7c26494a570c9p-4", "0x1.1b878ed80097dp-1"),
    20: ("-0x1.47c2be0d5be58p+28", "0x1.d5d093dc76750p-1", "0x1.517b611c4c5b7p-4", "0x1.24eb037fe0a43p-1"),
    21: ("-0x1.56d30ac070108p+28", "0x1.d48818e9a70cdp-1", "0x1.5bbf38b2c7980p-4", "0x1.228eba5bf69d3p-1"),
    22: ("-0x1.153bbd0475a7dp+28", "0x1.ca324327cd08ep-1", "0x1.ae6de6c197bdap-4", "0x1.11bd823e7c68ap-1"),
    23: ("-0x1.458f246cb4b35p+28", "0x1.cf00414f1ac18p-1", "0x1.87fdf58729f5ap-4", "0x1.19051e728068cp-1"),
    24: ("-0x1.6c9049b2b0454p+28", "0x1.d361a7fdcb380p-1", "0x1.64f2c011a63e0p-4", "0x1.2081f6699bf35p-1"),
    25: ("-0x1.47a8dc55b3466p+28", "0x1.d384ef8211072p-1", "0x1.63d883ef77c6ep-4", "0x1.2112a4d82c1a7p-1"),
    26: ("-0x1.0f8519b31f20ep+28", "0x1.d13abbf702002p-1", "0x1.762a2047effd9p-4", "0x1.1c88274049bc5p-1"),
    27: ("-0x1.4c9622e8e5c74p+28", "0x1.cc024cbc75749p-1", "0x1.9fed9a1c545dep-4", "0x1.14ca19e3f57c9p-1"),
    28: ("-0x1.1c9b42f2854cdp+28", "0x1.cd003c660ce69p-1", "0x1.97fe1ccf98cd0p-4", "0x1.166336e32810dp-1"),
    29: ("-0x1.358f2fd622dc6p+28", "0x1.c7b2347a6818ap-1", "0x1.c26e5c2cbf3b2p-4", "0x1.0e63eec7b8af9p-1"),
    30: ("-0x1.4fe2fd11ebeb0p+28", "0x1.d647f215a8696p-1", "0x1.4dc06f52bcb46p-4", "0x1.25975ac04670fp-1"),
    31: ("-0x1.e9948e94a07aep+27", "0x1.d20461c1cd5abp-1", "0x1.6fdcf1f1952cbp-4", "0x1.1e41eba92a15dp-1"),
    32: ("-0x1.4ed1f9c14e1ecp+28", "0x1.d30db32ed52a3p-1", "0x1.6792668956b1bp-4", "0x1.2024b4576d737p-1"),
    33: ("-0x1.3a68da43e71a8p+28", "0x1.d68e26f75f328p-1", "0x1.4b8ec845066c0p-4", "0x1.26446e23a59c4p-1"),
    34: ("-0x1.39867da977a84p+28", "0x1.cb55e4416eb69p-1", "0x1.a550ddf48a49cp-4", "0x1.137f6ca324319p-1"),
    35: ("-0x1.216a589179572p+28", "0x1.c7ba84fa57948p-1", "0x1.c22bd82d435e1p-4", "0x1.0e7e6a94a12d9p-1"),
    36: ("-0x1.0361980371b6ap+28", "0x1.cca96b41d6fdep-1", "0x1.9ab4a5f148108p-4", "0x1.159a096ab9795p-1"),
    37: ("-0x1.4d61eca8863a9p+28", "0x1.d3288914530f2p-1", "0x1.66bbb75d67887p-4", "0x1.2097f451e6190p-1"),
    38: ("-0x1.e17b291441140p+27", "0x1.c75b8bdf5e5d6p-1", "0x1.c523a1050d13bp-4", "0x1.0de92ef68a46ap-1"),
    39: ("-0x1.324aac818cc77p+28", "0x1.d042b49bec433p-1", "0x1.7dea5b209de38p-4", "0x1.1b0f3dfa555c7p-1"),
}


def test_beam_splitter_points_are_pinned_to_the_bit():
    for medium, bits in _POINT_BITS.items():
        p = AtomicParams() if medium is None else _pool_medium(medium)
        point = atomic.find_beam_splitter_point(p)
        got = tuple(float(v).hex() for v in (point.delta, point.probe_gain, point.conj_gain, point.gemellity))
        assert got == bits, medium


def test_medium_14s_root_moved_toward_the_40_digit_balance():
    # the default window's upper end was TWO_PI * 50e6, one ulp below the
    # CLI's angular_from_mhz(50.0); on that grid this root lay one float up
    p = _pool_medium(14)
    old, new = float.fromhex("-0x1.337f7d595dd5ap+28"), float.fromhex(_POINT_BITS[14][0])
    assert new == math.nextafter(old, -math.inf)
    assert abs(mpmath_flux_balance(p, new)) < abs(mpmath_flux_balance(p, old))


# The pool media whose polish ends on a tie: adjacent floats whose flux
# balances have the same magnitude and opposite signs
_TIE_MEDIA = (2, 6, 10, 14, 15, 20)


def _polish_with_the_former_illinois(monkeypatch, p: AtomicParams):
    """(the root, the root the former Illinois polish finds on the same
    bracket, the flux balance the polish reads)."""
    former = []

    def recording(f, *args, _original=atomic._regula_falsi):
        former.append((illinois(f, *args), f))
        return _original(f, *args)

    monkeypatch.setattr(atomic, "_regula_falsi", recording)
    point = atomic.find_beam_splitter_point(p)
    monkeypatch.undo()
    ((old, f),) = former
    return point.delta, old, f


def _tie_partner(f, x: float) -> float | None:
    """The float adjacent to x across the sign change of f whose |f| is
    that at x, or None where there is no such tie."""
    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        if math.copysign(1.0, f(y)) != math.copysign(1.0, f(x)) and abs(f(y)) == abs(f(x)):
            return y
    return None


def test_the_polish_ends_on_the_former_illinois_bracket(monkeypatch):
    # the Anderson-Bjorck weight takes another path to the same pair of
    # adjacent floats; where that pair ties, it returns the end whose balance
    # is positive, which the Illinois path kept on media 6, 10 and 14 only
    media = [AtomicParams(), AtomicParams(ground_decoherence=0.0), *map(_pool_medium, range(40))]
    ties = []
    for medium, p in zip([None, "gamma_g_0", *range(40)], media):
        new, old, f = _polish_with_the_former_illinois(monkeypatch, p)
        partner = _tie_partner(f, new)
        if partner is None:
            assert new == old, medium
            continue
        ties.append(medium)
        assert old in (new, partner) and f(new) > 0.0, medium
        assert (new != old) == (medium in (2, 15, 20)), medium
    assert tuple(ties) == _TIE_MEDIA


@functools.lru_cache(maxsize=None)
def _exact_balance(medium: int, delta: float):
    """The 40-digit flux balance of a pool medium, each point read once."""
    return mpmath_flux_balance(_pool_medium(medium), delta)


@pytest.mark.parametrize("medium", _TIE_MEDIA)
def test_a_tie_ends_on_the_positive_end_nearer_the_40_digit_balance(medium):
    f, _, _ = _flux_balance_and_bracket(_pool_medium(medium))
    root = float.fromhex(_POINT_BITS[medium][0])
    partner = _tie_partner(f, root)
    assert partner is not None and f(root) > 0.0
    assert abs(_exact_balance(medium, root)) < abs(_exact_balance(medium, partner))


@pytest.mark.parametrize(
    "medium, former",
    [(2, "-0x1.657f292b82d8bp+28"), (15, "-0x1.22a09fd6abf03p+28"), (20, "-0x1.47c2be0d5be57p+28")],
)
def test_three_pins_moved_one_ulp_toward_the_40_digit_balance(medium, former):
    # the Illinois path ended these ties on the negative end
    old, new = float.fromhex(former), float.fromhex(_POINT_BITS[medium][0])
    assert new == math.nextafter(old, -math.inf)
    assert abs(_exact_balance(medium, new)) < abs(_exact_balance(medium, old))


@pytest.mark.parametrize("medium", [None, 14], ids=["default", "14"])
def test_the_default_window_is_the_cli_s(medium, tmp_path, capsys):
    lo, hi, points = cli._window({}, "window", "min_MHz", "max_MHz")
    assert tuple(x.hex() for x in atomic._DEFAULT_WINDOW) == (
        angular_from_mhz(lo).hex(), angular_from_mhz(hi).hex()
    )
    assert atomic.find_raman_dip.__defaults__ == (points,)
    assert atomic.find_beam_splitter_point.__defaults__ == (atomic._DEFAULT_WINDOW, points)
    # the library's default point is the one the command prints; JSON
    # floats round-trip
    p = AtomicParams() if medium is None else _pool_medium(medium)
    argv = ["beam-splitter", "--format", "json"]
    if medium is not None:
        omega, big, depth = _pool_values(medium)
        cfg = tmp_path / "medium.cfg"
        cfg.write_text(f"[atomic]\nOmega_MHz = {omega!r}\nDelta_MHz = {big!r}\ndepth = {depth!r}\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    point = atomic.find_beam_splitter_point(p)
    assert row == {
        "delta_MHz": mhz_from_angular(point.delta), "G_a": point.probe_gain,
        "G_b": point.conj_gain, "sum": point.probe_gain + point.conj_gain,
        "gemellity": point.gemellity, "gemellity_dB": point.gemellity_db,
    }


def _count_polish(monkeypatch) -> list:
    """The flux balances each polish (`_regula_falsi` call) evaluates, in order."""
    counts = []

    def counting(f, *args, _original=atomic._regula_falsi):
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return f(x)

        return _original(counted, *args)

    monkeypatch.setattr(atomic, "_regula_falsi", counting)
    return counts


def test_a_pinned_root_ends_the_polish(monkeypatch):
    # the secant point of a root pinned to one float rounds onto the newest
    # end; Brent's least step ends the polish there, where a bisection from
    # the far end took up to 25 flux balances on these media
    counts = _count_polish(monkeypatch)
    for p in map(_pool_medium, range(40)):
        atomic.find_beam_splitter_point(p)
    assert len(counts) == 40
    assert max(counts) <= 9
    # each medium's count, pinned: 260 in all, where the Illinois weight took 332
    assert counts == _POLISH_COUNTS


# The flux balances of each pool medium's polish on the default window
_POLISH_COUNTS = [7, 8, 7, 6, 8, 6, 6, 7, 6, 6, 6, 6, 6, 5, 6, 6, 6, 7, 6, 6, 8, 8, 6, 6, 9, 6, 6, 6, 6, 5, 7, 7, 8, 6, 6, 7, 6, 5, 9, 6]


# A medium a fuzz of 150 random media found: with no ground decoherence and
# at these depths, the uncapped flux balance reaches 1.9e196 at the far end of
# the bracket, and a polish on it moved one float per step for 400 steps
_DENSE_DEPTHS = [1470802.8610587858, 1.7e6, 2.0e6, 2.3e6]


def _dense_medium(depth: float) -> AtomicParams:
    return AtomicParams(
        rabi_frequency=angular_from_mhz(73.84019364530539),
        one_photon_detuning=angular_from_mhz(2.150146200022963),
        ground_decoherence=0.0,
        depth=depth,
    )


@pytest.mark.parametrize("depth", _DENSE_DEPTHS)
def test_a_dense_medium_s_polish_reads_the_capped_balance(monkeypatch, depth):
    # the capped balance keeps each bracket end's value in [-1, 3], so
    # the polish ends in at most 19 flux balances, the worst of these depths
    # (15, 19, 16 and 18)
    counts = _count_polish(monkeypatch)
    point = atomic.find_beam_splitter_point(_dense_medium(depth))
    assert abs(point.probe_gain + point.conj_gain - 1.0) <= 1e-13
    assert len(counts) == 1 and counts[0] <= 19


@pytest.mark.parametrize("depth", _DENSE_DEPTHS)
def test_the_polish_bounds_its_least_steps_on_the_uncapped_balance(depth):
    # without the cap the bracket's ends differ by 2e196 to 4e306; a secant
    # point then rounds onto the newest end step after step, and the Illinois
    # polish, one float per step, raised after 400 steps on all four.  Bisecting
    # after three least steps in a row ends it in 22, 22, 22 and 15 balances
    f, lo, hi = _flux_balance_and_bracket(_dense_medium(depth))
    ends = (f(lo), f(hi))
    assert max(map(abs, ends)) >= 1e196
    points = []

    def uncapped(delta):
        points.append(delta)
        return f(delta)

    root = atomic._regula_falsi(uncapped, lo, hi, *ends)
    assert len(points) <= 22
    assert lo < root < hi
    _assert_root_to_the_last_float(f, root)
    with pytest.raises(RuntimeError, match="did not converge in 400 steps"):
        illinois(f, lo, hi, *ends)


@pytest.mark.parametrize(
    "medium",
    [AtomicParams(), AtomicParams(ground_decoherence=0.0), *range(40), *map(_dense_medium, _DENSE_DEPTHS)],
    ids=["default", "gamma_g_0", *map(str, range(40)), *(f"dense_{depth:g}" for depth in _DENSE_DEPTHS)],
)
def test_each_polish_evaluation_equals_its_grid_row_bit_for_bit(monkeypatch, medium):
    # the polish reads one point at a time; each of its flux balances is the
    # row of one stacked read of all the points it evaluated, and the root's
    # output the row of a stacked output read of those points and the root
    p = medium if isinstance(medium, AtomicParams) else _pool_medium(medium)
    evaluations = []

    def recording(f, *args, _original=atomic._regula_falsi):
        def recorded(delta):
            evaluations.append((delta, f(delta)))
            return evaluations[-1][1]

        return _original(recorded, *args)

    monkeypatch.setattr(atomic, "_regula_falsi", recording)
    point = atomic.find_beam_splitter_point(p)
    deltas = np.array([delta for delta, _ in evaluations])
    balance = atomic._flux_balance(*propagation._pair_gains(atomic.sideband_blocks(p, deltas)))
    assert [value.hex() for _, value in evaluations] == [float(x).hex() for x in balance]
    stack = atomic.sideband_blocks(p, np.append(deltas, point.delta))
    out = propagation._pair_outputs(*propagation._pair_maps(stack))
    got = (point.probe_gain, point.conj_gain, point.gemellity)
    assert [x.hex() for x in got] == [float(x[-1]).hex() for x in (out.g_a, out.g_b, out.gemellity)]


@pytest.mark.parametrize(
    "medium",
    [AtomicParams(), AtomicParams(ground_decoherence=0.0), *range(40)],
    ids=["default", "gamma_g_0", *map(str, range(40))],
)
def test_generator_matches_the_kron_reference_bit_for_bit(medium):
    # without ground decoherence the exchange operators and their products
    # are zero, and each zero of the generator keeps the reference's sign
    p = medium if isinstance(medium, AtomicParams) else _pool_medium(medium)
    _assert_bitwise(atomic.liouvillian(p), kron_liouvillian(p))


def _assert_the_loop_s_generator(p: AtomicParams):
    """liouvillian(p) has the bits of the former per-operator loop, or raises
    where that loop's generator leaves the float range."""
    want = loop_liouvillian(p)
    try:
        got = atomic.liouvillian(p)
    except atomic.MediumOverflowError:
        assert not np.isfinite(want).all()
    else:
        assert got.tobytes() == want.tobytes()


_RATE = st.floats(0.0, 1e12)


@settings(max_examples=100, deadline=None)
@given(
    big=st.floats(-1e12, 1e12),
    delta=st.floats(-1e12, 1e12),
    rabi=_RATE,
    gamma=st.floats(1e-3, 1e12, exclude_min=True),
    gamma_g=st.one_of(st.sampled_from([0.0, -0.0]), _RATE, st.floats(0.0, 1e300)),
    depth=st.floats(0.0, 1e6),
    hf=_RATE,
)
@example(big=1e9, delta=0.0, rabi=1e9, gamma=1e7, gamma_g=-0.0, depth=500.0, hf=1e10)
@example(big=-0.0, delta=-0.0, rabi=0.0, gamma=1e7, gamma_g=0.0, depth=0.0, hf=0.0)
def test_liouvillian_sums_its_terms_as_its_former_loop_did(big, delta, rabi, gamma, gamma_g, depth, hf):
    _assert_the_loop_s_generator(AtomicParams(
        one_photon_detuning=big, two_photon_detuning=delta, rabi_frequency=rabi,
        excited_decay_rate=gamma, ground_decoherence=gamma_g, depth=depth, hyperfine_splitting=hf,
    ))


def test_the_pool_media_s_generators_are_their_former_loop_s():
    for p in [AtomicParams(), *map(_pool_medium, range(40))]:
        for delta in (0.0, *atomic._DEFAULT_WINDOW):
            _assert_the_loop_s_generator(dataclasses.replace(p, two_photon_detuning=delta))


def test_the_polish_points_of_the_pool_media_match_their_grid_rows_bit_for_bit():
    # the polish evaluates one-point stacks; at the pinned
    # beam-splitter point and at the Raman dip, each point's block and gains
    # are those of the row it takes in a 251-point grid
    for medium in range(40):
        p = _pool_medium(medium)
        grid = np.linspace(*atomic._DEFAULT_WINDOW, 251)
        dip = float(atomic.find_raman_dip(p)[0])
        point = float.fromhex(_POINT_BITS[medium][0])
        row = int(np.argmin(np.abs(grid - point)))
        assert grid[row] != dip
        grid[row] = point
        blocks = atomic.sideband_blocks(p, grid)
        gains = propagation._pair_gains(blocks)
        for delta in (point, dip):
            i = int(np.flatnonzero(grid == delta)[0])
            one = atomic.sideband_blocks(p, [delta])
            _assert_bitwise(one, blocks[i : i + 1])
            for got, want in zip(propagation._pair_gains(one), gains):
                _assert_bitwise(got, want[i : i + 1])


def test_beam_splitter_point_requires_a_crossing():
    with pytest.raises(NoCrossingError):
        atomic.find_beam_splitter_point(
            dataclasses.replace(AtomicParams(), depth=0.0), n_scan=51
        )
    with pytest.raises(NoCrossingError):
        atomic.find_beam_splitter_point(
            AtomicParams(), window=(mhz(-10.0), mhz(-5.0)), n_scan=21
        )
    with pytest.raises(ValueError):
        atomic.find_beam_splitter_point(AtomicParams(), window=(0.0, 0.0))


@pytest.mark.parametrize(
    "finder, scan, match",
    [
        *(
            pytest.param(finder, {"n_scan": n_scan}, "at least 2 points", id=f"{n_scan}-{finder.__name__}")
            for n_scan in (0, 1)
            for finder in (atomic.find_beam_splitter_point, atomic.find_raman_dip)
        ),
        # find_raman_dip scans the default window only
        *(
            pytest.param(atomic.find_beam_splitter_point, {"window": window}, match, id=f"{name}-find_beam_splitter_point")
            for name, window, match in [
                ("decreasing", (mhz(50.0), mhz(-150.0)), "window must be increasing"),
                ("empty", (0.0, 0.0), "window must be increasing"),
                # each end is finite, but linspace over the window would overflow
                ("overflowing", (-9e307, 9e307), "window span must be finite"),
            ]
        ),
    ],
)
def test_scans_need_two_points(finder, scan, match, monkeypatch):
    # rejected before the medium's response is built
    monkeypatch.setattr(atomic, "_response", None)
    with pytest.raises(ValueError, match=match):
        finder(AtomicParams(), **scan)


def test_beam_splitter_point_tunes_over_a_wide_range():
    settings = [(800.0, 420.0, 500.0), (500.0, 600.0, 500.0), (350.0, 800.0, 700.0)]
    deltas = []
    for big_mhz, omega_mhz, depth in settings:
        p = AtomicParams(
            one_photon_detuning=mhz(big_mhz),
            rabi_frequency=mhz(omega_mhz),
            depth=depth,
        )
        point = atomic.find_beam_splitter_point(
            p, window=(mhz(-300.0), mhz(50.0)), n_scan=301
        )
        deltas.append(point.delta / mhz(1.0))
    assert max(deltas) - min(deltas) > 100.0


def _worst_gain_errors(p: AtomicParams, grid: np.ndarray) -> tuple[float, float]:
    """Worst relative probe or conjugate gain error over the grid, of the
    closed-form gains and of scipy's expm, against a 50-digit mpmath.expm."""
    curve = atomic.gain_curves(p, grid)
    scipy_e = expm(atomic.sideband_blocks(p, grid))
    ours = theirs = 0.0
    with mpmath.workdps(50):
        for i, block in enumerate(atomic.sideband_blocks(p, grid)):
            e = mpmath.expm(mpmath.matrix([[mpmath.mpc(complex(z)) for z in r] for r in block]))
            for got, other, exact in (
                (curve.probe_gain[i], scipy_e[i, 0, 0], abs(e[0, 0]) ** 2),
                (curve.conj_gain[i], scipy_e[i, 1, 0], abs(e[1, 0]) ** 2),
            ):
                ours = max(ours, float(abs(got - exact) / exact))
                theirs = max(theirs, float(abs(abs(other) ** 2 - exact) / exact))
    return ours, theirs


@pytest.mark.parametrize(
    "p, points", [(AtomicParams(), 251), (_SHARP, 248)], ids=["default", "sharp"]
)
def test_closed_form_gains_are_at_least_as_accurate_as_scipy(p, points):
    ours, theirs = _worst_gain_errors(p, np.linspace(mhz(-150.0), mhz(50.0), points))
    assert ours <= theirs
    assert ours < 1e-14


# The medium box of the batched-grid test and of the benchmark's media pool.
# The closed form is usually the more accurate, but not on every medium: on
# the explicit example its worst error is 2.5e-15 against scipy's 2.2e-15,
# a point where the two eigenvalue terms of e^B partly cancel.  So over the
# box it may trail scipy by 1e-15, about 4 eps.
@settings(max_examples=3, deadline=None)
@given(
    omega=st.floats(380.0, 460.0),
    big=st.floats(750.0, 850.0),
    depth=st.floats(400.0, 600.0),
)
@example(omega=421.2811561223123, big=829.3914456209598, depth=446.2847046651336)
def test_closed_form_gains_stay_as_accurate_as_scipy_over_the_media_box(omega, big, depth):
    p = AtomicParams(rabi_frequency=mhz(omega), one_photon_detuning=mhz(big), depth=depth)
    ours, theirs = _worst_gain_errors(p, np.linspace(mhz(-150.0), mhz(50.0), 251))
    assert ours <= theirs + 1e-15
    assert ours < 1e-14


def _flux_balance_and_bracket(p: AtomicParams):
    """The uncapped flux balance and the bracket `find_beam_splitter_point`
    hands its root finder; near a root the finder's cap changes nothing."""
    grid = np.linspace(*atomic._DEFAULT_WINDOW, 251)
    response = atomic._response(p)
    probe, conj = propagation._pair_gains(response.pair_blocks(grid))
    balance = probe + conj - 1.0
    crossings = np.nonzero(balance[:-1] * balance[1:] < 0.0)[0]
    below = crossings[crossings < int(np.argmin(probe))]
    i = int(below[-1]) if below.size else int(crossings[0])

    def flux_balance(delta):
        ga, gb = propagation._pair_gains(response.pair_blocks(np.array([delta])))
        return float(ga[0] + gb[0] - 1.0)

    return flux_balance, grid[i], grid[i + 1]


def _pool_values(member: int) -> tuple[float, float, float]:
    """(Omega_MHz, Delta_MHz, depth) of a member of the benchmark's fixed
    media pool (perfbench/inputs.py)."""
    rng = np.random.default_rng([0, 1, member])
    return tuple(
        float(rng.uniform(lo, hi)) for lo, hi in ((380.0, 460.0), (750.0, 850.0), (400.0, 600.0))
    )


def _pool_medium(member: int) -> AtomicParams:
    """A member of the benchmark's fixed media pool (perfbench/inputs.py)."""
    omega, big, depth = _pool_values(member)
    return AtomicParams(rabi_frequency=mhz(omega), one_photon_detuning=mhz(big), depth=depth)


@pytest.mark.parametrize(
    "medium, rows",
    [(None, sorted({*range(0, 251, 25), *range(135, 144)})), (0, range(0, 251, 25))],
    ids=["default", "0"],
)
def test_gains_match_the_40_digit_reference(medium, rows):
    # rows 135-143 sit next to the Raman dip; a steady state taken as the
    # 16x16 generator's SVD null vector left gains up to 1.2e-12 off there
    # (2.3e-12 on medium 0)
    p = AtomicParams() if medium is None else _pool_medium(medium)
    grid = np.linspace(*atomic._DEFAULT_WINDOW, 251)
    curve = atomic.gain_curves(p, grid)
    for i in rows:
        for got, exact in zip(
            (curve.probe_gain[i], curve.conj_gain[i]), mpmath_gains(p, float(grid[i]))
        ):
            assert abs(float(got) - exact) <= 5e-13 * exact, (i, float(got), exact)


def test_beam_splitter_point_balances_the_40_digit_flux():
    p = AtomicParams()
    point = atomic.find_beam_splitter_point(p)
    # a root search stopped at a 1 kHz tolerance leaves -6.8e-9 here
    assert abs(mpmath_flux_balance(p, point.delta)) <= 1e-12
    # the reference agrees with the float balance to its rounding
    delta = mhz(-45.0)
    ga, gb = propagation._pair_gains(atomic.sideband_blocks(p, np.array([delta])))
    assert float(mpmath_flux_balance(p, delta)) == pytest.approx(ga[0] + gb[0] - 1.0, abs=1e-13)


@pytest.mark.parametrize("medium", [None, *range(8)], ids=["default", *map(str, range(8))])
def test_beam_splitter_point_has_unit_transmission(medium):
    p = AtomicParams() if medium is None else _pool_medium(medium)
    point = atomic.find_beam_splitter_point(p)
    assert abs(point.probe_gain + point.conj_gain - 1.0) <= 1e-13
    f, lo, hi = _flux_balance_and_bracket(p)
    assert lo < point.delta < hi
    _assert_root_to_the_last_float(f, point.delta)


def _assert_root_to_the_last_float(f, x: float) -> None:
    """f(x) is 0, or f changes sign between x and an adjacent float where
    |f| is no smaller than at x."""
    fx = f(x)
    if fx != 0.0:
        across = [
            y for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
            if math.copysign(1.0, f(y)) != math.copysign(1.0, fx)
        ]
        assert across
        assert all(abs(fx) <= abs(f(y)) for y in across)


def _triple(x):
    return (x - 1.0) ** 3


# (f, lo, hi, evaluations): the evaluations of f, both ends included
@pytest.mark.parametrize(
    "f, lo, hi, evaluations",
    [
        (lambda x: x**3 - 2.0, 0.0, 2.0, 10),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 8),
        # 55 secant steps and one least step, no bisection; the weight's floor
        # of 1/2 keeps this flat side from taking more than 400 steps
        (lambda x: math.exp(x) - 1e-10, -40.0, 5.0, 58),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 4.0, 15),
        (lambda x: 1.0 if x > 0.7 else -1.0, 0.0, 1.0, 62),  # a jump
        # the secant overflows to nan, or its slope to inf: bisections only
        (lambda x: math.copysign(1e308, x - 0.3), -1.0, 1.0, 64),
        (lambda x: (x - 1.0) * (x + 3.0), 3.0, -2.0, 10),  # a reversed bracket
        (lambda x: x**7 - 0.5, 0.1, 3.0, 22),  # a steep side
        # infinite slope at the root
        (lambda x: math.copysign(math.sqrt(abs(x - 0.3)), x - 0.3), -1.0, 1.0, 38),
        # 127 secant steps and two least steps, no bisection: the one count the
        # Anderson-Bjorck weight raises (108 with Illinois's halving), since at a
        # triple root f shrinks by a fixed ratio per step on one side, and the
        # weight's factor settles at 0.57, above the halving it replaced
        (_triple, 3.0, -2.0, 131),
    ],
    ids=[
        "cube", "cos", "exp", "tanh", "jump", "overflow", "reversed", "seventh_power",
        "sqrt_slope", "triple",
    ],
)
def test_regula_falsi_root_is_a_sign_change_between_adjacent_floats(f, lo, hi, evaluations):
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    root = atomic._regula_falsi(recorded, lo, hi, recorded(lo), recorded(hi))
    assert len(points) == evaluations
    assert min(lo, hi) <= root <= max(lo, hi)
    _assert_root_to_the_last_float(f, root)


# Simple roots at r, f(x) = g(x) - g(r) for a monotone g, as functions of x,
# r, the bracket's width w and a shape k; the steep expm1 rises by up to a
# factor e^700 across the bracket
_SIMPLE_ROOT_FAMILIES = {
    "log1p": lambda x, r, w, k: math.log1p(x) - math.log1p(r),
    "odd_polynomial": lambda x, r, w, k: (x**3 + k * x) - (r**3 + k * r),
    "tanh": lambda x, r, w, k: math.tanh(k * (x - r) / w),
    "steep_expm1": lambda x, r, w, k: math.expm1(7.0 * k * (x - r) / w),
}


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(_SIMPLE_ROOT_FAMILIES)),
    # within about eps times the width of zero the secant rounds onto the
    # newest end, and halving the bracket down to the root's scale takes some
    # 1,000 steps with either weight, so the roots keep away from zero
    root=st.floats(-0.5, 10.0).filter(lambda r: abs(r) >= 1e-3),
    width=st.floats(1e-6, 1e2),
    left=st.floats(0.01, 0.99),
    shape=st.floats(1e-2, 1e2),
    reverse=st.booleans(),
)
def test_regula_falsi_ends_a_simple_root_on_adjacent_floats(family, root, width, left, shape, reverse):
    # on 2,131 brackets drawn at random from these families the worst polish
    # took 91 evaluations besides its ends, on a steep expm1, where the
    # Illinois weight ran past 400 steps on 15
    def f(x):
        return _SIMPLE_ROOT_FAMILIES[family](x, root, width, shape)

    lo, hi = root - left * width, root + (1.0 - left) * width
    assume(lo > -1.0)  # log1p's domain
    f_lo, f_hi = f(lo), f(hi)
    assume(f_lo != 0.0 and f_hi != 0.0 and math.copysign(1.0, f_lo) != math.copysign(1.0, f_hi))
    points = []

    def counted(x):
        points.append(x)
        return f(x)

    ends = (hi, lo, f_hi, f_lo) if reverse else (lo, hi, f_lo, f_hi)
    found = atomic._regula_falsi(counted, *ends)
    assert lo <= found <= hi
    assert len(points) <= atomic._ROOT_MAXITER
    _assert_root_to_the_last_float(f, found)


def test_regula_falsi_raises_in_too_few_steps(monkeypatch):
    monkeypatch.setattr(atomic, "_ROOT_MAXITER", 100)
    with pytest.raises(RuntimeError, match="did not converge in 100 steps"):
        atomic._regula_falsi(_triple, 3.0, -2.0, _triple(3.0), _triple(-2.0))
