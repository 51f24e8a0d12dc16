import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsim import (
    AncillaSpec,
    CapacityError,
    GridError,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    ProtocolConfig,
    PureState,
    StateValidationError,
    canonical_phase_distribution,
    coherent_coefficients,
    equal_different_measurement,
    hiding_operation,
    layout_of,
    mode_overlap_integral,
    occupation_cnot,
    particle_entanglement,
    phase_grid_register_state,
    reference_phase_shift,
    register_sector_entanglement,
    register_sector_weights,
    run_transfer,
    sector_decompose,
    tensor_product,
    trace_distance,
    transfer_final_state,
    visibility,
)
from epsim.cli import _coherent_truncation
from epsim.protocol import _complex_product
from epsim.statefile import load_state
from conftest import outcome, random_two_site_state, shared_double, shared_single
from oracles import (COHERENT_LOG_WEIGHT_FLOOR, ancilla_check_oracle, ancilla_moments_oracle,
                     coherent_amplitudes_full_range, coherent_moments_decimal, dense,
                     equal_different_oracle, first_moment_oracle, gate_final_state,
                     gate_register_state, mixture, register_order, truncated_phase_state,
                     two_mode_ancilla_state)
from strategies import ancilla_specs, binary_pair_inputs, random_ancillas, transfer_inputs


def register_layout_single():
    return ModeLayout((ModeDescriptor("reg_a", "A", "register", 1),
                       ModeDescriptor("reg_b", "B", "register", 1)))


def register_layout_double():
    return ModeLayout((ModeDescriptor("reg_a1", "A", "register", 1),
                       ModeDescriptor("reg_a2", "A", "register", 1),
                       ModeDescriptor("reg_b1", "B", "register", 1),
                       ModeDescriptor("reg_b2", "B", "register", 1)))


def expected_single_register_mixture():
    layout = register_layout_single()
    return mixture([
        (0.5, PureState(layout, {(1, 0): 1.0})),
        (0.5, PureState(layout, {(0, 1): 1.0})),
    ])


def expected_double_register_mixture():
    layout = register_layout_double()
    bell = PureState(layout, {(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): 2 ** -0.5})
    return mixture([
        (0.25, PureState(layout, {(1, 1, 0, 0): 1.0})),
        (0.25, PureState(layout, {(0, 0, 1, 1): 1.0})),
        (0.5, bell),
    ])


def mixture_from_sectors(state, config):
    """Independent route to the register output: map each local-number
    sector of the input onto register labels and mix with its weight."""
    fields, reg_modes = register_order(config)
    reg_layout = ModeLayout(tuple(reg_modes))
    positions = [state.layout.index(f.id) for f in fields]
    ensemble = []
    for sector in sector_decompose(state).sectors:
        amps = {tuple(label[p] for p in positions): amp
                for label, amp in sector.state.amplitudes.items()}
        ensemble.append((sector.probability, PureState(reg_layout, amps)))
    return mixture(ensemble)


class TestTruncatedPhaseState:
    def test_m1_theta0(self):
        state = truncated_phase_state(1, 0.0)
        assert state.amplitudes[(0,)] == pytest.approx(2 ** -0.5)
        assert state.amplitudes[(1,)] == pytest.approx(2 ** -0.5)

    def test_normalized(self, rng):
        for m, theta in [(5, 0.3), (16, 2.0), (33, -1.2)]:
            amps = list(truncated_phase_state(m, theta).amplitudes.values())
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_matches_geometric_sum(self):
        m = 9
        theta, theta2 = 0.7, 2.4
        a = truncated_phase_state(m, theta)
        b = truncated_phase_state(m, theta2)
        # Both states list their amplitudes in level order 0..m.
        direct = np.vdot(list(a.amplitudes.values()), list(b.amplitudes.values()))
        closed = sum(np.exp(1j * (m - n) * (theta - theta2)) for n in range(m + 1)) / (m + 1)
        assert direct == pytest.approx(closed, abs=1e-12)


class TestCoherentCoefficients:
    def test_vacuum_limit(self):
        spec = coherent_coefficients(0.0, 4)
        assert spec.lo == 0 and spec.M == 4
        assert spec.coefficients.tolist() == [1.0]

    def test_normalized(self):
        spec = coherent_coefficients(25.0, 75)
        assert np.linalg.norm(spec.coefficients) == pytest.approx(1.0, abs=1e-12)

    def test_mean_close_to_nbar(self):
        spec = coherent_coefficients(25.0, 75)
        assert abs(spec.moments()[0] - 25.0) / 25.0 < 0.01

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            coherent_coefficients(-1.0, 10)

    def test_small_truncation_warns(self):
        with pytest.warns(UserWarning):
            coherent_coefficients(25.0, 30)

    def test_huge_nbar_concentrates_at_truncation(self):
        # Far above the truncation the weights grow with n up to M; the
        # constant e^{-nbar} must not swamp them into a uniform profile.
        with pytest.warns(UserWarning):
            spec = coherent_coefficients(1e20, 4)
        assert abs(dense(spec)[4]) > 0.999

    @pytest.mark.parametrize("nbar", [float("nan"), float("inf")])
    def test_non_finite_nbar_rejected(self, nbar):
        with pytest.raises(ValueError):
            coherent_coefficients(nbar, 10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_window_equals_full_range_oracle(self, data):
        # The vacuum, nbar log-uniform up to the largest CLI reference with M
        # below nbar or far above it (past the upper cut too),
        # and the nbar = 1e20, M = 4 case that a Gaussian cut gets wrong.
        kind = data.draw(st.sampled_from(("vacuum", "below", "above", "huge")))
        if kind == "vacuum":
            nbar, m = 0.0, data.draw(st.integers(1, 50))
        elif kind == "huge":
            nbar, m = 1e20, 4
        else:
            nbar = 10.0 ** data.draw(st.floats(-3.0, math.log10(1.6e7)))
            if kind == "below":
                m = data.draw(st.integers(1, max(1, math.floor(nbar))))
            else:
                m = math.ceil(nbar + data.draw(st.floats(10.0, 80.0)) * math.sqrt(nbar)
                              + data.draw(st.integers(1, 100)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = coherent_coefficients(nbar, m)
        oracle = coherent_amplitudes_full_range(nbar, m, floor=COHERENT_LOG_WEIGHT_FLOOR)
        # The same support exactly.
        amps = dense(spec)
        assert np.array_equal(amps != 0, oracle != 0)
        # The same values within the oracle's own rounding: each of its log
        # weights n log nbar - lgamma(n + 1) carries about an ulp of its
        # terms, at most 2^-53 (hi |log nbar| + lgamma(hi + 1)), which the
        # amplitude halves.  The bound is 16 times that, fixed in advance.
        hi = spec.lo + spec.coefficients.size - 1
        scale = 1.0 + (hi * abs(math.log(nbar)) if nbar else 0.0) + math.lgamma(hi + 1)
        kept = oracle != 0
        assert np.all(np.abs(amps[kept] - oracle[kept])
                      <= 2.0 ** -49 * scale * np.abs(oracle[kept]))
        # The levels the cut drops carry at most 2^-106 of the uncut weight.
        weights = np.abs(coherent_amplitudes_full_range(nbar, m)) ** 2
        dropped = weights[:spec.lo].sum() + weights[spec.lo + spec.coefficients.size:].sum()
        assert dropped <= 2.0 ** -106

    # nbar = 1.6e7 at the CLI's truncation nbar + 10 sqrt(nbar), and at the
    # longest one.  Near the peak the log weight falls as -d^2 / (2 nbar) at
    # d levels away, so the floor F cuts about sqrt(2 |F| nbar) = 53,698 levels
    # from nbar on each side; the Poisson skew moves the upper edge out by
    # about d / (6 nbar), 0.05%, which the 1% slack covers.
    EDGE = 1.01 * math.sqrt(-2.0 * COHERENT_LOG_WEIGHT_FLOOR * 1.6e7)

    @pytest.mark.parametrize("m, levels", [(16_040_000, math.ceil(10.0 * math.sqrt(1.6e7) + EDGE)),
                                           (2 ** 24 - 1, math.ceil(2.0 * EDGE))])
    def test_largest_reference_stores_its_span_only(self, m, levels):
        spec = coherent_coefficients(1.6e7, m)
        assert spec.coefficients.size < levels
        assert spec.coefficients[0] != 0.0 and spec.coefficients[-1] != 0.0

    def test_long_truncation_allocates_no_dense_vector(self):
        tracemalloc.start()
        try:
            spec = coherent_coefficients(1.0, 2 ** 24 - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert spec.lo == 0 and spec.M == 2 ** 24 - 1

    @pytest.mark.parametrize("nbar, m", [(1.0, 2 ** 24 - 1), (5000.0, 12000),
                                         (1.6e7, 2 ** 24 - 1), (1e20, 4)])
    def test_lgamma_only_on_the_span(self, monkeypatch, nbar, m):
        # lgamma only locates the span: the two O(log M) bisections for its
        # edges, however many levels it holds.  The levels themselves come
        # from the ratio recurrence.
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coherent_coefficients(nbar, m)
        assert len(calls) <= 2 * (m.bit_length() + 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_nbar=st.floats(-3.0, math.log10(2e5)))
    def test_cut_changes_no_reported_quantity(self, log_nbar):
        # At the CLI truncation, the cut window's mean, variance, first
        # moment and visibility match those of every non-underflowing level.
        # Both sides share the oracle's lgamma values, so only the cut
        # differs; the library route's accuracy is the next test's.
        nbar = 10.0 ** log_nbar
        m = _coherent_truncation(nbar)
        cut = AncillaSpec(m, coherent_amplitudes_full_range(
            nbar, m, floor=COHERENT_LOG_WEIGHT_FLOOR))
        uncut = AncillaSpec(m, coherent_amplitudes_full_range(nbar, m))
        assert cut.moments() == pytest.approx(uncut.moments(), rel=1e-14, abs=0.0)
        assert abs(cut.first_moment() - uncut.first_moment()) <= 1e-14
        assert abs(visibility(cut, cut) - visibility(uncut, uncut)) <= 1e-14

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(log_nbar=st.floats(-3.0, math.log10(2e5)))
    @example(log_nbar=math.log10(2e5))
    def test_matches_decimal_reference(self, log_nbar):
        # At the CLI truncation, against 40-digit decimal arithmetic over the
        # same window of W + 1 levels.  Each log weight is a sum of up to W
        # rounded steps, so the amplitudes get a bound linear in W; the
        # moments are fixed at 1e-14.
        nbar = 10.0 ** log_nbar
        spec = coherent_coefficients(nbar, _coherent_truncation(nbar))
        w = spec.coefficients.size - 1
        amps, mean, variance, first = coherent_moments_decimal(nbar, spec.lo, spec.lo + w)
        assert np.all(np.abs(spec.coefficients - amps) <= (w + 4) * 2.0 ** -50 * amps)
        assert spec.moments() == pytest.approx((mean, variance), rel=1e-14, abs=0.0)
        assert abs(spec.first_moment() - first) <= 1e-14
        assert abs(visibility(spec, spec) - first ** 2) <= 1e-14


# Entries the one-pass check rejects as the multi-pass one did: non-finite
# parts, and finite ones whose squares overflow.
BAD_COEFFICIENTS = (math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                    complex(math.inf, -math.inf), complex(0.0, -math.inf), 1e200, -1e200j)


@st.composite
def ancilla_inputs(draw):
    """(M, coefficients, lo): a drawn ancilla's amplitudes on all its levels
    with zeros padded around them, kept unit-norm, zeroed, or with one to
    three entries replaced by ``BAD_COEFFICIENTS``."""
    full = np.pad(dense(draw(ancilla_specs())), (draw(st.integers(0, 3)),
                                                 draw(st.integers(0, 3))))
    kind = draw(st.sampled_from(("unit", "zero", "bad")))
    if kind == "zero":
        full[:] = 0.0
    elif kind == "bad":
        for _ in range(draw(st.integers(1, 3))):
            full[draw(st.integers(0, full.size - 1))] = draw(st.sampled_from(BAD_COEFFICIENTS))
    lo = draw(st.integers(0, 2))
    return full.size - 1 + lo + draw(st.integers(0, 2)), full, lo


class TestAncillaSpec:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(StateValidationError):
            AncillaSpec(2, [bad, 0.0, 0.0])

    @pytest.mark.parametrize("m, coeffs, lo", [(3, [1.0] * 5, 0), (3, [1.0], 4),
                                               (3, [1.0], -1), (3, [[1.0]], 0)])
    def test_span_outside_levels_rejected(self, m, coeffs, lo):
        with pytest.raises(ValueError):
            AncillaSpec(m, coeffs, lo=lo)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(args=(2, [math.inf, -math.inf], 0))
    @example(args=(2, [math.nan, 1.0], 0))
    @example(args=(2, [1e200, 1e200], 0))
    @example(args=(3, [0.0, 0.0, 0.0], 1))
    @example(args=(5, [0.0, 0.0, 0.6, 0.8j, 0.0], 0))
    @given(args=ancilla_inputs())
    def test_one_pass_checks_equal_multi_pass_oracle(self, args):
        # Same accepted span, or same exception type and message, with no
        # warning from the one-pass checks.  The oracle's np.linalg.norm
        # warns where a square overflows; its norm is inf all the same.
        with np.errstate(over="ignore"):
            expected = outcome(ancilla_check_oracle, *args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kind, spec = outcome(AncillaSpec, *args)
            if kind != "ok":
                assert (kind, spec) == expected
                return
            assert expected[0] == "ok"
            lo, span = expected[1]
            assert spec.lo == lo and spec.coefficients.tobytes() == span.tobytes()
            # The moments from one pass are the separate passes' bits.
            hexes = [x.hex() for x in ancilla_moments_oracle(spec)]
            assert [x.hex() for x in spec.moments()] == hexes
            assert abs(spec.first_moment() - first_moment_oracle(spec)) <= 1e-14

    @pytest.mark.parametrize("nbar", [4.0, 50.0, 1e6, 1.6e7])
    def test_coherent_moments_equal_separate_passes(self, nbar):
        # The references measure reports, up to the largest it accepts.
        spec = coherent_coefficients(nbar, _coherent_truncation(nbar))
        mean, variance = spec.moments()
        assert [mean.hex(), variance.hex()] == [x.hex() for x in ancilla_moments_oracle(spec)]
        assert abs(spec.first_moment() - first_moment_oracle(spec)) <= 1e-14

    def test_number_state_is_one_level(self):
        spec = AncillaSpec(6, [1.0], lo=3)
        assert (spec.lo, spec.M, spec.coefficients.tolist()) == (3, 6, [1.0])
        assert spec.moments() == (3.0, 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(inner=random_ancillas(12), lead=st.integers(0, 9), trail=st.integers(0, 9),
           theta=st.floats(0.0, 2.0 * np.pi))
    def test_padded_input_stores_tight_span(self, inner, lead, trail, theta):
        full = np.pad(inner.coefficients, (lead, trail))
        m = full.size - 1
        spec = AncillaSpec(m, full)
        assert spec.lo == lead and spec.M == m
        assert np.array_equal(spec.coefficients, inner.coefficients)
        assert np.array_equal(dense(spec), full)

        ns, probs = np.arange(m + 1), np.abs(full) ** 2
        mean = float(ns @ probs)
        assert spec.moments() == pytest.approx((mean, float(ns ** 2 @ probs) - mean ** 2),
                                               abs=1e-12)
        first = np.sum(np.conj(full[:-1]) * full[1:])
        assert spec.first_moment() == pytest.approx(first, abs=1e-12)
        for k in range(m + 1):
            overlap = probs[k:].sum() / (m + 1) * np.exp(1j * k * theta)
            assert mode_overlap_integral(k, spec, theta) == pytest.approx(overlap, abs=1e-12)
        K = 2 * m + 3
        density = np.abs(np.exp(-1j * np.outer(2 * np.pi * np.arange(K) / K, ns))
                         @ full) ** 2 / (2 * np.pi)
        np.testing.assert_allclose(canonical_phase_distribution(spec, K).values, density,
                                   rtol=0.0, atol=1e-12)


def ancilla_state(spec):
    """The two-mode ancilla over site-A sink and reference modes of
    capacity M."""
    return two_mode_ancilla_state(spec, ModeDescriptor("sink_A", "A", "field", spec.M),
                                  ModeDescriptor("ref_A", "A", "field", spec.M))


class TestTwoModeAncilla:
    def test_single_coefficient(self):
        spec = AncillaSpec(3, [1.0, 0.0, 0.0, 0.0])
        state = ancilla_state(spec)
        assert state.amplitudes == {(3, 0): pytest.approx(1.0)}

    def test_total_number_constant(self):
        spec = coherent_coefficients(1.0, 12)
        state = ancilla_state(spec)
        for label in state.amplitudes:
            assert sum(label) == 12

    def test_matches_phase_integral_quadrature(self):
        # sqrt(M+1)/K * sum_j |psi(theta_j)> |c(theta_j)> over a uniform grid
        # reproduces sum_n c_n |M-n, n> once the grid resolves the bandwidth.
        spec = coherent_coefficients(1.5, 14)
        m = spec.M
        k = 2 * m + 3
        acc = np.zeros((m + 1, m + 1), dtype=complex)
        for j in range(k):
            theta = 2 * np.pi * j / k
            psi = np.exp(-1j * (m - np.arange(m + 1)) * theta) / np.sqrt(m + 1)
            c = dense(spec) * np.exp(1j * np.arange(m + 1) * theta)
            acc += np.outer(psi, c)
        acc *= np.sqrt(m + 1) / k
        state = ancilla_state(spec)
        for (sink, ref), amp in state.amplitudes.items():
            assert acc[sink, ref] == pytest.approx(amp, abs=1e-10)
            acc[sink, ref] = 0.0
        assert np.max(np.abs(acc)) < 1e-10


class TestOccupationCnot:
    def layout(self):
        return layout_of(ModeDescriptor("f", "A", "field", 1),
                         ModeDescriptor("r", "A", "register", 1))

    def test_copies_occupation(self):
        state = PureState(self.layout(), {(1, 0): 1.0})
        out = occupation_cnot(state, "f", "r")
        assert out.amplitudes == {(1, 1): pytest.approx(1.0)}

    def test_vacuum_fixed(self):
        state = PureState(self.layout(), {(0, 0): 1.0})
        out = occupation_cnot(state, "f", "r")
        assert out.amplitudes == {(0, 0): pytest.approx(1.0)}

    def test_on_shared_pair(self):
        reg = ModeDescriptor("reg_a", "A", "register", 1)
        state = tensor_product(shared_single(),
                               PureState(layout_of(reg), {(0,): 1.0}))
        out = occupation_cnot(state, "a", "reg_a")
        assert out.amplitudes[(1, 0, 1)] == pytest.approx(2 ** -0.5)
        assert out.amplitudes[(0, 1, 0)] == pytest.approx(2 ** -0.5)

    def test_capacity_violation(self):
        layout = layout_of(ModeDescriptor("f", "A", "field", 2),
                           ModeDescriptor("r", "A", "register", 1))
        state = PureState(layout, {(2, 0): 1.0})
        with pytest.raises(CapacityError):
            occupation_cnot(state, "f", "r")


class TestHidingOperation:
    def layout(self, sink_cap=8):
        return layout_of(ModeDescriptor("sink", "A", "field", sink_cap),
                         ModeDescriptor("src", "A", "field", 2),
                         ModeDescriptor("reg", "A", "register", 2))

    def test_moves_source_onto_sink(self):
        state = PureState(self.layout(), {(2, 1, 1): 1.0})
        out = hiding_operation(state, "reg", "src", "sink")
        assert out.amplitudes == {(3, 0, 1): pytest.approx(1.0)}

    def test_control_zero_is_identity(self):
        state = PureState(self.layout(), {(2, 1, 0): 1.0})
        out = hiding_operation(state, "reg", "src", "sink")
        assert out.amplitudes == {(2, 1, 0): pytest.approx(1.0)}

    def test_norm_preserved_on_superpositions(self):
        state = PureState(self.layout(), {(2, 1, 1): 0.6, (1, 2, 2): 0.8})
        out = hiding_operation(state, "reg", "src", "sink")
        assert np.linalg.norm(list(out.amplitudes.values())) == pytest.approx(1.0, abs=1e-12)
        assert out.amplitudes[(3, 0, 1)] == pytest.approx(0.6)
        assert out.amplitudes[(3, 0, 2)] == pytest.approx(0.8)

    def test_sink_overflow(self):
        state = PureState(self.layout(sink_cap=2), {(2, 1, 1): 1.0})
        with pytest.raises(CapacityError):
            hiding_operation(state, "reg", "src", "sink")

    def test_collision_rejected(self):
        # (x=3, y=0) and (x=2, y=1) both map to (3, 0) under control 1.
        state = PureState(self.layout(), {(3, 0, 1): 0.6, (2, 1, 1): 0.8})
        with pytest.raises(StateValidationError):
            hiding_operation(state, "reg", "src", "sink")


class TestRunTransfer:
    def test_single_particle_mixture(self):
        config = ProtocolConfig(shared_single(), AncillaSpec.uniform(16),
                                AncillaSpec.uniform(16))
        rho = run_transfer(config)
        assert trace_distance(rho, expected_single_register_mixture()) < 1e-12

    def test_two_copy_mixture(self):
        config = ProtocolConfig(shared_double(), AncillaSpec.uniform(8),
                                AncillaSpec.uniform(8))
        rho = run_transfer(config)
        assert trace_distance(rho, expected_double_register_mixture()) < 1e-12

    def test_random_states_match_sector_mixture(self):
        for seed in range(5):
            rng = np.random.RandomState(4000 + seed)
            state = random_two_site_state(rng, 2)
            config = ProtocolConfig(state, AncillaSpec.uniform(8),
                                    AncillaSpec.uniform(8))
            rho = run_transfer(config)
            oracle = mixture_from_sectors(state, config)
            assert trace_distance(rho, oracle) < 1e-10

    def test_sector_weights_match_input(self):
        state = shared_double()
        config = ProtocolConfig(state, AncillaSpec.uniform(8), AncillaSpec.uniform(8))
        weights = register_sector_weights(run_transfer(config))
        probs = sector_decompose(state).probabilities()
        assert set(weights) == set(probs)
        for n, w in weights.items():
            assert w == pytest.approx(probs[n], abs=1e-10)

    def test_transfer_entanglement_equals_particle_entanglement(self):
        for seed in range(5):
            rng = np.random.RandomState(5000 + seed)
            state = random_two_site_state(rng, 2)
            config = ProtocolConfig(state, AncillaSpec.uniform(8),
                                    AncillaSpec.uniform(8))
            assert register_sector_entanglement(run_transfer(config)) == pytest.approx(
                particle_entanglement(state), abs=1e-9)

    @pytest.mark.parametrize("ids", [("a", "reg_a"), ("sink_A", "b"), ("ref_B", "b")])
    def test_reserved_mode_ids_rejected(self, ids):
        layout = layout_of(ModeDescriptor(ids[0], "A", "field", 1),
                           ModeDescriptor(ids[1], "B", "field", 1))
        state = PureState(layout, {(1, 0): 2 ** -0.5, (0, 1): 2 ** -0.5})
        with pytest.raises(LayoutError):
            run_transfer(ProtocolConfig(state, AncillaSpec.uniform(2),
                                        AncillaSpec.uniform(2)))

    def test_protocol_empties_field_modes(self):
        config = ProtocolConfig(shared_double(), AncillaSpec.uniform(8),
                                AncillaSpec.uniform(8))
        final = transfer_final_state(config)
        field_idx = [final.layout.index(mid) for mid in ("a1", "b1", "a2", "b2")]
        for label in final.amplitudes:
            assert all(label[i] == 0 for i in field_idx)

    def test_signed_zero_parts(self):
        # The golden corpus reads -0.0 and 0.0 as equal whenever the Python
        # or numpy version differs from the one it was written with, so this
        # test, not the corpus, guards the sign of every zero part: each
        # same-sector entry is np.outer's, bit for bit, and every other
        # entry is +0.0 in both parts.
        path = Path(__file__).parent / "golden" / "inputs" / "signed_zero.json"
        config = ProtocolConfig(load_state(str(path)), AncillaSpec.uniform(2),
                                AncillaSpec.uniform(2))
        _, _, amps, n_a, n_b = config.register_terms
        outer = np.outer(amps, amps.conj())
        same = (n_a[:, None] == n_a[None, :]) & (n_b[:, None] == n_b[None, :])
        matrix = run_transfer(config).matrix

        def parts(z):
            return z.real.hex(), z.imag.hex()

        for (r, c), z in np.ndenumerate(matrix):
            assert parts(z) == parts(outer[r, c] if same[r, c] else 0j)
        assert any(math.copysign(1.0, x) < 0.0 for z in outer[same]
                   for x in (z.real, z.imag) if x == 0.0)


def stored_bits(state):
    """Each stored term as (label, hex real, hex imag), sorted by label."""
    return sorted((label, amp.real.hex(), amp.imag.hex())
                  for label, amp in state.amplitudes.items())


_S = 2 ** -0.5

# Signed zeros, the smallest subnormal, magnitudes near 1e+-150 (no product
# of two of them overflows) and ordinary normals.
_PRODUCT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.2345678901234567e150, -9.87654321e149,
                     1.0000000000000002e-150, -3.3e-151]),
    st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def complex_stacks(draw):
    """Two equal-shape complex stacks with parts from ``_PRODUCT_PARTS``."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 4)))
    size = 2 * shape[0] * shape[1]
    u, v = (np.array(draw(st.lists(_PRODUCT_PARTS, min_size=size, max_size=size)))
            .view(complex).reshape(shape) for _ in range(2))
    return u, v


class TestComplexProduct:
    # The transfer's branch amplitudes and uncertainty's shift expectations
    # both take their products from _complex_product, bit for bit
    # CPython's complex product.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(complex_stacks())
    def test_equals_python_complex_product(self, stacks):
        u, v = stacks
        for w, factor in ((v, complex), (v.conj(), lambda z: complex(z).conjugate())):
            expected = np.array([complex(a) * factor(b) for a, b in zip(u.ravel(), v.ravel())])
            got = _complex_product(u, w)
            assert got.shape == u.shape
            np.testing.assert_array_equal(got.ravel().view(np.uint64), expected.view(np.uint64))


class TestClosedRouteMatchesGateOracle:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(), ancilla_a=ancilla_specs(), ancilla_b=ancilla_specs())
    # Real parts of opposite signs: products whose imaginary part is -0.0
    # before it is stored.
    @example(state=PureState(shared_single().layout, {(1, 0): _S, (0, 1): -_S}),
             ancilla_a=AncillaSpec(1, [_S, _S]), ancilla_b=AncillaSpec(1, [_S, -_S]))
    def test_final_state_equals_gate_route(self, state, ancilla_a, ancilla_b):
        config = ProtocolConfig(state, ancilla_a, ancilla_b)
        closed = transfer_final_state(config)
        gate = gate_final_state(config)
        assert closed.layout == gate.layout
        # Bits, not ==, which lets -0.0 equal +0.0; the two routes store
        # their terms in different orders.
        assert stored_bits(closed) == stored_bits(gate)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(), ancilla_a=ancilla_specs(), ancilla_b=ancilla_specs())
    def test_sector_dephasing_equals_gate_route(self, state, ancilla_a, ancilla_b):
        config = ProtocolConfig(state, ancilla_a, ancilla_b)
        closed = run_transfer(config)
        gate = gate_register_state(config)
        assert closed.layout == gate.layout
        assert closed.basis == gate.basis
        np.testing.assert_allclose(closed.matrix, gate.matrix, rtol=0.0, atol=1e-12)


class TestModeOverlapIntegral:
    def test_k_zero(self):
        spec = coherent_coefficients(4.0, 25)
        assert mode_overlap_integral(0, spec, 0.7) == pytest.approx(1.0 / 26)

    def test_closed_form(self):
        spec = coherent_coefficients(4.0, 25)
        theta = 1.3
        for k in (1, 2, 3):
            weight = float(np.sum(np.abs(dense(spec)[k:]) ** 2))
            expected = weight / 26 * np.exp(1j * k * theta)
            assert mode_overlap_integral(k, spec, theta) == pytest.approx(expected, abs=1e-14)

    def test_matches_quadrature(self):
        from oracles import overlap_integral_quadrature
        spec = coherent_coefficients(6.0, 32)
        theta = 0.9
        for k in (0, 1, 2):
            oracle = overlap_integral_quadrature(k, spec, theta)
            assert mode_overlap_integral(k, spec, theta) == pytest.approx(oracle, abs=1e-9)

    def test_k_beyond_truncation(self):
        spec = AncillaSpec.uniform(4)
        with pytest.warns(UserWarning):
            value = mode_overlap_integral(7, spec, 0.2)
        assert value == 0.0


class TestPhaseGridRegisterState:
    def config(self, m):
        return ProtocolConfig(shared_single(), AncillaSpec.uniform(m),
                              AncillaSpec.uniform(m))

    def test_single_particle_bound(self):
        m = 32
        rho_grid = phase_grid_register_state(self.config(m), 2 * m + 3)
        exact = run_transfer(self.config(m))
        assert trace_distance(rho_grid, exact) <= 3.0 / (m + 1)

    def test_distance_strictly_decreasing(self):
        distances = []
        for m in (8, 16, 32):
            rho_grid = phase_grid_register_state(self.config(m), 2 * m + 3)
            exact = run_transfer(self.config(m))
            distances.append(trace_distance(rho_grid, exact))
        assert distances[0] > distances[1] > distances[2]
        for m, d in zip((8, 16, 32), distances):
            assert d <= 3.0 / (m + 1)

    def test_converges_for_large_truncation(self):
        m = 64
        rho_grid = phase_grid_register_state(self.config(m), 2 * m + 3)
        exact = run_transfer(self.config(m))
        assert trace_distance(rho_grid, exact) < 0.05

    def test_boundary_weight_in_trace(self):
        m = 16
        rho_grid = phase_grid_register_state(self.config(m), 2 * m + 3)
        assert rho_grid.trace() == pytest.approx(1.0 + 2.0 / (m + 1), abs=1e-10)

    def test_grid_too_small(self):
        with pytest.raises(GridError):
            phase_grid_register_state(self.config(8), 10)

    def test_two_copy_within_bound(self):
        m = 16
        config = ProtocolConfig(shared_double(), AncillaSpec.uniform(m),
                                AncillaSpec.uniform(m))
        rho_grid = phase_grid_register_state(config, 2 * m + 3)
        exact = run_transfer(config)
        assert trace_distance(rho_grid, exact) <= 3.0 / (m + 1)

    def test_matches_pointwise_oracle(self):
        # Independent per-point reconstruction with the real hiding gate.
        from oracles import phase_grid_oracle

        m = 8
        for state in (shared_single(), shared_double()):
            config = ProtocolConfig(state, AncillaSpec.uniform(m),
                                    AncillaSpec.uniform(m))
            rho_grid = phase_grid_register_state(config, 2 * m + 3)
            labels, mat = phase_grid_oracle(config, 2 * m + 3)
            assert labels == rho_grid.basis
            np.testing.assert_allclose(mat, rho_grid.matrix, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(), ancilla_a=random_ancillas(3),
           ancilla_b=random_ancillas(3), extra=st.integers(0, 2))
    def test_closed_kernel_matches_pointwise_oracle(self, state, ancilla_a, ancilla_b,
                                                    extra):
        from oracles import phase_grid_oracle

        config = ProtocolConfig(state, ancilla_a, ancilla_b)
        K = 2 * max(ancilla_a.M, ancilla_b.M) + 3 + extra
        rho_grid = phase_grid_register_state(config, K)
        labels, mat = phase_grid_oracle(config, K)
        assert labels == rho_grid.basis
        np.testing.assert_allclose(rho_grid.matrix, mat, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(shuffled=True), ancilla_a=random_ancillas(3),
           ancilla_b=random_ancillas(3))
    def test_site_interleaved_inputs_match_oracles(self, state, ancilla_a, ancilla_b):
        # Modes in any site order: the registers still list site A first, and
        # both routes equal their independent oracles.
        from oracles import phase_grid_oracle

        config = ProtocolConfig(state, ancilla_a, ancilla_b)
        rho = run_transfer(config)
        sites = [m.site for m in rho.layout.modes]
        assert sites == sorted(sites)
        if len({sum(label) for label in state.amplitudes}) == 1:
            # With one total, each n_A sector of the input is one (n_A, n_B).
            oracle = mixture_from_sectors(state, config)
            assert oracle.basis == rho.basis
            np.testing.assert_allclose(rho.matrix, oracle.matrix, rtol=0.0, atol=1e-12)
        K = 2 * max(ancilla_a.M, ancilla_b.M) + 3
        rho_grid = phase_grid_register_state(config, K)
        labels, mat = phase_grid_oracle(config, K)
        assert labels == rho_grid.basis
        np.testing.assert_allclose(rho_grid.matrix, mat, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("particles", [5, 7, 11])
    def test_aliased_sectors_match_pointwise_oracle(self, particles, m):
        # N >= K: labels whose local numbers differ by K keep their coherence.
        from oracles import phase_grid_oracle

        layout = layout_of(ModeDescriptor("a", "A", "field", particles),
                           ModeDescriptor("b", "B", "field", particles))
        state = PureState(layout, {(k, particles - k): (1.0 + k) * np.exp(0.7j * k)
                                   for k in range(particles + 1)}, normalize=True)
        rng = np.random.default_rng(particles + 10 * m)
        coeffs = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        spec = AncillaSpec(m, coeffs / np.linalg.norm(coeffs))
        config = ProtocolConfig(state, spec, spec)
        K = 2 * m + 3
        rho_grid = phase_grid_register_state(config, K)
        labels, mat = phase_grid_oracle(config, K)
        assert labels == rho_grid.basis
        np.testing.assert_allclose(rho_grid.matrix, mat, rtol=0.0, atol=1e-12)


class TestEqualDifferentMeasurement:
    def test_two_copy_outcomes(self):
        rho = expected_double_register_mixture()
        outcomes = equal_different_measurement(rho)
        assert len(outcomes) == 2
        by_kind = {(o.outcome_a, o.outcome_b): o for o in outcomes}
        eq = by_kind[("equal", "equal")]
        diff = by_kind[("different", "different")]
        assert eq.probability == pytest.approx(0.5, abs=1e-12)
        assert diff.probability == pytest.approx(0.5, abs=1e-12)
        assert eq.entanglement == pytest.approx(0.0, abs=1e-10)
        assert diff.entanglement == pytest.approx(1.0, abs=1e-10)
        average = sum(o.probability * o.entanglement for o in outcomes)
        assert average == pytest.approx(0.5, abs=1e-10)

    def test_product_register_state(self):
        layout = register_layout_double()
        rho = mixture([(1.0, PureState(layout, {(0, 0, 0, 0): 1.0}))])
        outcomes = equal_different_measurement(rho)
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0)
        assert outcomes[0].entanglement == pytest.approx(0.0)

    def test_wrong_register_count(self):
        rho = expected_single_register_mixture()
        with pytest.raises(Exception):
            equal_different_measurement(rho)

    def test_skipped_outcome_is_not_checked(self):
        # (equal, equal) holds 2e-13 of weight in one mixed sector (n_A = 0,
        # B registers 00 or 11): below 1e-12, so it is skipped, not a purity
        # failure.
        layout = register_layout_double()
        bell = PureState(layout, {(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): 2 ** -0.5})
        rho = mixture([(1.0 - 2e-13, bell), (1e-13, PureState(layout, {(0, 0, 0, 0): 1.0})),
                       (1e-13, PureState(layout, {(0, 0, 1, 1): 1.0}))])
        (outcome,) = equal_different_measurement(rho)
        assert (outcome.outcome_a, outcome.outcome_b) == ("different", "different")
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert outcome.entanglement == pytest.approx(1.0, abs=1e-10)
        assert [row[:2] for row in equal_different_oracle(rho)] == [("different", "different")]

    @staticmethod
    def outcome_rows(measure, rho):
        try:
            return measure(rho)
        except StateValidationError:
            return None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(state=binary_pair_inputs())
    def test_equals_per_outcome_oracle(self, state):
        rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(2), AncillaSpec.uniform(2)))
        expected = self.outcome_rows(equal_different_oracle, rho)
        outcomes = self.outcome_rows(equal_different_measurement, rho)
        assert (outcomes is None) == (expected is None)
        if outcomes is None:
            return
        got = [(o.outcome_a, o.outcome_b, o.probability, o.entanglement) for o in outcomes]
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        np.testing.assert_allclose([row[2:] for row in got], [row[2:] for row in expected],
                                   rtol=0.0, atol=1e-12)

    def test_one_decomposition_per_call(self, decompositions):
        rho = run_transfer(ProtocolConfig(shared_double(), AncillaSpec.uniform(2),
                                          AncillaSpec.uniform(2)))
        decompositions.update(svd=0, eigh=0)
        # Three register sectors over the (equal, equal) and (different,
        # different) outcomes.
        assert len(equal_different_measurement(rho)) == 2
        assert decompositions == {"svd": 1, "eigh": 1}


class TestReferencePhaseShift:
    def test_invariant_subspace_projector(self):
        layout = register_layout_double()
        bell = PureState(layout, {(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): 2 ** -0.5})
        rho = mixture([(1.0, bell)])
        shifted = reference_phase_shift(rho, 0.8, -1.7)
        assert trace_distance(shifted, rho) < 1e-12

    def test_transfer_outputs_invariant(self):
        config = ProtocolConfig(shared_double(), AncillaSpec.uniform(8),
                                AncillaSpec.uniform(8))
        rho = run_transfer(config)
        for theta in np.linspace(0, 2 * np.pi, 5, endpoint=False):
            for phi in np.linspace(0, 2 * np.pi, 5, endpoint=False):
                shifted = reference_phase_shift(rho, theta, phi)
                assert trace_distance(shifted, rho) < 1e-12

    def test_zero_angles_identity(self):
        rho = expected_single_register_mixture()
        shifted = reference_phase_shift(rho, 0.0, 0.0)
        np.testing.assert_allclose(shifted.matrix, rho.matrix, atol=1e-15)
