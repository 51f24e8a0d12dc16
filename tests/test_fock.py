import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim import (
    CapacityError,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    PureState,
    StateValidationError,
    entropy_of_entanglement,
    layout_of,
    partial_trace,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)
from epsim.fock import _norm
from conftest import random_two_site_state, shared_single
from oracles import partial_trace_oracle
from strategies import transfer_inputs

# -sum(lam log2 lam) for eigenvalues (0.9, 0.1), 40-digit arithmetic.
ENTROPY_09_01 = 0.46899559358928122125


def one_mode(mode_id="m", site="A", cap=1):
    return layout_of(ModeDescriptor(mode_id, site, "field", cap))


def diag_operator(probs, site="A"):
    layout = one_mode(cap=len(probs) - 1, site=site)
    basis = [(n,) for n in range(len(probs))]
    return DensityOperator(layout, basis, np.diag(np.asarray(probs, dtype=complex)))


class TestTensorProduct:
    def test_basis_states(self):
        a = PureState(one_mode("a", "A"), {(1,): 1.0})
        b = PureState(one_mode("b", "B"), {(0,): 1.0})
        prod = tensor_product(a, b)
        assert prod.amplitudes == {(1, 0): 1.0 + 0.0j}

    def test_shared_pair_distributes(self):
        psi = shared_single()
        second = PureState(
            layout_of(ModeDescriptor("a2", "A", "field", 1),
                      ModeDescriptor("b2", "B", "field", 1)),
            {(1, 0): 2 ** -0.5, (0, 1): 2 ** -0.5})
        prod = tensor_product(psi, second)
        assert len(prod.amplitudes) == 4
        for amp in prod.amplitudes.values():
            assert amp == pytest.approx(0.5)

    def test_norm_preserved(self, rng):
        a = random_two_site_state(rng, 2, prefix="x")
        b = random_two_site_state(rng, 1, prefix="y")
        amps = list(tensor_product(a, b).amplitudes.values())
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_ids_rejected(self):
        a = PureState(one_mode("a", "A"), {(1,): 1.0})
        with pytest.raises(LayoutError):
            tensor_product(a, PureState(one_mode("a", "B"), {(0,): 1.0}))


class TestPureStateImmutable:
    def test_amplitudes_read_only(self):
        state = shared_single()
        with pytest.raises(TypeError):
            state.amplitudes[(1, 0)] = 0.0
        with pytest.raises(TypeError):
            del state.amplitudes[(1, 0)]


class TestMappingConstructor:
    def test_signed_zero_parts(self):
        """Each kept amplitude is added to 0j, so a -0.0 part is stored as
        +0.0, with or without ``normalize``."""
        amps = {(0,): complex(-0.0, 0.6), (1,): complex(0.8, -0.0)}
        stored = [((0,), "0x0.0p+0", "0x1.3333333333333p-1"),
                  ((1,), "0x1.999999999999ap-1", "0x0.0p+0")]
        for normalize in (False, True):
            state = PureState(one_mode(), amps, normalize=normalize)
            assert [(label, amp.real.hex(), amp.imag.hex())
                    for label, amp in state.amplitudes.items()] == stored

    def test_no_amplitude_rejected(self):
        with pytest.raises(StateValidationError, match="no amplitude"):
            PureState(one_mode(), {})


class TestNorm:
    """``_norm``, the one sum of squared moduli, against independent routes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1e150), max_size=20))
    def test_equals_python_sum_of_squares(self, moduli):
        assert _norm(moduli).hex() == math.sqrt(sum(m ** 2 for m in moduli)).hex()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(1e154, 1e308), min_size=1, max_size=3))
    def test_squares_past_largest_float_equal_hypot(self, moduli):
        """Up to three moduli of at most 1e308 have a finite norm, though
        their squares do not."""
        expected = math.hypot(*moduli)
        assert abs(_norm(moduli) - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("moduli", [
        [math.nan], [math.inf], [1.0, math.nan], [math.nan, 1e200], [1e200, math.nan],
        [math.inf, 1e200], [1e200, math.inf], [math.nan, math.inf],
    ])
    def test_non_finite_modulus_gives_non_finite_norm(self, moduli):
        assert not math.isfinite(_norm(moduli))

    def test_empty_is_zero(self):
        assert _norm([]) == 0.0


class _Occupation:
    """An occupation that indexes as ``n`` but equals no int, so two labels
    that hold it and ``n`` are distinct mapping keys."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


class TestCheckLabel:
    LAYOUT = layout_of(ModeDescriptor("a", "A", "field", 1),
                       ModeDescriptor("b", "B", "field", 2))

    def test_returns_int_tuple(self):
        label = self.LAYOUT.check_label([np.int64(1), True])
        assert label == (1, 1) and all(type(n) is int for n in label)

    @pytest.mark.parametrize("label, error, message", [
        ((0.5, 1), StateValidationError,
         "label (0.5, 1): occupation 0.5 of mode 'a' is not an integer"),
        ((1, 1.0), StateValidationError,
         "label (1, 1.0): occupation 1.0 of mode 'b' is not an integer"),
        ((2, 0), CapacityError, "label (2, 0): occupation 2 of mode 'a' outside [0, 1]"),
        ((0, -1), CapacityError, "label (0, -1): occupation -1 of mode 'b' outside [0, 2]"),
        ((1,), StateValidationError, "label (1,) has 1 occupations for the 2 modes ('a', 'b')"),
    ])
    def test_errors_name_label_and_mode(self, label, error, message):
        with pytest.raises(error) as info:
            self.LAYOUT.check_label(label)
        assert type(info.value) is error and str(info.value) == message

    def test_repeated_label_rejected(self):
        """Two mapping keys that check as one label are two kept terms on
        it: they raise rather than store one amplitude under the norm of
        both.  A copy below the drop threshold stores nothing."""
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with pytest.raises(StateValidationError, match=r"^label \(1, 0\) repeats$"):
            PureState(layout, {(1, 0): 0.6, (_Occupation(1), 0): 0.8})
        state = PureState(layout, {(1, 0): 1.0, (_Occupation(1), 0): 1e-16})
        assert dict(state.amplitudes) == {(1, 0): 1.0}

    @pytest.mark.parametrize("labels", [
        [(0.5, 1), (1.9, 0)],    # int() would store (0, 1) and (1, 0)
        [(1, 0), (1.0, 0.4)],    # int() would merge both into (1, 0)
        [(1.0, 0), (0, 1)],      # an integral float is no integer either
    ])
    def test_non_integral_occupations_rejected(self, labels):
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with pytest.raises(StateValidationError, match="is not an integer"):
            PureState(layout, dict(zip(labels, [0.6, 0.8])))
        with pytest.raises(StateValidationError, match="is not an integer"):
            DensityOperator(layout, sorted(labels), np.diag([0.6, 0.4]))


class TestPartialTrace:
    def test_product_state_gives_pure_projector(self):
        state = PureState(layout_of(ModeDescriptor("a", "A", "field", 1),
                                    ModeDescriptor("b", "B", "field", 1)),
                          {(1, 0): 1.0})
        rho = partial_trace(state, {"a"})
        assert rho.basis == [(1,)]
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-15)

    def test_shared_pair_maximally_mixed(self):
        rho = partial_trace(shared_single(), {"a"})
        assert rho.basis == [(0,), (1,)]
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self, rng):
        state = random_two_site_state(rng, 3)
        rho = partial_trace(state, {"a0", "a1"})
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(LayoutError):
            partial_trace(shared_single(), {"nope"})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bucket_oracle(self, data):
        state = data.draw(transfer_inputs())
        keep = data.draw(st.sets(st.sampled_from(state.layout.ids())))
        rho = partial_trace(state, keep)
        oracle = partial_trace_oracle(state, keep)
        assert rho.basis == oracle.basis
        assert rho.layout.ids() == oracle.layout.ids()
        np.testing.assert_allclose(rho.matrix, oracle.matrix, rtol=0.0, atol=1e-12)


class TestVonNeumannEntropy:
    def test_pure_projector_zero(self):
        assert von_neumann_entropy(diag_operator([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_one_bit(self):
        assert von_neumann_entropy(diag_operator([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_biased_mixture(self):
        assert von_neumann_entropy(diag_operator([0.9, 0.1])) == pytest.approx(
            ENTROPY_09_01, abs=1e-12)

    def test_unitary_invariance(self, rng):
        probs = rng.rand(4)
        probs /= probs.sum()
        layout = one_mode(cap=3)
        basis = [(n,) for n in range(4)]
        rho = np.diag(probs.astype(complex))
        s0 = von_neumann_entropy(DensityOperator(layout, basis, rho))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.randn(4, 4) + 1j * rng.randn(4, 4))
            conj = q @ rho @ q.conj().T
            conj = (conj + conj.conj().T) / 2
            s1 = von_neumann_entropy(DensityOperator(layout, basis, conj))
            assert s1 == pytest.approx(s0, abs=1e-9)


class TestEntropyOfEntanglement:
    def test_product_state_zero(self):
        state = PureState(layout_of(ModeDescriptor("a", "A", "field", 1),
                                    ModeDescriptor("b", "B", "field", 1)),
                          {(1, 0): 1.0})
        assert entropy_of_entanglement(state) == pytest.approx(0.0, abs=1e-12)

    def test_shared_pair_one_ebit(self):
        assert entropy_of_entanglement(shared_single()) == pytest.approx(1.0, abs=1e-12)

    def test_register_bell_pair_one_ebit(self):
        modes = (ModeDescriptor("ra1", "A", "register", 1),
                 ModeDescriptor("ra2", "A", "register", 1),
                 ModeDescriptor("rb1", "B", "register", 1),
                 ModeDescriptor("rb2", "B", "register", 1))
        bell = PureState(layout_of(*modes),
                         {(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): 2 ** -0.5})
        assert entropy_of_entanglement(bell) == pytest.approx(1.0, abs=1e-12)

    def test_single_site_rejected(self):
        state = PureState(layout_of(ModeDescriptor("a", "A", "field", 1)), {(1,): 1.0})
        with pytest.raises(LayoutError):
            entropy_of_entanglement(state)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(transfer_inputs())
    def test_schmidt_route_matches_reduction(self, state):
        a_ids = [m.id for m in state.layout.modes if m.site == "A"]
        assert entropy_of_entanglement(state) == pytest.approx(
            von_neumann_entropy(partial_trace_oracle(state, a_ids)), abs=1e-12)

    def test_additive_over_products(self, rng):
        for _ in range(5):
            a = random_two_site_state(rng, 2, prefix="x")
            b = random_two_site_state(rng, 1, prefix="y")
            total = entropy_of_entanglement(tensor_product(a, b))
            parts = entropy_of_entanglement(a) + entropy_of_entanglement(b)
            assert total == pytest.approx(parts, abs=1e-9)


class TestTraceDistance:
    def test_identical_zero(self):
        rho = diag_operator([0.5, 0.5])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states_one(self):
        assert trace_distance(diag_operator([1.0, 0.0]),
                              diag_operator([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_half_for_pure_vs_mixed(self):
        assert trace_distance(diag_operator([1.0, 0.0]),
                              diag_operator([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_basis_mismatch_rejected(self):
        rho = diag_operator([0.5, 0.5])
        layout = one_mode(cap=2)
        sigma = DensityOperator(layout, [(0,), (2,)], np.eye(2, dtype=complex) / 2)
        with pytest.raises(StateValidationError):
            trace_distance(rho, sigma)


class TestDensityOperatorInvariants:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError):
            DensityOperator(one_mode(), [(0,), (1,)], mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(StateValidationError):
            DensityOperator(one_mode(), [(0,), (1,)], mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            DensityOperator(one_mode(), [(0,), (1,)], np.eye(2, dtype=complex))

    def test_reduction_always_valid(self, rng):
        # Hermiticity / PSD / trace: exercised by construction on random inputs.
        for particles in (1, 2, 3):
            state = random_two_site_state(rng, particles)
            rho = partial_trace(state, {"b0", "b1"})
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_state_norm_enforced(self):
        with pytest.raises(StateValidationError):
            PureState(one_mode(), {(1,): 0.5})

    def test_rejects_nan_matrix(self):
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityOperator(one_mode(), [(0,), (1,)], np.full((2, 2), np.nan))

    def test_nan_amplitude_rejected(self):
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with pytest.raises(StateValidationError, match="not finite"):
            PureState(layout, {(1, 0): 1.0, (0, 1): float("nan")})

    def test_inf_amplitude_rejected_when_normalizing(self):
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with pytest.raises(StateValidationError, match="not finite"):
            PureState(layout, {(1, 0): 1.0, (0, 1): float("inf")}, normalize=True)

    def test_square_past_largest_float_normalized(self):
        # |1e200|^2 passes the largest float; the norm goes through 1e200.
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = PureState(layout, {(1, 0): 1e200, (0, 1): 1.0}, normalize=True)
            with pytest.raises(StateValidationError, match="deviates from 1"):
                PureState(layout, {(1, 0): 1e200, (0, 1): 1.0})
        assert dict(state.amplitudes) == {(1, 0): 1.0, (0, 1): 1e-200}

    @pytest.mark.parametrize("amps, reason", [
        ({(1, 0): complex(1.5e308, 1.5e308), (0, 1): 1.0}, "passes the largest float"),
        ({(1, 0): float("nan"), (0, 1): 1e200}, "not finite"),
        ({(1, 0): float("inf"), (0, 1): 1e200}, "not finite"),
    ])
    def test_overflowing_amplitude_rejected(self, amps, reason):
        layout = layout_of(ModeDescriptor("a", "A", "field", 1),
                           ModeDescriptor("b", "B", "field", 1))
        with pytest.raises(StateValidationError, match=reason):
            PureState(layout, amps, normalize=True)

    @pytest.mark.parametrize("matrix, reason", [
        ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian: max deviation inf"),
        # Hermitian with eigenvalues 0.5 +- 1e308: its Hermitian part
        # overflowed to inf entries, whose NaN eigenvalues passed the PSD check.
        ([[0.5, 1e308], [1e308, 0.5]], "not PSD"),
    ])
    def test_entries_near_largest_float_rejected_quietly(self, matrix, reason):
        rho = diag_operator([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check_trace in (True, False):
                with pytest.raises(StateValidationError, match=reason):
                    DensityOperator(rho.layout, rho.basis, matrix, check_trace)
            with pytest.raises(StateValidationError, match=reason):
                rho.with_matrix(matrix)

    def test_trace_past_largest_float_rejected_quietly(self):
        # PSD, with a halved diagonal whose sum passes the largest float.
        rho = diag_operator([0.5, 0.3, 0.2])
        matrix = np.diag([1.7e308] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateValidationError, match="trace inf deviates"):
                DensityOperator(rho.layout, rho.basis, matrix)
            with pytest.raises(StateValidationError, match="trace inf deviates"):
                rho.with_matrix(matrix)

    def test_entropy_past_largest_float_raises(self):
        # Accepted without the trace check, but -sum lam log2 lam overflows.
        rho = diag_operator([0.5, 0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unnormalized = DensityOperator(rho.layout, rho.basis, np.diag([1.7e308] * 3),
                                           check_trace=False)
            with pytest.raises(StateValidationError, match="finite entropy"):
                von_neumann_entropy(unnormalized)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["state", "non_hermitian", "indefinite", "off_trace",
                                 "wrong_shape", "nan"]),
           entries=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
           scale=st.floats(0.1, 3.0), at=st.integers(0, 8))
    def test_with_matrix_checks_as_constructor(self, kind, entries, scale, at):
        rho = diag_operator([0.5, 0.3, 0.2])
        a = np.reshape(entries[:9], (3, 3)) + 1j * np.reshape(entries[9:], (3, 3))
        psd = a @ a.conj().T + 0.1 * np.eye(3)
        matrix = psd / np.trace(psd).real
        if kind == "non_hermitian":
            matrix[0, 1] += 0.1
        elif kind == "indefinite":
            matrix = (a + a.conj().T) / 2
            matrix[0, 0] -= 2.0
        elif kind == "off_trace":
            matrix = matrix * scale
        elif kind == "wrong_shape":
            matrix = np.eye(4)[: 3 + at % 2] / 3
        elif kind == "nan":
            matrix.flat[at] = np.nan

        def outcome(build):
            try:
                return build()
            except StateValidationError as exc:
                return str(exc)

        got = outcome(lambda: rho.with_matrix(matrix))
        want = outcome(lambda: DensityOperator(rho.layout, rho.basis, matrix))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.layout == want.layout and got.basis == want.basis
            assert np.array_equal(got.matrix, want.matrix)
            assert [got.index(label) for label in rho.basis] == [0, 1, 2]

    def test_with_matrix_copies_the_basis(self):
        rho = diag_operator([0.5, 0.5])
        out = rho.with_matrix(np.eye(2) / 2)
        assert out.basis == rho.basis and out.basis is not rho.basis
        out.basis.append((2,))
        assert rho.basis == [(0,), (1,)]
