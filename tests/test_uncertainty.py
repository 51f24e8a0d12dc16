import math

import numpy as np
import pytest
from hypothesis import given, settings

from epsim import (
    PhaseOperatorSpace,
    PhysicalityError,
    coherent_coefficients,
    optimum_condition,
    robertson_checks,
    visibility,
    visibility_bound_check,
)
from epsim.uncertainty import (
    _Moments,
    _shift_expectation,
    coherent_pair_state,
    is_product_state,
    random_uncorrelated_pair,
)
from oracles import (
    pegg_barnett_exponential,
    phase_angles,
    phase_difference_trig,
    phase_states,
    product_state_svd,
)
from strategies import amplitude_matrices, perturbed_products


def number_pair_state(na, nb, s):
    psi = np.zeros((s + 1, s + 1), dtype=complex)
    psi[na, nb] = 1.0
    return psi


class TestPeggBarnettExponential:
    def test_unitary(self):
        u = pegg_barnett_exponential(16, 0.3)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(17), atol=1e-12)

    def test_eigenvalues_are_phase_points(self):
        s, theta0 = 12, 0.7
        u = pegg_barnett_exponential(s, theta0)
        expected = np.exp(1j * (theta0 + 2 * np.pi * np.arange(s + 1) / (s + 1)))
        got = np.sort_complex(np.linalg.eigvals(u))
        np.testing.assert_allclose(got, np.sort_complex(expected), atol=1e-10)

    def test_number_basis_action_is_lowering_shift(self):
        s, theta0 = 9, 1.1
        u = pegg_barnett_exponential(s, theta0)
        shift = np.zeros((s + 1, s + 1), dtype=complex)
        for n in range(1, s + 1):
            shift[n - 1, n] = 1.0
        shift[s, 0] = np.exp(1j * (s + 1) * theta0)
        np.testing.assert_allclose(u, shift, atol=1e-12)

    def test_phase_states_orthonormal(self):
        v = phase_states(20, 0.4)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(21), atol=1e-12)


class TestPhaseDifferenceTrig:
    def test_hermitian(self):
        cos, sin = phase_difference_trig(8)
        np.testing.assert_allclose(cos, cos.conj().T, atol=1e-12)
        np.testing.assert_allclose(sin, sin.conj().T, atol=1e-12)

    def test_diagonal_on_phase_state_products(self):
        s, theta0 = 6, 0.2
        cos, _ = phase_difference_trig(s, theta0)
        v = phase_states(s, theta0)
        angles = phase_angles(s, theta0)
        for m in (0, 2, 5):
            for k in (1, 3):
                vec = np.kron(v[:, m], v[:, k])
                out = cos @ vec
                expected = math.cos(angles[m] - angles[k])
                np.testing.assert_allclose(out, expected * vec, atol=1e-12)

    def test_cos2_plus_sin2_bounded(self):
        cos, sin = phase_difference_trig(7)
        evals = np.linalg.eigvalsh(cos @ cos + sin @ sin)
        assert evals.max() <= 1.0 + 1e-10

    def test_number_commutator_on_physical_state(self):
        s = 24
        cos, sin = phase_difference_trig(s)
        n_a = np.kron(np.diag(np.arange(s + 1.0)), np.eye(s + 1))
        spec = coherent_coefficients(3.0, s)
        vec = np.kron(spec.coefficients, spec.coefficients)
        comm = n_a @ cos - cos @ n_a
        lhs = np.vdot(vec, comm @ vec)
        rhs = -1j * np.vdot(vec, np.kron(np.eye(s + 1), np.eye(s + 1)) @ (sin @ vec))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestShiftRoute:
    """The library's np.roll moments against the dense Pegg-Barnett operators.

    Full-support matrices put weight on the truncation boundary, where the
    shift wraps around, so the moments run on unchecked (non-physical)
    inputs through ``_Moments`` directly.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(psi=amplitude_matrices(max_s=40))
    def test_shift_moments_equal_dense_oracle(self, psi):
        s = psi.shape[0] - 1
        vec = psi.ravel()
        e = pegg_barnett_exponential(s)
        for k in (1, 2):
            ek = np.linalg.matrix_power(e, k)
            dense = np.vdot(vec, np.kron(ek, ek.conj().T) @ vec)
            assert abs(_shift_expectation(psi, k) - dense) <= 1e-12
        cos, sin = phase_difference_trig(s)
        cos_vec, sin_vec = cos @ vec, sin @ vec
        cos_mean = np.vdot(vec, cos_vec).real
        sin_mean = np.vdot(vec, sin_vec).real
        m = _Moments(psi, PhaseOperatorSpace(s))
        assert m.cos_mean == pytest.approx(cos_mean, abs=1e-12)
        assert m.sin_mean == pytest.approx(sin_mean, abs=1e-12)
        assert m.var_cos == pytest.approx(
            np.vdot(cos_vec, cos_vec).real - cos_mean ** 2, abs=1e-12)
        assert m.var_sin == pytest.approx(
            np.vdot(sin_vec, sin_vec).real - sin_mean ** 2, abs=1e-12)


class TestProductState:
    """The cross-residual rank test against the singular-value oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(psi=perturbed_products(max_s=40))
    def test_rank_one_test_equals_svd_oracle(self, psi):
        assert is_product_state(psi) == product_state_svd(psi)


class TestRobertsonChecks:
    def test_number_state_product_trivial(self):
        space = PhaseOperatorSpace(32)
        report = robertson_checks(number_pair_state(3, 5, 32), space)
        assert report.cos_mean == pytest.approx(0.0, abs=1e-12)
        assert report.sin_mean == pytest.approx(0.0, abs=1e-12)
        assert report.all_hold

    def test_coherent_pair_s256(self):
        space = PhaseOperatorSpace(256)
        state = coherent_pair_state(25.0, 25.0, space)
        report = robertson_checks(state, space)
        assert report.all_hold
        assert abs(report.trig_identity_residual) < 1e-9

    def test_random_sweep_no_violations(self):
        space = PhaseOperatorSpace(64)
        for seed in range(100):
            rng = np.random.RandomState(7000 + seed)
            state = random_uncorrelated_pair(space, rng)
            report = robertson_checks(state, space)
            assert report.min_slack >= -1e-9
            assert abs(report.trig_identity_residual) < 1e-9

    def test_variance_additivity_for_products(self):
        space = PhaseOperatorSpace(64)
        rng = np.random.RandomState(11)
        state = random_uncorrelated_pair(space, rng)
        report = robertson_checks(state, space)
        assert report.var_n_diff == pytest.approx(
            report.var_n_a + report.var_n_b, abs=1e-10)

    def test_nonphysical_rejected(self):
        s = 32
        state = number_pair_state(s, 0, s)
        with pytest.raises(PhysicalityError):
            robertson_checks(state, PhaseOperatorSpace(s))


class TestVisibilityBoundCheck:
    def test_number_product_zero_visibility(self):
        space = PhaseOperatorSpace(32)
        report = visibility_bound_check(number_pair_state(2, 7, 32), space)
        assert report.visibility_sq == pytest.approx(0.0, abs=1e-12)
        assert report.all_hold

    def test_coherent_pair_25_250(self):
        space = PhaseOperatorSpace(440)
        state = coherent_pair_state(25.0, 250.0, space)
        report = visibility_bound_check(state, space)
        c2a = report.check("C2_A")
        assert c2a.lhs == pytest.approx(100.0 / 101.0, abs=1e-12)
        assert c2a.slack >= -1e-9
        assert report.check("C1").slack >= -1e-9
        assert not report.check("C1").skipped

    def test_correlated_input_skips_c1(self):
        s = 32
        state = np.zeros((s + 1, s + 1))
        state[0, 1] = state[1, 0] = 2 ** -0.5
        report = visibility_bound_check(state, PhaseOperatorSpace(s))
        assert report.check("C1").skipped
        assert report.check("C2_A").slack >= -1e-9

    def test_coherent_states_approach_single_site_cap(self):
        # Transported nbar=100 against a 4x larger local reference: the
        # single-site cap on the transported mode is tight to within 30%.
        space = PhaseOperatorSpace(672)
        state = coherent_pair_state(100.0, 400.0, space)
        report = visibility_bound_check(state, space)
        c2a = report.check("C2_A")
        rel_slack = (c2a.lhs - c2a.rhs) / (1.0 - c2a.rhs)
        assert 0.0 <= rel_slack <= 0.30


class TestOptimumCondition:
    def test_threshold_holds(self):
        assert optimum_condition(1.0, 3.0) is True

    def test_below_threshold(self):
        assert optimum_condition(1.0, 2.9) is False

    def test_degenerate_boundary(self):
        assert optimum_condition(0.0, 0.0) is True

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            optimum_condition(-1.0, 1.0)


class TestCrossModuleVisibility:
    def test_operator_expectation_matches_distribution_route(self):
        s = 64
        space = PhaseOperatorSpace(s)
        spec_a = coherent_coefficients(9.0, s)
        spec_b = coherent_coefficients(16.0, s)
        state = coherent_pair_state(9.0, 16.0, space)
        report = robertson_checks(state, space)
        c_dist = visibility(spec_a, spec_b)
        assert report.visibility_sq == pytest.approx(abs(c_dist) ** 2, abs=1e-8)

