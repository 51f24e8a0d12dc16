import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import epsim.uncertainty
from epsim import (
    LayoutError,
    PhaseOperatorSpace,
    PhysicalityError,
    coherent_coefficients,
    robertson_checks,
    visibility,
    visibility_bound_check,
)
from epsim.uncertainty import (
    _moments,
    _sums,
    coherent_pair_state,
    random_uncorrelated_pair,
)
from oracles import (
    dense,
    matrix_sums,
    pegg_barnett_exponential,
    phase_angles,
    phase_difference_trig,
    phase_states,
)
from strategies import amplitude_matrices, factor_pairs


def number_pair_state(na, nb, s):
    """Factors of the number-state product |na>|nb> on s+1 levels."""
    a, b = np.zeros(s + 1, dtype=complex), np.zeros(s + 1, dtype=complex)
    a[na] = b[nb] = 1.0
    return a, b


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
        vec = np.kron(dense(spec), dense(spec))
        comm = n_a @ cos - cos @ n_a
        lhs = np.vdot(vec, comm @ vec)
        rhs = -1j * np.vdot(vec, np.kron(np.eye(s + 1), np.eye(s + 1)) @ (sin @ vec))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestShiftRoute:
    """The np.roll moments against the dense Pegg-Barnett operators: the
    library's factor route, and the amplitude-matrix oracle that the factor
    route is itself checked against (TestFactoredRoute).

    Full-support matrices and unpadded factors put weight on the truncation
    boundary, where the shift wraps around, so the moments run on unchecked
    (non-physical) inputs through ``_moments`` directly.
    """

    @staticmethod
    def assert_dense_moments(sums, psi):
        """The moments from ``sums`` (of psi or of its factors) against the
        dense operators on psi: the phase moments to 1e-12, the number
        variances to 1e-12 (s+1)^2, the scale they carry."""
        s = psi.shape[0] - 1
        vec = psi.ravel()
        e = pegg_barnett_exponential(s)
        for k, x in ((1, sums.x1), (2, sums.x2)):
            ek = np.linalg.matrix_power(e, k)
            dense = np.vdot(vec, np.kron(ek, ek.conj().T) @ vec)
            assert abs(x - dense) <= 1e-12
        cos, sin = phase_difference_trig(s)
        cos_vec, sin_vec = cos @ vec, sin @ vec
        cos_mean = np.vdot(vec, cos_vec).real
        sin_mean = np.vdot(vec, sin_vec).real
        m = _moments(sums, PhaseOperatorSpace(s))
        assert m.cos_mean == pytest.approx(cos_mean, abs=1e-12)
        assert m.sin_mean == pytest.approx(sin_mean, abs=1e-12)
        assert m.var_cos == pytest.approx(
            np.vdot(cos_vec, cos_vec).real - cos_mean ** 2, abs=1e-12)
        assert m.var_sin == pytest.approx(
            np.vdot(sin_vec, sin_vec).real - sin_mean ** 2, abs=1e-12)
        number, eye = np.diag(np.arange(s + 1.0)), np.eye(s + 1)
        n_a_vec = np.kron(number, eye) @ vec
        n_b_vec = np.kron(eye, number) @ vec
        for got, op_vec in ((m.var_n_a, n_a_vec), (m.var_n_b, n_b_vec),
                            (m.var_n_diff, n_a_vec - n_b_vec)):
            mean = np.vdot(vec, op_vec).real
            want = np.vdot(op_vec, op_vec).real - mean ** 2
            assert got == pytest.approx(want, abs=1e-12 * (s + 1) ** 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(psi=amplitude_matrices(max_s=40))
    def test_shift_moments_equal_dense_oracle(self, psi):
        self.assert_dense_moments(matrix_sums(psi), psi)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(factors=factor_pairs(max_s=40))
    def test_factor_moments_equal_dense_oracle(self, factors):
        self.assert_dense_moments(_sums(*factors), np.outer(*factors))


def _checked(check, state, space):
    """The check's report, or None when it rejects the state as unphysical."""
    try:
        return check(state, space)
    except PhysicalityError:
        return None


class TestFactoredRoute:
    """Factors ``(a, b)`` against the amplitude-matrix oracle on
    ``np.outer(a, b)``, run through the same validation, moments and checks
    by putting ``matrix_sums`` in place of the library's ``_sums``.

    Values agree to 1e-12 relative to their natural scale: (s+1)^2 for the
    number variances and the Robertson left sides, which carry one, and 1
    for phase moments, visibilities and caps.
    """

    FIELDS = ("var_n_a", "var_n_b", "var_n_diff", "cos_mean", "sin_mean",
              "var_cos", "var_sin", "visibility_sq", "trig_identity_residual")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(factors=factor_pairs(max_s=64))
    def test_reports_equal_matrix_route(self, factors):
        s = factors[0].size - 1
        space = PhaseOperatorSpace(s)
        number_scale = float((s + 1) ** 2)

        def close(got, want, scale):
            return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)

        for check in (robertson_checks, visibility_bound_check):
            factored = _checked(check, factors, space)
            with mock.patch.object(epsim.uncertainty, "_sums",
                                   lambda a, b: matrix_sums(np.outer(a, b))):
                dense = _checked(check, factors, space)
            assert (factored is None) == (dense is None)
            if factored is None:
                continue
            for field in self.FIELDS:
                scale = number_scale if field.startswith("var_n") else 1.0
                assert close(getattr(factored, field), getattr(dense, field), scale), field
            assert [c.name for c in factored.checks] == [c.name for c in dense.checks]
            lhs_scale = number_scale if check is robertson_checks else 1.0
            for fc, dc in zip(factored.checks, dense.checks):
                assert close(fc.lhs, dc.lhs, lhs_scale), fc.name
                assert close(fc.rhs, dc.rhs, 1.0), fc.name


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
        space = PhaseOperatorSpace(s)
        for state in (number_pair_state(s, 0, s), number_pair_state(0, s, s)):
            with pytest.raises(PhysicalityError):
                robertson_checks(state, space)


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

    def test_coherent_states_approach_single_site_cap(self):
        # Transported nbar=100 against a 4x larger local reference: the
        # single-site cap on the transported mode is tight to within 30%.
        space = PhaseOperatorSpace(672)
        state = coherent_pair_state(100.0, 400.0, space)
        report = visibility_bound_check(state, space)
        c2a = report.check("C2_A")
        rel_slack = (c2a.lhs - c2a.rhs) / (1.0 - c2a.rhs)
        assert 0.0 <= rel_slack <= 0.30


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


def _vector(s, n=0):
    """The number state |n> on s+1 levels as a factor vector."""
    vec = np.zeros(s + 1, dtype=complex)
    vec[n] = 1.0
    return vec


@pytest.mark.parametrize("check", [robertson_checks, visibility_bound_check])
@pytest.mark.parametrize("s,state", [
    (1, np.eye(2) / 2 ** 0.5),
    (1, np.array([[1.0, 0.0], [0.0, 0.0]])),
    (32, np.outer(_vector(32), _vector(32))),
    (32, (_vector(32), _vector(32), _vector(32))),
    (32, (_vector(32),)),
    (32, [_vector(32), _vector(32)]),
    (32, (_vector(32)[:, None], _vector(32))),
    (32, (_vector(32), _vector(32)[None, :])),
    (32, (np.outer(_vector(32), _vector(32)), np.outer(_vector(32), _vector(32)))),
], ids=["matrix-s1-entangled", "matrix-s1-product", "matrix-s32", "3-tuple",
        "1-tuple", "list-pair", "column-factor", "row-factor", "matrix-factors"])
def test_non_factor_input_rejected(check, s, state):
    with pytest.raises(LayoutError):
        check(state, PhaseOperatorSpace(s))
