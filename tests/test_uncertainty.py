import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsim.uncertainty
from epsim import (
    LayoutError,
    StateValidationError,
    PhaseOperatorSpace,
    PhysicalityError,
    UncertaintyReport,
    coherent_coefficients,
    robertson_checks,
    visibility,
    visibility_bound_check,
)
from epsim.cli import BOUNDS_BLOCK_ENTRIES
from epsim.uncertainty import (
    SLACK_TOL,
    _moments,
    _sums,
    coherent_pair_state,
    random_uncorrelated_pair,
    visibility_caps,
)
from oracles import (
    dense,
    matrix_sums,
    matrix_sums_per_row,
    pegg_barnett_exponential,
    phase_angles,
    phase_difference_trig,
    phase_states,
    random_uncorrelated_pair_oracle,
    stack_sums,
)
from strategies import (
    amplitude_matrices,
    coherent_pairs,
    factor_pairs,
    frontier_coherent_pairs,
    frontier_pairs,
    near_saturating_pairs,
)


def number_pair_state(na, nb, s):
    """Factors of the number-state product |na>|nb> on s+1 levels."""
    a, b = np.zeros(s + 1, dtype=complex), np.zeros(s + 1, dtype=complex)
    a[na] = b[nb] = 1.0
    return a, b


def stack(pairs):
    """Pairs ``(a, b)`` of one truncation as the factor stacks ``(A, B)``."""
    return tuple(np.stack(factors) for factors in zip(*pairs))


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


# The operators of the latest s only: at s = 40 one set takes 226 MB, and
# hypothesis often draws the same s several times in a row.
_DENSE_PAIR_OPERATORS = {}


def dense_pair_operators(s):
    """The dense operators on the (s+1)^2 pair space, built once per run of
    equal s: E_A^k E_B^{dagger k} for k = 1, 2, cos D, sin D, N_A (x) I and
    I (x) N_B."""
    if s not in _DENSE_PAIR_OPERATORS:
        _DENSE_PAIR_OPERATORS.clear()
        e = pegg_barnett_exponential(s)
        ops = [np.kron(ek, ek.conj().T)
               for ek in (np.linalg.matrix_power(e, k) for k in (1, 2))]
        ops += phase_difference_trig(s)
        number, eye = np.diag(np.arange(s + 1.0)), np.eye(s + 1)
        ops += [np.kron(number, eye), np.kron(eye, number)]
        for op in ops:
            op.setflags(write=False)
        _DENSE_PAIR_OPERATORS[s] = ops
    return _DENSE_PAIR_OPERATORS[s]


class TestShiftRoute:
    """The shift moments against the dense Pegg-Barnett operators: the
    library's factor route, and the amplitude-matrix oracle that the factor
    route is itself checked against (TestFactoredRoute).

    Full-support matrices and unpadded factors put weight on the truncation
    boundary, where the shift wraps around, so the moments run on unchecked
    (non-physical) inputs through ``_moments`` directly.
    """

    @staticmethod
    def assert_dense_moments(sums, psi, product):
        """The moments from ``sums``, a one-row stack of psi or of its
        factors, against the dense operators on psi: the phase moments to
        1e-12, the number
        variances to 1e-12 (s+1)^2, the scale they carry.  ``_moments``
        takes Var(N_A - N_B) = Var(N_A) + Var(N_B), which holds for a
        ``product`` psi only, so only then is it checked."""
        s = psi.shape[0] - 1
        vec = psi.ravel()
        shift1, shift2, cos, sin, n_a_op, n_b_op = dense_pair_operators(s)
        for shift, (x,) in ((shift1, sums.x1), (shift2, sums.x2)):
            assert abs(x - np.vdot(vec, shift @ vec)) <= 1e-12
        cos_vec, sin_vec = cos @ vec, sin @ vec
        cos_mean = np.vdot(vec, cos_vec).real
        sin_mean = np.vdot(vec, sin_vec).real
        (m,) = _moments(sums, PhaseOperatorSpace(s))
        assert m.cos_mean == pytest.approx(cos_mean, abs=1e-12)
        assert m.sin_mean == pytest.approx(sin_mean, abs=1e-12)
        assert m.var_cos == pytest.approx(
            np.vdot(cos_vec, cos_vec).real - cos_mean ** 2, abs=1e-12)
        assert m.var_sin == pytest.approx(
            np.vdot(sin_vec, sin_vec).real - sin_mean ** 2, abs=1e-12)
        n_a_vec, n_b_vec = n_a_op @ vec, n_b_op @ vec
        pairs = [(m.var_n_a, n_a_vec), (m.var_n_b, n_b_vec)]
        if product:
            pairs.append((m.var_n_diff, n_a_vec - n_b_vec))
        for got, op_vec in pairs:
            mean = np.vdot(vec, op_vec).real
            want = np.vdot(op_vec, op_vec).real - mean ** 2
            assert got == pytest.approx(want, abs=1e-12 * (s + 1) ** 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(psi=amplitude_matrices(max_s=40))
    def test_shift_moments_equal_dense_oracle(self, psi):
        self.assert_dense_moments(stack_sums([matrix_sums(psi)]), psi, product=False)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(factors=factor_pairs(max_s=40))
    def test_factor_moments_equal_dense_oracle(self, factors):
        self.assert_dense_moments(_sums(*(f[None] for f in factors)), np.outer(*factors),
                                  product=True)


def _checked(check, state, space):
    """The check's report, or None when it rejects the state as unphysical."""
    try:
        return check(state, space)
    except PhysicalityError:
        return None


class TestFactoredRoute:
    """Factors ``(a, b)`` against the amplitude-matrix oracle on
    ``np.outer(a, b)``, run through the same validation, moments and checks
    by putting ``matrix_sums``, applied to each row of a stack, in place of
    the library's ``_sums``: on the pair alone and on a stack of the pair
    and its swap ``(b, a)``.

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

        rows = stack([factors, factors[::-1]])
        for check in (robertson_checks, visibility_bound_check):
            factored = [_checked(check, factors, space), *check(rows, space)]
            with mock.patch.object(epsim.uncertainty, "_sums", matrix_sums_per_row):
                dense = [_checked(check, factors, space), *check(rows, space)]
            assert len(factored) == len(dense) == 3
            for got, want in zip(factored, dense):
                assert (got is None) == (want is None)
                if got is None:
                    continue
                for field in self.FIELDS:
                    scale = number_scale if field.startswith("var_n") else 1.0
                    assert close(getattr(got, field), getattr(want, field), scale), field
                assert [c.name for c in got.checks] == [c.name for c in want.checks]
                lhs_scale = number_scale if check is robertson_checks else 1.0
                for gc, wc in zip(got.checks, want.checks):
                    assert close(gc.lhs, wc.lhs, lhs_scale), gc.name
                    assert close(gc.rhs, wc.rhs, 1.0), gc.name


class TestRobertsonChecks:
    def test_number_state_product_trivial(self):
        space = PhaseOperatorSpace(32)
        report = robertson_checks(number_pair_state(3, 5, 32), space)
        assert report.cos_mean == pytest.approx(0.0, abs=1e-12)
        assert report.sin_mean == pytest.approx(0.0, abs=1e-12)
        assert all(c.holds for c in report.checks)

    def test_coherent_pair_s256(self):
        space = PhaseOperatorSpace(256)
        state = coherent_pair_state(25.0, 25.0, space)
        report = robertson_checks(state, space)
        assert all(c.holds for c in report.checks)
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
        assert all(c.holds for c in report.checks)

    def test_coherent_pair_25_250(self):
        space = PhaseOperatorSpace(440)
        state = coherent_pair_state(25.0, 250.0, space)
        report = visibility_bound_check(state, space)
        checks = {c.name: c for c in report.checks}
        assert checks["C2_A"].lhs == pytest.approx(100.0 / 101.0, abs=1e-12)
        assert checks["C2_A"].slack >= -1e-9
        assert checks["C1"].slack >= -1e-9

    def test_coherent_states_approach_single_site_cap(self):
        # Transported nbar=100 against a 4x larger local reference: the
        # single-site cap on the transported mode is tight to within 30%.
        space = PhaseOperatorSpace(672)
        state = coherent_pair_state(100.0, 400.0, space)
        report = visibility_bound_check(state, space)
        (c2a,) = [c for c in report.checks if c.name == "C2_A"]
        rel_slack = (c2a.lhs - c2a.rhs) / (1.0 - c2a.rhs)
        assert 0.0 <= rel_slack <= 0.30


class TestVisibilityCaps:
    """The caps taken from a ``robertson_checks`` report, as ``bounds``
    takes them, equal a second pass over the state exactly."""

    @staticmethod
    def assert_caps_of_report_equal_check(state, space):
        report = _checked(robertson_checks, state, space)
        caps = _checked(visibility_bound_check, state, space)
        assert (report is None) == (caps is None)
        if report is not None:
            assert visibility_caps(report) == caps

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(factors=factor_pairs(max_s=64))
    def test_factor_pairs(self, factors):
        space = PhaseOperatorSpace(factors[0].size - 1)
        self.assert_caps_of_report_equal_check(factors, space)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pair=coherent_pairs())
    def test_coherent_pairs(self, pair):
        space, state = pair
        self.assert_caps_of_report_equal_check(state, space)


def assert_same_bits(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestRandomUncorrelatedPair:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(s=st.integers(16, 2048), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_draw_equals_four_calls(self, s, seed):
        # Two pairs in a row, so the generators must also be left in the
        # same state.
        space = PhaseOperatorSpace(s)
        rng, ref = np.random.RandomState(seed), np.random.RandomState(seed)
        for _ in range(2):
            got = random_uncorrelated_pair(space, rng)
            want = random_uncorrelated_pair_oracle(space, ref)
            for g, w in zip(got, want):
                assert_same_bits(g, w)

    @pytest.mark.parametrize("s", [16, 63, 2048])
    @pytest.mark.parametrize("count", ["one", "three", "two bounds blocks"])
    def test_block_equals_sequential_draws(self, s, count):
        # Row i of a block is the i-th pair of the sequential oracle stream,
        # and the block leaves the generator where the sequence does: a
        # single draw after it still agrees.
        space = PhaseOperatorSpace(s)
        k = {"one": 1, "three": 3,
             "two bounds blocks": BOUNDS_BLOCK_ENTRIES // space.dim + 1}[count]
        rng, ref = np.random.RandomState(s), np.random.RandomState(s)
        stacks = random_uncorrelated_pair(space, rng, k)
        for got in stacks:
            assert got.shape == (k, space.dim)
        for row in range(k):
            want = random_uncorrelated_pair_oracle(space, ref)
            for got, w in zip(stacks, want):
                assert_same_bits(got[row], w)
        for got, w in zip(random_uncorrelated_pair(space, rng),
                          random_uncorrelated_pair_oracle(space, ref)):
            assert_same_bits(got, w)


class TestStackedKernel:
    """A stack is reduced in one pass, and each row's report equals the
    report of that row alone, field for field: the random rows of
    ``bounds``, a coherent pair, number states and an unphysical row, whose
    entry is None where the row alone raises ``PhysicalityError``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=st.integers(16, 512), seed=st.integers(0, 2 ** 32 - 1),
           count=st.integers(1, 5), extra=st.permutations(range(4)))
    def test_rows_equal_single_reports(self, s, seed, count, extra):
        space = PhaseOperatorSpace(s)
        a, b = random_uncorrelated_pair(space, np.random.RandomState(seed), count)
        pairs = list(zip(a, b))
        others = [coherent_pair_state(1.0, s / 16.0, space), number_pair_state(0, s // 2, s),
                  number_pair_state(s, 0, s), number_pair_state(1, s, s)]
        for index in extra[:seed % 5]:
            pairs.insert(index % (len(pairs) + 1), others[index])
        for check in (robertson_checks, visibility_bound_check):
            reports = check(stack(pairs), space)
            assert len(reports) == len(pairs)
            for pair, report in zip(pairs, reports):
                alone = _checked(check, pair, space)
                assert report == alone
                assert report is None or type(report) is UncertaintyReport

    def test_bad_norm_row_rejects_the_stack(self):
        space = PhaseOperatorSpace(32)
        rows = [number_pair_state(2, 7, 32), number_pair_state(3, 3, 32)]
        rows[1][0][3] = 2.0
        with pytest.raises(StateValidationError, match="state norm"):
            robertson_checks(stack(rows), space)


def _check_rows(pairs_on_space, property_of_row):
    """``property_of_row(rob, caps)`` on each row's Robertson and cap
    reports, taken through each pair alone and through the stack of all."""
    space, pairs = pairs_on_space
    stacked_rob, stacked_caps = (check(stack(pairs), space)
                                 for check in (robertson_checks, visibility_bound_check))
    for pair, rob, caps in zip(pairs, stacked_rob, stacked_caps):
        property_of_row(robertson_checks(pair, space), visibility_bound_check(pair, space))
        property_of_row(rob, caps)


def _every_check_holds(rob, caps):
    for report in (rob, caps):
        for check in report.checks:
            assert check.slack >= SLACK_TOL, check
    assert abs(rob.trig_identity_residual) <= 1e-9


class TestFrontierStates:
    """Inequality checks that can fail: the frontier family of
    ``tests/strategies.py``, minimum-uncertainty number-phase states whose
    |<E>|^2 lies close to the caps for their Var N.  Each property runs
    through each pair alone and through a stack of the rows."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pairs=frontier_pairs())
    def test_frontier_pairs_hold(self, pairs):
        _check_rows(pairs, _every_check_holds)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pairs=frontier_coherent_pairs())
    def test_frontier_coherent_pairs_hold(self, pairs):
        _check_rows(pairs, _every_check_holds)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(pairs=near_saturating_pairs())
    def test_c2_cap_nearly_saturated(self, pairs):
        # A cap of 3V/(1 + 3V) in place of 4V/(1 + 4V) fails this family:
        # at Var N_A = 4.94 its C2_A slack is about -1.3e-2.
        def nearly_saturated(rob, caps):
            assert rob.var_n_a >= 3.0 and rob.var_n_b >= 300.0, rob
            _every_check_holds(rob, caps)
            (c2a,) = [c for c in caps.checks if c.name == "C2_A"]
            assert c2a.slack < 5e-3, c2a

        _check_rows(pairs, nearly_saturated)


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
    (32, (np.outer(_vector(32), _vector(32)), _vector(32))),
    (32, (np.zeros((2, 33)), np.zeros((3, 33)))),
    (32, (np.zeros((1, 1, 33)), np.zeros((1, 1, 33)))),
    (32, (np.zeros((2, 34)), np.zeros((2, 34)))),
], ids=["matrix-s1-entangled", "matrix-s1-product", "matrix-s32", "3-tuple",
        "1-tuple", "list-pair", "column-factor", "row-factor", "stack-and-vector",
        "unequal-stacks", "3d-stacks", "stack-rows-off-s"])
def test_non_factor_input_rejected(check, s, state):
    with pytest.raises(LayoutError):
        check(state, PhaseOperatorSpace(s))


@pytest.mark.parametrize("check", [robertson_checks, visibility_bound_check])
def test_nan_factor_rejected(check):
    """A NaN entry makes the norm NaN, which fails the norm check instead of
    reaching the moments."""
    space = PhaseOperatorSpace(32)
    a, b = number_pair_state(2, 7, 32)
    a[3] = math.nan
    with pytest.raises(StateValidationError, match="state norm nan"):
        check((a, b), space)
