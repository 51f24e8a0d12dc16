import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epsim import (
    AncillaSpec,
    DensityOperator,
    GridError,
    LayoutError,
    ModeDescriptor,
    PhaseDistribution,
    ProtocolConfig,
    PureState,
    StateValidationError,
    apply_phase_difference_povm,
    canonical_phase_distribution,
    coherent_coefficients,
    coherent_visibility_model,
    concurrence_ef_oracle,
    ef_large_visibility,
    ef_upper_bound,
    entanglement_of_formation_x,
    layout_of,
    mode_overlap_integral,
    post_measurement_register_state,
    reference_phase_shift,
    run_transfer,
    transfer_final_state,
    visibility,
)
import epsim.phase as phase
from epsim.phase import _povm_plan, binary_entropy, two_qubit_concurrence
from epsim.statefile import load_state
from conftest import data_path, outcome, shared_double, shared_single
from oracles import (
    moment_list,
    phase_density_check_oracle,
    phase_difference_povm_oracle,
    povm_identity_residual,
    resolution_kernel,
)
from strategies import ancilla_specs, random_ancillas, transfer_inputs

# h(0.9), 40-digit arithmetic: EF at |C| = 0.6 where p = 0.9.
EF_AT_06 = 0.46899559358928122125
# e^{-1/400}, 40-digit arithmetic.
MODEL_AT_100 = 0.99750312239746012404
# 1 - 1/(100 ln 2), 40-digit arithmetic.
BOUND_AT_25 = 0.98557304959111036593


def coherent_pair_specs(ntr, amp_scale=10.0):
    m_tr = math.ceil(ntr + 10.0 * math.sqrt(ntr))
    nbar_local = amp_scale ** 2 * ntr
    m_local = math.ceil(nbar_local + 10.0 * math.sqrt(nbar_local))
    return coherent_coefficients(ntr, m_tr), coherent_coefficients(nbar_local, m_local)


def shared_grid_visibility(spec_a, spec_b, varphi, K):
    """The quadrature visibility e^{i varphi} conj(q_A) q_B with both
    canonical densities on one K-point grid."""
    pa, pb = (canonical_phase_distribution(spec, K) for spec in (spec_a, spec_b))
    return np.exp(1j * varphi) * np.conj(pa.grid_moment(1)) * pb.grid_moment(1)


# Values the one-pass density checks must reject, or accept, as the
# multi-pass ones did: non-finite values, negatives below and above the
# -1e-12 floor, a zero, and a huge value (two of them overflow the sum).
DENSITY_SPECIALS = (math.nan, math.inf, -math.inf, -0.5, -1e-11, -1e-13, 0.0, 1e308)


@st.composite
def density_values(draw):
    """A canonical density's grid values, unchanged or with one to three
    values replaced by ``DENSITY_SPECIALS``."""
    spec = draw(ancilla_specs())
    K = 2 * spec.coefficients.size + 1 + draw(st.integers(0, 4))
    values = canonical_phase_distribution(spec, K).values.copy()
    for _ in range(draw(st.integers(0, 3))):
        values[draw(st.integers(0, K - 1))] = draw(st.sampled_from(DENSITY_SPECIALS))
    return values


class TestCanonicalPhaseDistribution:
    def test_number_state_uniform(self):
        spec = AncillaSpec(6, [1.0], lo=3)
        dist = canonical_phase_distribution(spec, 2 * 6 + 3)
        np.testing.assert_allclose(dist.values, 1.0 / (2 * np.pi), atol=1e-14)

    def test_normalized(self):
        spec = coherent_coefficients(9.0, 40)
        dist = canonical_phase_distribution(spec, 257)
        total = 2 * np.pi / dist.grid_size * dist.values.sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_small(self):
        spec = coherent_coefficients(9.0, 40)
        with pytest.raises(Exception):
            canonical_phase_distribution(spec, 50)

    def test_nan_density_rejected(self):
        with pytest.raises(StateValidationError, match="non-finite"):
            PhaseDistribution(np.full(8, np.nan), 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(values=np.array([math.inf, -math.inf, 0.1]))
    @example(values=np.array([-1.0, math.inf, 0.1]))
    @example(values=np.array([math.nan, -1.0, 0.1]))
    @example(values=np.array([1e308, 1e308, 0.1]))
    @example(values=np.full(4, 2.0 / math.pi))
    @given(values=density_values())
    def test_one_pass_checks_equal_multi_pass_oracle(self, values):
        # Same acceptance, or same exception type and message, under an
        # "error" warning filter: +inf beside -inf is never summed, and two
        # 1e308 values overflow the integral in both (a RuntimeWarning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = outcome(phase_density_check_oracle, values)
            got = outcome(PhaseDistribution, values, 0)
        if expected[0] == "ok":
            assert got[0] == "ok" and got[1].values.tobytes() == values.tobytes()
        else:
            assert got == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=random_ancillas(64), power_of_two=st.booleans(),
           doublings=st.integers(0, 2), pad=st.integers(0, 40))
    def test_fft_moments_equal_moment_list(self, spec, power_of_two, doublings, pad):
        bound = 2 * spec.M + 3
        K = (1 << (bound - 1).bit_length() + doublings) if power_of_two else bound + 2 * pad
        dist = canonical_phase_distribution(spec, K)
        np.testing.assert_allclose(dist.moments, moment_list(spec), rtol=0.0, atol=1e-12)


class TestResolutionKernel:
    def test_uniform_stays_uniform(self):
        spec = AncillaSpec(5, [1.0], lo=2)
        dist = canonical_phase_distribution(spec, 13)
        kernel = resolution_kernel(dist, dist, 0.4)
        np.testing.assert_allclose(kernel.values, 1.0 / (2 * np.pi), atol=1e-13)

    def test_normalization_preserved(self):
        pa = canonical_phase_distribution(coherent_coefficients(6.0, 32), 257)
        pb = canonical_phase_distribution(coherent_coefficients(4.0, 25), 257)
        kernel = resolution_kernel(pa, pb, 1.1)
        total = 2 * np.pi / kernel.grid_size * kernel.values.sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_convolution_theorem(self):
        # Grid moments of the correlation equal the products of the input
        # moments (with the varphi phase ramp).
        pa = canonical_phase_distribution(coherent_coefficients(6.0, 32), 257)
        pb = canonical_phase_distribution(coherent_coefficients(4.0, 25), 257)
        varphi = 0.7
        kernel = resolution_kernel(pa, pb, varphi)
        for k in range(1, 6):
            assert kernel.grid_moment(k) == pytest.approx(kernel.moments[k], abs=1e-10)
            direct = pa.moments[k] * np.conj(pb.moments[k]) * np.exp(-1j * k * varphi)
            assert kernel.moments[k] == pytest.approx(direct, abs=1e-12)

    def test_grid_mismatch(self):
        pa = canonical_phase_distribution(coherent_coefficients(6.0, 32), 257)
        pb = canonical_phase_distribution(coherent_coefficients(6.0, 32), 259)
        with pytest.raises(Exception):
            resolution_kernel(pa, pb, 0.0)


class TestVisibility:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=ancilla_specs(64))
    @example(spec=coherent_coefficients(5000.0, 12000))
    def test_smallest_exact_grid_is_width_plus_two(self, spec):
        # visibility() reads only the first moment.  On W + 2 points its grid
        # sum is exact; on W + 1 the pair (lo, hi) aliases in, n - m = -W
        # being 1 mod W + 1.
        c = spec.coefficients
        width = c.size - 1
        assume(width >= 1)
        exact = phase._canonical_density(spec, width + 2)
        assert exact.degree == 1
        assert exact.grid_moment(1) == pytest.approx(spec.first_moment(), abs=1e-12)
        aliased = phase._canonical_density(spec, width + 1)
        assert aliased.degree == 0
        assert aliased.grid_moment(1) - spec.first_moment() == pytest.approx(
            c[0] * np.conj(c[-1]), abs=1e-12)

    def test_number_state_kills_visibility(self):
        number = AncillaSpec(9, [1.0], lo=4)
        coherent = coherent_coefficients(2.0, 20)
        assert abs(visibility(number, coherent)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 16, 64, 100, 255, 513, 1000])
    def test_sine_reference_closed_form(self, width):
        # The sine state c_n ~ sin(pi (n + 1)/(W + 2)), n = 0..W, has first
        # moment cos(pi/(W + 2)), the largest of any W + 1 levels (Summy &
        # Pegg, Opt. Commun. 77, 75 (1990)); two copies give C its square.
        # Both visibility routes run, so each is pinned to the exact value.
        n = np.arange(width + 1)
        amps = np.sin(np.pi * (n + 1) / (width + 2))
        sine = AncillaSpec(width, amps / np.linalg.norm(amps))
        cap = math.cos(math.pi / (width + 2))
        assert abs(sine.first_moment() - cap) <= 1e-13
        assert abs(visibility(sine, sine, 0.0) - cap ** 2) <= 1e-13

    def test_identical_coherent_specs(self):
        spec = coherent_coefficients(100.0, 200)
        c = visibility(spec, spec)
        assert abs(c) <= 1.0 + 1e-10
        assert abs(c) ** 2 == pytest.approx(0.9949872755023987, abs=1e-9)
        assert abs(c) ** 2 == pytest.approx(math.exp(-1.0 / 200.0), abs=5e-4)

    def test_moment_product_agreement(self):
        # visibility() raises internally on route disagreement; check the
        # closed form explicitly here.
        spec_a = coherent_coefficients(9.0, 40)
        spec_b = coherent_coefficients(16.0, 57)
        for varphi in (0.0, 0.9, 4.0):
            c = visibility(spec_a, spec_b, varphi)
            closed = (np.exp(1j * varphi) * np.conj(spec_a.first_moment())
                      * spec_b.first_moment())
            assert c == pytest.approx(closed, abs=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec_a=random_ancillas(40), spec_b=random_ancillas(40),
           varphi=st.floats(0.0, 2.0 * np.pi), pad=st.integers(0, 20))
    def test_quadrature_equals_kernel_first_moment(self, spec_a, spec_b, varphi, pad):
        # e^{i varphi} conj(q_A) q_B, each q_Z on its own grid, is the first
        # moment of the resolution kernel (convolution theorem), which is not
        # formed; the kernel here is taken on a shared grid.
        K = 2 * max(spec_a.M, spec_b.M) + 3 + pad
        kernel = resolution_kernel(canonical_phase_distribution(spec_a, K),
                                   canonical_phase_distribution(spec_b, K), varphi)
        c = visibility(spec_a, spec_b, varphi)
        assert c == pytest.approx(np.conj(kernel.grid_moment(1)), abs=1e-12)

    def test_nonzero_spans_equal_full_grid(self):
        # nbar = 5000 has about 4,100 levels below its kept span and
        # M = 12000 about 6,000 above it; the spec stores the span only,
        # and the default route takes each span on its own grid.
        spec_a = coherent_coefficients(5000.0, 12000)
        spec_b = coherent_coefficients(20.0, 70)
        assert spec_a.coefficients[0] != 0.0 and spec_a.coefficients[-1] != 0.0
        assert spec_a.lo > 0 and spec_a.coefficients.size < spec_a.M + 1
        for varphi in (0.0, 2.5):
            full = shared_grid_visibility(spec_a, spec_b, varphi, 2 * 12000 + 3)
            assert visibility(spec_a, spec_b, varphi) == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 40])
    def test_explicit_grid_needs_the_span_only(self, pad):
        # 2W + 3 <= K < 2M + 3: exact, since each density is band-limited
        # to its span's width W.
        spec_a = coherent_coefficients(5000.0, 12000)
        spec_b = AncillaSpec(50, [0.6, 0.0, 0.8j], lo=30)
        grid = 2 * (spec_a.coefficients.size - 1) + 3 + pad
        assert grid < 2 * spec_a.M + 3
        for varphi in (0.0, 2.5):
            assert shared_grid_visibility(spec_a, spec_b, varphi, grid) == pytest.approx(
                visibility(spec_a, spec_b, varphi), abs=1e-12)
        with pytest.raises(GridError):
            canonical_phase_distribution(spec_a, 2 * (spec_a.coefficients.size - 1) + 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec_a=ancilla_specs(64), spec_b=ancilla_specs(64),
           varphi=st.floats(0.0, 2.0 * np.pi))
    def test_default_grid_matches_exactness_bound(self, spec_a, spec_b, varphi):
        bound = 2 * max(spec_a.M, spec_b.M) + 3
        assert visibility(spec_a, spec_b, varphi) == pytest.approx(
            shared_grid_visibility(spec_a, spec_b, varphi, bound), abs=1e-12)

    def test_grid_past_cap_raises(self):
        # W = 2^19 needs W + 2 > 2^19 grid points; the quadrature is never
        # skipped, so the call fails instead of returning the closed value.
        with pytest.raises(GridError):
            visibility(AncillaSpec.uniform(2 ** 19), coherent_coefficients(2.0, 20))

    def test_magnitude_bounded(self, rng):
        for _ in range(5):
            coeffs = rng.randn(9) + 1j * rng.randn(9)
            coeffs /= np.linalg.norm(coeffs)
            spec = AncillaSpec(8, coeffs)
            assert abs(visibility(spec, spec)) <= 1.0 + 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec_a=ancilla_specs(), spec_b=ancilla_specs(),
           varphi=st.floats(0.0, 2.0 * np.pi))
    def test_magnitude_bounded_for_any_references(self, spec_a, spec_b, varphi):
        assert abs(visibility(spec_a, spec_b, varphi)) <= 1.0 + 1e-12


class TestPostMeasurementState:
    def test_zero_visibility_is_incoherent_mixture(self):
        rho = post_measurement_register_state(0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_unit_visibility_is_pure_bell(self):
        rho = post_measurement_register_state(1.0)
        evals = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(evals, [0, 0, 0, 1], atol=1e-12)
        assert concurrence_ef_oracle(rho) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_at_c06(self):
        rho = post_measurement_register_state(0.6)
        evals = np.linalg.eigvalsh(rho.matrix)[::-1]
        np.testing.assert_allclose(evals, [0.8, 0.2, 0.0, 0.0], atol=1e-12)

    def test_overlarge_visibility_rejected(self):
        with pytest.raises(StateValidationError):
            post_measurement_register_state(1.1)

    def test_depends_on_phase_difference_only(self):
        # A common shift of both local references leaves the state fixed;
        # independent shifts act only through their difference on the
        # coherence.
        from epsim import reference_phase_shift, trace_distance

        rho = post_measurement_register_state(0.5 + 0.3j)
        for angle in (0.7, 2.9):
            common = reference_phase_shift(rho, angle, angle)
            assert trace_distance(common, rho) < 1e-12
        theta, phi = 1.1, 0.4
        shifted = reference_phase_shift(rho, theta, phi)
        i10, i01 = rho.index((1, 0)), rho.index((0, 1))
        expected = np.exp(1j * (theta - phi)) * rho.matrix[i10, i01]
        assert shifted.matrix[i10, i01] == pytest.approx(expected, abs=1e-12)


# One- and two-register inputs from the shipped state files.
DATA_STATES = [load_state(data_path(name))
               for name in ("shared_single.json", "shared_double.json")]


@pytest.fixture(scope="module")
def protocol_run():
    spec = coherent_coefficients(9.0, 40)
    config = ProtocolConfig(shared_single(), spec, spec)
    return spec, transfer_final_state(config)


class TestPhaseDifferencePovm:
    def test_flat_density(self, protocol_run):
        _, final = protocol_run
        for k in range(8):
            varphi = 2 * np.pi * k / 8
            density, _ = apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
            assert density == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)

    def test_conditional_state_matches_visibility(self, protocol_run):
        spec, final = protocol_run
        for varphi in (0.0, 1.3, 5.1):
            _, post = apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
            expected = post_measurement_register_state(visibility(spec, spec, varphi))
            for i, li in enumerate(post.basis):
                for j, lj in enumerate(post.basis):
                    assert post.matrix[i, j] == pytest.approx(
                        expected.matrix[expected.index(li), expected.index(lj)],
                        abs=1e-8)

    def test_density_integrates_to_one(self, protocol_run):
        _, final = protocol_run
        K = 32
        total = sum(
            apply_phase_difference_povm(final, "ref_A", "ref_B", 2 * np.pi * k / K)[0]
            for k in range(K)) * (2 * np.pi / K)
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(max_particles=2), ancilla_a=ancilla_specs(8),
           ancilla_b=ancilla_specs(8))
    def test_density_integrates_to_one_on_any_input(self, state, ancilla_a, ancilla_b):
        # The density is a trigonometric polynomial of degree <= M_B in
        # varphi, so K = 2 max(M_A, M_B) + 3 grid angles integrate it exactly.
        final = transfer_final_state(ProtocolConfig(state, ancilla_a, ancilla_b))
        K = 2 * max(ancilla_a.M, ancilla_b.M) + 3
        total = sum(
            apply_phase_difference_povm(final, "ref_A", "ref_B", 2 * np.pi * k / K)[0]
            for k in range(K)) * (2 * np.pi / K)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_interleaved_states_use_their_own_plan(self):
        # The per-state plan is cached: alternating two states must never
        # measure one of them with the other's grouping.
        finals = [transfer_final_state(ProtocolConfig(state, spec, spec))
                  for state, spec in ((shared_single(), coherent_coefficients(1.0, 11)),
                                      (shared_double(), AncillaSpec.uniform(3)))]
        for final, varphi in zip(finals * 2, (0.3, 1.9, 4.2, 5.5)):
            density, post = apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
            density_ref, post_ref = phase_difference_povm_oracle(final, "ref_A", "ref_B",
                                                                 varphi)
            assert post.basis == post_ref.basis
            assert density == pytest.approx(density_ref, abs=1e-12)
            np.testing.assert_allclose(post.matrix, post_ref.matrix, rtol=0.0, atol=1e-12)

    def test_interleaved_states_build_each_plan_once(self, monkeypatch):
        build, builds = phase._build_povm_plan, []

        def spy(state, mode_a, mode_b):
            builds.append(state)
            return build(state, mode_a, mode_b)

        monkeypatch.setattr(phase, "_build_povm_plan", spy)
        finals = [transfer_final_state(ProtocolConfig(shared_single(), spec, spec))
                  for spec in (coherent_coefficients(1.0, 11), AncillaSpec.uniform(3))]
        for varphi in (0.3, 1.9, 4.2, 5.5):
            for final in finals:
                apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
        assert len(builds) == 2
        assert builds[0] is finals[0] and builds[1] is finals[1]

    def test_plan_released_with_its_state(self):
        final = transfer_final_state(
            ProtocolConfig(shared_single(), AncillaSpec.uniform(3), AncillaSpec.uniform(3)))
        apply_phase_difference_povm(final, "ref_A", "ref_B", 0.7)
        state_ref = weakref.ref(final)
        plan_ref = weakref.ref(_povm_plan(final, "ref_A", "ref_B"))
        del final
        gc.collect()
        assert state_ref() is None
        assert plan_ref() is None

    def test_layout_error_stores_nothing(self):
        final = transfer_final_state(
            ProtocolConfig(shared_single(), AncillaSpec.uniform(3), AncillaSpec.uniform(3)))
        with pytest.raises(LayoutError):
            apply_phase_difference_povm(final, "ref_B", "ref_A", 0.0)
        assert final not in phase._PLANS
        apply_phase_difference_povm(final, "ref_A", "ref_B", 0.0)
        with pytest.raises(LayoutError):
            apply_phase_difference_povm(final, "ref_A", "nope", 0.0)
        assert list(phase._PLANS[final]) == [("ref_A", "ref_B")]

    def test_outputs_share_no_basis_list(self, protocol_run):
        _, final = protocol_run
        posts = [apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)[1]
                 for varphi in (0.4, 2.2)]
        template = _povm_plan(final, "ref_A", "ref_B").template
        assert posts[0].basis == posts[1].basis == template.basis
        assert posts[0].basis is not posts[1].basis
        assert all(post.basis is not template.basis for post in posts)
        posts[0].basis.append((9,) * len(posts[0].layout))
        assert posts[1].basis == template.basis

    def test_zero_density_angle_rejected(self):
        layout = layout_of(ModeDescriptor("ref_A", "A", "field", 1),
                           ModeDescriptor("ref_B", "B", "field", 1),
                           ModeDescriptor("reg", "A", "register", 1))
        s = 1.0 / math.sqrt(2.0)
        state = PureState(layout, {(0, 1, 1): s, (1, 0, 1): s})
        with pytest.raises(StateValidationError, match="angle 3.14159"):
            apply_phase_difference_povm(state, "ref_A", "ref_B", math.pi)

    def test_wrong_reference_modes_rejected(self, protocol_run):
        _, final = protocol_run
        with pytest.raises(LayoutError):
            apply_phase_difference_povm(final, "ref_B", "ref_A", 0.0)
        with pytest.raises(LayoutError):
            apply_phase_difference_povm(final, "ref_A", "nope", 0.0)
        density, _ = apply_phase_difference_povm(final, "ref_A", "ref_B", 0.0)
        assert density == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=st.one_of(st.sampled_from(DATA_STATES), transfer_inputs(max_particles=2)),
           ancilla_a=ancilla_specs(8), ancilla_b=ancilla_specs(8),
           varphi=st.floats(0.0, 2.0 * np.pi))
    def test_vectorized_povm_equals_dict_oracle(self, state, ancilla_a, ancilla_b, varphi):
        final = transfer_final_state(ProtocolConfig(state, ancilla_a, ancilla_b))
        density, post = apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
        density_ref, post_ref = phase_difference_povm_oracle(final, "ref_A", "ref_B", varphi)
        assert post.layout == post_ref.layout
        assert post.basis == post_ref.basis
        assert density == pytest.approx(density_ref, abs=1e-12)
        np.testing.assert_allclose(post.matrix, post_ref.matrix, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(max_particles=2), ancilla_a=random_ancillas(6),
           ancilla_b=random_ancillas(6))
    def test_plan_coefficients_equal_closed_form(self, state, ancilla_a, ancilla_b):
        # On the protocol's final state, T(varphi)[r, r'] is
        # amp_r conj(amp_r') [N_r = N_r'] mu_A(Delta) mu_B(-Delta)
        # e^{-i varphi (n_B,r - n_B,r')} / 2pi with Delta = n_A,r - n_A,r', so
        # the pair (r, r') sits in Q_k at k = n_B,r - n_B,r' = -Delta only.
        config = ProtocolConfig(state, ancilla_a, ancilla_b)
        plan = _povm_plan(transfer_final_state(config), "ref_A", "ref_B")
        _, basis, amps, n_a, n_b = config.register_terms
        assert plan.template.basis == basis
        D, N = plan.coeffs.shape[0], config.total_particles
        assert D - 1 <= N

        def mu(spec, k):
            moments = moment_list(spec)
            value = moments[abs(k)] if abs(k) < moments.size else 0.0
            return value if k >= 0 else np.conj(value)

        size = (len(basis), len(basis))
        got = {k: np.zeros(size, dtype=complex) for k in range(-N, N + 1)}
        got[0] = 2.0 * plan.coeffs[0]
        for k in range(1, D):
            got[k], got[-k] = plan.coeffs[k], plan.coeffs[k].conj().T
        delta = n_a[:, None] - n_a[None, :]
        same_total = (n_a + n_b)[:, None] == (n_a + n_b)[None, :]
        for k, q in got.items():
            want = np.zeros(size, dtype=complex)
            for r, r2 in zip(*np.nonzero(same_total & (delta == -k))):
                want[r, r2] = (amps[r] * np.conj(amps[r2]) * mu(ancilla_a, -k)
                               * mu(ancilla_b, k) / (2 * np.pi))
            np.testing.assert_allclose(q, want, rtol=0.0, atol=1e-12)

    def test_povm_past_int64_key_range(self, rng):
        # Register and spectator occupations near 2^38 on capacities 2^40: a
        # mixed-radix key of the group rows (two spectators and the pair
        # total) or of the register rows would pass 2^63 unless re-ranked.
        big = 1 << 40
        layout = layout_of(ModeDescriptor("ref_A", "A", "field", 2),
                           ModeDescriptor("ref_B", "B", "field", 2),
                           ModeDescriptor("spec_A", "A", "field", big),
                           ModeDescriptor("spec_B", "B", "field", big),
                           ModeDescriptor("reg_A", "A", "register", big),
                           ModeDescriptor("reg_B", "B", "register", big))
        refs = rng.randint(0, 3, size=(300, 2))
        wide = rng.randint(0, 4, size=(300, 4)) << 38
        labels = {tuple(row) for row in np.column_stack([refs, wide]).tolist()}
        amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        amps /= np.linalg.norm(amps)
        state = PureState(layout, dict(zip(sorted(labels), amps)))
        for varphi in (0.8, 4.1):
            density, post = apply_phase_difference_povm(state, "ref_A", "ref_B", varphi)
            density_ref, post_ref = phase_difference_povm_oracle(state, "ref_A", "ref_B",
                                                                 varphi)
            assert len(post.basis) == 16
            assert post.basis == post_ref.basis
            assert density == pytest.approx(density_ref, abs=1e-12)
            np.testing.assert_allclose(post.matrix, post_ref.matrix, rtol=0.0, atol=1e-12)

    def test_povm_completeness_on_truncated_space(self):
        grid = 2 * np.pi * np.arange(21) / 21
        assert povm_identity_residual(4, 4, grid) < 1e-10


class TestFormationEntanglement:
    def test_limits(self):
        assert entanglement_of_formation_x(1.0) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_of_formation_x(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_at_06(self):
        assert entanglement_of_formation_x(0.6) == pytest.approx(EF_AT_06, abs=1e-12)

    def test_monotone_in_visibility(self):
        grid = np.linspace(0.0, 1.0, 100)
        values = [entanglement_of_formation_x(c) for c in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(moduli=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
    def test_non_decreasing_in_modulus(self, moduli):
        # Same slack as the grid test above: h(p) rounds, so adjacent floats
        # can dip by an ulp of 1.
        values = [entanglement_of_formation_x(c) for c in sorted(moduli)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_accepts_complex_argument(self):
        assert entanglement_of_formation_x(0.6j) == pytest.approx(EF_AT_06, abs=1e-12)


class TestConcurrenceOracle:
    def test_bell_projector(self):
        layout = post_measurement_register_state(0.0).layout
        bell = PureState(layout, {(1, 0): 2 ** -0.5, (0, 1): 2 ** -0.5})
        basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
        vec = np.zeros(4, dtype=complex)
        vec[basis.index((1, 0))] = 2 ** -0.5
        vec[basis.index((0, 1))] = 2 ** -0.5
        rho = DensityOperator(layout, basis, np.outer(vec, vec.conj()))
        assert concurrence_ef_oracle(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        layout = post_measurement_register_state(0.0).layout
        basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
        rho = DensityOperator(layout, basis, np.eye(4, dtype=complex) / 4)
        assert concurrence_ef_oracle(rho) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_matches_closed_form(self, rng):
        for _ in range(100):
            c = (rng.rand() * np.exp(2j * np.pi * rng.rand()))
            rho = post_measurement_register_state(c)
            assert two_qubit_concurrence(rho) == pytest.approx(abs(c), abs=1e-10)
            assert concurrence_ef_oracle(rho) == pytest.approx(
                entanglement_of_formation_x(c), abs=1e-10)

    @pytest.mark.parametrize("modulus", [1 - 1e-6, 1 - 1e-8, 1 - 1e-10])
    def test_conditioned_near_unit_visibility(self, modulus):
        # Near |C| = 1 the small eigenvalues of the Wootters product are at
        # rounding level; taking their square roots moved E_F by up to 1e-8.
        for phase in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
            c = modulus * np.exp(1j * phase)
            oracle = concurrence_ef_oracle(post_measurement_register_state(c))
            assert oracle == pytest.approx(entanglement_of_formation_x(c), abs=1e-13)


class TestCoherentVisibilityModel:
    def test_value_at_100(self):
        assert coherent_visibility_model(100.0) == pytest.approx(MODEL_AT_100, abs=1e-12)

    def test_limit(self):
        assert coherent_visibility_model(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_matches_full_computation(self):
        spec_tr, spec_local = coherent_pair_specs(25.0)
        full = abs(visibility(spec_tr, spec_local)) ** 2
        model = coherent_visibility_model(25.0)
        assert abs((1 - model) - (1 - full)) / (1 - full) <= 0.10


class TestEfUpperBound:
    def test_value_at_25(self):
        assert ef_upper_bound(25.0) == pytest.approx(BOUND_AT_25, abs=1e-12)

    def test_limit(self):
        assert ef_upper_bound(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_caps_full_computation_chain(self):
        # The cap applies to the near-unit-visibility expansion of the
        # formation entanglement computed from the full visibility.
        for ntr in (25.0, 50.0, 100.0, 400.0):
            spec_tr, spec_local = coherent_pair_specs(ntr)
            c = visibility(spec_tr, spec_local)
            assert ef_large_visibility(c) <= ef_upper_bound(ntr) + 1e-6


_UNIFORM = AncillaSpec.uniform(4)
_CONFIG = ProtocolConfig(shared_single(), _UNIFORM, _UNIFORM)
_FINAL = transfer_final_state(_CONFIG)
_REGISTERS = run_transfer(_CONFIG)
_DENSITY = canonical_phase_distribution(_UNIFORM, 15)


def _povm_at(varphi):
    return apply_phase_difference_povm(_FINAL, "ref_A", "ref_B", varphi)


def _kernel_at(varphi):
    return phase.resolution_kernel(_DENSITY, _DENSITY, varphi)


@pytest.mark.parametrize("check, value, error, message", [
    (entanglement_of_formation_x, complex(math.nan, 0.0), ValueError, "exceeds 1"),
    (entanglement_of_formation_x, complex(math.inf, 0.0), ValueError, "exceeds 1"),
    (binary_entropy, math.nan, ValueError, "outside"),
    (binary_entropy, math.inf, ValueError, "outside"),
    (lambda varphi: visibility(_UNIFORM, _UNIFORM, varphi), math.nan, ValueError, "not finite"),
    (lambda varphi: visibility(_UNIFORM, _UNIFORM, varphi), math.inf, ValueError, "not finite"),
    (ef_upper_bound, math.nan, ValueError, "positive"),
    (coherent_visibility_model, math.nan, ValueError, "positive"),
    (post_measurement_register_state, complex(math.nan, 0.0), StateValidationError, "exceeds 1"),
    (post_measurement_register_state, complex(math.inf, 0.0), StateValidationError, "exceeds 1"),
    (_povm_at, math.nan, ValueError, "angle nan is not finite"),
    (_povm_at, math.inf, ValueError, "angle inf is not finite"),
    (_kernel_at, math.nan, ValueError, "angle nan is not finite"),
    (_kernel_at, -math.inf, ValueError, "angle -inf is not finite"),
    (lambda theta: mode_overlap_integral(1, _UNIFORM, theta), math.nan, ValueError,
     "angle nan is not finite"),
    (lambda theta: mode_overlap_integral(0, _UNIFORM, theta), math.inf, ValueError,
     "angle inf is not finite"),
    (lambda theta: reference_phase_shift(_REGISTERS, theta, 0.0), math.inf, ValueError,
     "angle inf is not finite"),
    (lambda phi: reference_phase_shift(_REGISTERS, 0.0, phi), math.nan, ValueError,
     "angle nan is not finite"),
], ids=["ef-nan", "ef-inf", "entropy-nan", "entropy-inf", "visibility-nan", "visibility-inf",
        "ef-bound-nan", "visibility-model-nan", "register-state-nan", "register-state-inf",
        "povm-nan", "povm-inf", "kernel-nan", "kernel-inf", "overlap-nan", "overlap-inf",
        "phase-shift-theta-inf", "phase-shift-phi-nan"])
def test_non_finite_scalar_rejected(check, value, error, message):
    """Each scalar check is written so that NaN fails it: every comparison
    with NaN is false, so ``x > bound`` would let it through.  An angle must
    be finite before any phase factor is formed from it."""
    with pytest.raises(error, match=message):
        check(value)
