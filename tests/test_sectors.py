import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim import (
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    entropy_of_entanglement,
    layout_of,
    local_particle_number,
    particle_entanglement,
    sector_decompose,
    tensor_product,
)
from conftest import random_two_site_state, shared_double, shared_single
from strategies import transfer_inputs


class TestLocalParticleNumber:
    def test_particle_at_a(self):
        layout = shared_single().layout
        assert local_particle_number(layout, (1, 0), "A") == 1

    def test_particle_at_b(self):
        layout = shared_single().layout
        assert local_particle_number(layout, (0, 1), "A") == 0

    def test_multimode_sum(self):
        layout = ModeLayout((
            ModeDescriptor("a1", "A", "field", 3),
            ModeDescriptor("a2", "A", "field", 3),
            ModeDescriptor("b1", "B", "field", 3),
            ModeDescriptor("b2", "B", "field", 3),
        ))
        assert local_particle_number(layout, (2, 1, 0, 3), "A") == 3
        assert local_particle_number(layout, (2, 1, 0, 3), "B") == 3

    def test_registers_do_not_count(self):
        layout = ModeLayout((
            ModeDescriptor("a", "A", "field", 2),
            ModeDescriptor("reg_a", "A", "register", 2),
        ))
        assert local_particle_number(layout, (1, 2), "A") == 1


class TestSectorDecompose:
    def test_shared_single(self):
        decomp = sector_decompose(shared_single())
        probs = decomp.probabilities()
        assert set(probs) == {0, 1}
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        by_n = {s.n: s for s in decomp.sectors}
        assert by_n[1].state.amplitudes == {(1, 0): pytest.approx(1.0)}
        assert by_n[0].state.amplitudes == {(0, 1): pytest.approx(1.0)}

    def test_single_sector(self):
        state = PureState(shared_single().layout, {(1, 0): 1.0})
        decomp = sector_decompose(state)
        assert len(decomp.sectors) == 1
        assert decomp.sectors[0].n == 1
        assert decomp.sectors[0].probability == pytest.approx(1.0)

    def test_double_shared_sectors(self):
        decomp = sector_decompose(shared_double())
        probs = decomp.probabilities()
        assert probs[2] == pytest.approx(0.25, abs=1e-12)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[0] == pytest.approx(0.25, abs=1e-12)
        middle = {s.n: s for s in decomp.sectors}[1].state
        # One particle at A shared across the two copies: a Bell-type branch.
        assert middle.amplitudes[(1, 0, 0, 1)] == pytest.approx(2 ** -0.5)
        assert middle.amplitudes[(0, 1, 1, 0)] == pytest.approx(2 ** -0.5)

    def test_reassembly(self, rng):
        for particles in (1, 2, 3):
            state = random_two_site_state(rng, particles)
            decomp = sector_decompose(state)
            rebuilt = {}
            for sector in decomp.sectors:
                anchor = max(sector.state.amplitudes, key=lambda l: abs(state.amplitudes.get(l, 0.0)))
                phase = state.amplitudes[anchor] / (
                    np.sqrt(sector.probability) * sector.state.amplitudes[anchor])
                for label, amp in sector.state.amplitudes.items():
                    rebuilt[label] = np.sqrt(sector.probability) * phase * amp
            for label, amp in state.amplitudes.items():
                assert rebuilt[label] == pytest.approx(amp, abs=1e-10)

    def test_phase_fix_deterministic(self):
        state = PureState(shared_single().layout,
                          {(1, 0): 1j * 2 ** -0.5, (0, 1): -2 ** -0.5})
        decomp = sector_decompose(state)
        for sector in decomp.sectors:
            anchor = max(sector.state.amplitudes.values(), key=abs)
            assert anchor.imag == pytest.approx(0.0, abs=1e-12)
            assert anchor.real > 0


class TestParticleEntanglement:
    def test_shared_single_zero(self):
        assert particle_entanglement(shared_single()) == pytest.approx(0.0, abs=1e-12)

    def test_double_shared_half(self):
        assert particle_entanglement(shared_double()) == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_zero(self):
        vac = PureState(shared_single().layout, {(0, 0): 1.0})
        assert particle_entanglement(vac) == pytest.approx(0.0, abs=1e-12)

    def test_single_site_rejected(self):
        state = PureState(layout_of(ModeDescriptor("a", "A", "field", 1)), {(1,): 1.0})
        with pytest.raises(LayoutError):
            particle_entanglement(state)


def site_labels(layout, site, total_cap):
    """All occupation patterns of one site's field modes, grouped by count."""
    idx = layout.indices(site=site, kind="field")
    caps = [layout.modes[i].capacity for i in idx]
    groups = {}
    for combo in itertools.product(*[range(c + 1) for c in caps]):
        groups.setdefault(sum(combo), []).append(combo)
    return idx, groups


def apply_blockdiag_unitary(state, site, rng):
    """Random unitary on the site's field modes, block-diagonal in particle
    count: commutes with the local number operator by construction."""
    layout = state.layout
    idx, groups = site_labels(layout, site, None)
    blocks = {}
    for n, labels in groups.items():
        d = len(labels)
        q, _ = np.linalg.qr(rng.randn(d, d) + 1j * rng.randn(d, d))
        blocks[n] = (q, {lab: i for i, lab in enumerate(labels)})
    amps = {}
    for label, amp in state.amplitudes.items():
        part = tuple(label[i] for i in idx)
        n = sum(part)
        q, pos = blocks[n]
        col = pos[part]
        for row, target in enumerate(groups[n]):
            coeff = q[row, col]
            if abs(coeff) < 1e-16:
                continue
            new = list(label)
            for k, i in enumerate(idx):
                new[i] = target[k]
            new = tuple(new)
            amps[new] = amps.get(new, 0.0) + coeff * amp
    return PureState(layout, amps, normalize=True)


class TestProperties:
    def test_super_additivity(self, rng):
        for seed in range(20):
            local = np.random.RandomState(1000 + seed)
            particles_a = 1 + seed % 3
            particles_b = 1 + (seed // 3) % 3
            a = random_two_site_state(local, particles_a, prefix="x")
            b = random_two_site_state(local, particles_b, prefix="y")
            combined = particle_entanglement(tensor_product(a, b))
            assert combined >= (particle_entanglement(a)
                                + particle_entanglement(b) - 1e-9)

    def test_bounded_by_entropy_of_entanglement(self, rng):
        for seed in range(20):
            local = np.random.RandomState(2000 + seed)
            state = random_two_site_state(local, 1 + seed % 3)
            assert particle_entanglement(state) <= (
                entropy_of_entanglement(state) + 1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(transfer_inputs(), st.integers(0, 2 ** 32 - 1))
    def test_number_conserving_unitary_invariance(self, state, seed):
        local = np.random.RandomState(seed)
        ep = particle_entanglement(state)
        for site in ("A", "B"):
            rotated = apply_blockdiag_unitary(state, site, local)
            assert particle_entanglement(rotated) == pytest.approx(ep, abs=1e-9)

    def test_local_phase_shift_invariance(self, rng):
        state = random_two_site_state(rng, 2)
        base = sector_decompose(state)
        for theta, phi in [(0.3, 1.1), (2.0, -0.7), (np.pi, np.pi / 3)]:
            shifted_amps = {}
            for label, amp in state.amplitudes.items():
                na = local_particle_number(state.layout, label, "A")
                nb = local_particle_number(state.layout, label, "B")
                shifted_amps[label] = amp * np.exp(1j * (theta * na + phi * nb))
            shifted = PureState(state.layout, shifted_amps)
            decomp = sector_decompose(shifted)
            assert set(decomp.probabilities()) == set(base.probabilities())
            for n, p in decomp.probabilities().items():
                assert p == pytest.approx(base.probabilities()[n], abs=1e-12)
            for s_new, s_old in zip(decomp.sectors, base.sectors):
                assert entropy_of_entanglement(s_new.state) == pytest.approx(
                    entropy_of_entanglement(s_old.state), abs=1e-12)
