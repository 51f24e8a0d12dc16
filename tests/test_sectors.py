import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim import (
    AncillaSpec,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    ProtocolConfig,
    PureState,
    StateValidationError,
    entropy_of_entanglement,
    layout_of,
    local_particle_number,
    particle_entanglement,
    particle_sector_table,
    register_sector_entanglement,
    register_sector_table,
    register_sector_weights,
    run_transfer,
    sector_decompose,
    tensor_product,
)
from epsim import protocol as protocol_module
from epsim import sectors as sectors_module
from epsim.cli import build_parser
from epsim.fock import _schmidt_entropies
from epsim.protocol import equal_different_measurement
from epsim.sectors import SECTOR_DROP_TOL
from epsim.statefile import load_state, state_to_dict
from conftest import random_two_site_state, shared_double, shared_single
from oracles import (register_block_stack_oracle, register_sector_oracle, schmidt_entropy_oracle,
                     sector_table_oracle)
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


def mixed_shape_state():
    """Three particles on two modes per site (capacity 2): all six labels of
    the site-A sector n = 2, a 3x2 Schmidt matrix of rank 2, next to the
    single label of sector n = 3, a 1x1 matrix of rank one."""
    layout = ModeLayout(tuple(ModeDescriptor(f"{site}{k}", site.upper(), "field", 2)
                              for site in "ab" for k in range(2)))
    amps = {(a0, 2 - a0, b0, 1 - b0): complex(1 + a0 + b0, a0 - 2 * b0)
            for a0 in range(3) for b0 in range(2)}
    amps[(2, 1, 0, 0)] = 0.5j
    return PureState(layout, amps, normalize=True)


def one_mode_per_site_state():
    """Three particles on one mode per site (capacity 3), all four labels of
    the fixed total: every site-A sector is a single label."""
    layout = layout_of(ModeDescriptor("a", "A", "field", 3), ModeDescriptor("b", "B", "field", 3))
    return PureState(layout, {(n, 3 - n): complex(1 + n, 2 - n) for n in range(4)},
                     normalize=True)


def two_modes_per_site_state():
    """One particle on two capacity-1 modes per site, on all four modes."""
    layout = ModeLayout(tuple(ModeDescriptor(f"{site}{k}", site.upper(), "field", 1)
                              for site in "ab" for k in range(2)))
    labels = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return PureState(layout, {label: complex(1 + k, k - 1) for k, label in enumerate(labels)},
                     normalize=True)


def assert_rows_equal_where_zero(rows, oracle):
    """``rows`` match the ``oracle`` rows, and every entropy the oracle's own
    decomposition gives as 0.0 (each one-row or one-column block among them)
    is +0.0 in ``rows`` too, bit for bit; the padded batched route and the
    per-block one may differ in the last bits of a positive entropy."""
    assert_rows_match(rows, oracle)
    for row, expected in zip(rows, oracle):
        if expected[2] == 0.0:
            assert math.copysign(1.0, expected[2]) == 1.0
            assert (row[2], math.copysign(1.0, row[2])) == (0.0, 1.0)


def assert_rows_match(rows, oracle):
    assert [row[0] for row in rows] == [row[0] for row in oracle]
    for row, expected in zip(rows, oracle):
        assert row[1] == pytest.approx(expected[1], abs=1e-12)
        assert row[2] == pytest.approx(expected[2], abs=1e-12)


def ep_results(state):
    """Unrounded results of ``epsim ep`` on ``state`` written to a file, and
    the state as the file reloads it."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "state.json")
        path.write_text(json.dumps(state_to_dict(state)))
        args = build_parser().parse_args(["ep", str(path)])
        return args.func(args).results, load_state(str(path))


class TestBatchedSectorEntropies:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=transfer_inputs(fixed_total=True), M=st.integers(1, 8))
    def test_batched_tables_equal_per_sector_oracle(self, state, M):
        oracle = sector_table_oracle(state)
        assert_rows_match([(r["n"], r["p"], r["entanglement"])
                           for r in particle_sector_table(state)], oracle)
        assert particle_entanglement(state) == pytest.approx(
            sum(p * e for _, p, e in oracle), abs=1e-12)
        assert entropy_of_entanglement(state) == pytest.approx(
            schmidt_entropy_oracle(state), abs=1e-12)
        results, loaded = ep_results(state)
        loaded_oracle = sector_table_oracle(loaded)
        assert_rows_match([(r["n"], r["p"], r["entanglement"]) for r in results["sectors"]],
                          loaded_oracle)
        assert results["particle_entanglement"] == pytest.approx(
            sum(p * e for _, p, e in loaded_oracle), abs=1e-12)
        rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(M), AncillaSpec.uniform(M)))
        assert_rows_match([(r["n"], r["weight"], r["entanglement"])
                           for r in register_sector_table(rho)], register_sector_oracle(rho))

    def test_padded_blocks_of_different_shapes(self):
        state = mixed_shape_state()
        rows = particle_sector_table(state)
        assert [r["n"] for r in rows] == [2, 3]
        assert_rows_match([(r["n"], r["p"], r["entanglement"]) for r in rows],
                          sector_table_oracle(state))
        assert rows[0]["entanglement"] > 0.1
        rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(4), AncillaSpec.uniform(4)))
        table = register_sector_table(rho)
        assert_rows_match([(r["n"], r["weight"], r["entanglement"]) for r in table],
                          register_sector_oracle(rho))
        # A 1x1 block beside a 3x2 one, in both orders.
        big = ([l for l in state.amplitudes if l[0] + l[1] == 2],
               [a for l, a in state.amplitudes.items() if l[0] + l[1] == 2])
        small = ([(2, 1, 0, 0)], [0.5j])
        e_big = sector_table_oracle(state)[0][2]
        assert _schmidt_entropies(state.layout, [small, big]) == pytest.approx(
            [0.0, e_big], abs=1e-12)
        assert _schmidt_entropies(state.layout, [big, small]) == pytest.approx(
            [e_big, 0.0], abs=1e-12)

    def test_rank_one_sector_is_positive_zero(self):
        state = mixed_shape_state()
        pure_rows = [r for r in particle_sector_table(state) if r["n"] == 3]
        rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(4), AncillaSpec.uniform(4)))
        pure_rows += [r for r in register_sector_table(rho) if r["n"] == 3]
        pure_rows += particle_sector_table(shared_single())
        for row in pure_rows:
            assert row["entanglement"] == 0.0
            assert math.copysign(1.0, row["entanglement"]) == 1.0
        product = PureState(shared_single().layout, {(1, 0): 1.0})
        assert math.copysign(1.0, entropy_of_entanglement(product)) == 1.0

    def test_one_decomposition_per_table(self, decompositions):
        counts = decompositions
        cases = [
            # A 3x2 block beside a 1x1 one, and register blocks of sizes 6 and 1.
            (mixed_shape_state(), {"svd": 1, "eigh": 0}, {"svd": 1, "eigh": 1},
             {"svd": 2, "eigh": 0}),
            # One mode per site and a fixed total: every sector is one label,
            # so only ep's whole-state split reaches the SVD.
            (shared_single(), {"svd": 0, "eigh": 0}, {"svd": 0, "eigh": 0},
             {"svd": 1, "eigh": 0}),
            (one_mode_per_site_state(), {"svd": 0, "eigh": 0}, {"svd": 0, "eigh": 0},
             {"svd": 1, "eigh": 0}),
            # One particle on two modes per site: the sector n = 1 is one
            # column (site B empty) and n = 0 one row (site A empty); the
            # register sector n = 1 is a 2x2 block whose top eigenvector is
            # one column.
            (two_modes_per_site_state(), {"svd": 0, "eigh": 0}, {"svd": 0, "eigh": 1},
             {"svd": 1, "eigh": 0}),
        ]
        for state, particle, register, ep in cases:
            rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(4),
                                              AncillaSpec.uniform(4)))
            for call, expected in [(lambda: particle_sector_table(state), particle),
                                   (lambda: register_sector_table(rho), register),
                                   (lambda: ep_results(state), ep)]:
                counts.update(svd=0, eigh=0)
                call()
                assert counts == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(state=transfer_inputs(fixed_total=True), M=st.integers(1, 8))
    def test_tables_equal_oracles_where_shape_decides(self, state, M):
        rows = particle_sector_table(state)
        oracle = sector_table_oracle(state)
        assert [(r["n"], r["p"]) for r in rows] == [(n, p) for n, p, _ in oracle]
        assert_rows_equal_where_zero([(r["n"], r["p"], r["entanglement"]) for r in rows], oracle)
        rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(M), AncillaSpec.uniform(M)))
        assert_rows_equal_where_zero([(r["n"], r["weight"], r["entanglement"])
                                      for r in register_sector_table(rho)],
                                     register_sector_oracle(rho))


@pytest.fixture
def block_stacks(monkeypatch):
    """[rho, keys, stack] of each ``_register_sector_blocks`` call made after
    the fixture is set up: its arguments and the stack it hands to ``eigh``."""
    calls = []
    real_eigh, real_blocks = np.linalg.eigh, sectors_module._register_sector_blocks

    def eigh(a, *args, **kwargs):
        calls[-1].append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    def blocks(rho, keys):
        calls.append([rho, list(keys)])
        return real_blocks(rho, calls[-1][1])
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for module in (sectors_module, protocol_module):
        monkeypatch.setattr(module, "_register_sector_blocks", blocks)
    return calls


@pytest.mark.parametrize("state, table, blocks", [
    # Register sectors n = 2 and n = 3 of different sizes.
    (mixed_shape_state(), register_sector_table, 2),
    # One particle at site A only: the single sector n = 1, one label, whose
    # 1x1 block is its own top eigenvalue, so no stack reaches eigh.
    (PureState(shared_single().layout, {(1, 0): 1.0}), register_sector_table, 0),
    # The equal/different outcomes keyed by (outcome pair, n_A): blocks of
    # sizes 2, 1 and 1.
    (shared_double(), equal_different_measurement, 3),
], ids=["unequal-blocks", "single-sector", "equal-different-keys"])
def test_block_stack_equals_per_sector_copies(block_stacks, state, table, blocks):
    # The stack is one gather from the bordered matrix; the oracle copies
    # each sector's block into a zeroed stack.
    rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(4), AncillaSpec.uniform(4)))
    out = table(rho)
    if not blocks:
        [(called_on, _)] = block_stacks
        assert called_on is rho
        rows = [(row["n"], row["weight"], row["entanglement"]) for row in out]
        assert rows == register_sector_oracle(rho)
        assert math.copysign(1.0, rows[0][2]) == 1.0
        return
    [(called_on, keys, stack)] = block_stacks
    assert called_on is rho
    expected = register_block_stack_oracle(rho, keys)
    assert stack.dtype == expected.dtype and stack.shape == expected.shape
    assert np.array_equal(stack, expected)
    assert len(stack) == blocks
    if blocks > 1:
        # Some block is shorter than the stack: its last diagonal entry is
        # padding, so the padding is exercised.
        assert np.any(stack[:, -1, -1] == 0)


@pytest.mark.parametrize("amps,n,top,weight", [
    # Site-A number 0 pairs with site-B numbers 0 and 1.
    ({(0, 0): 0.6, (0, 1): 0.8}, 0, 0.64, 1.0),
    # A pure sector n = 0 first, then the mixed sector n = 1.
    ({(0, 1): 0.6, (1, 0): 0.48, (1, 1): 0.64}, 1, 0.4096, 0.64),
])
def test_mixed_register_sector_fails_purity_check(amps, n, top, weight):
    layout = layout_of(ModeDescriptor("a", "A", "field", 1), ModeDescriptor("b", "B", "field", 1))
    state = PureState(layout, amps)
    rho = run_transfer(ProtocolConfig(state, AncillaSpec.uniform(4), AncillaSpec.uniform(4)))
    with pytest.raises(StateValidationError) as caught:
        register_sector_table(rho)
    match = re.fullmatch(r"sector n=(\d+) is not pure: top eigenvalue (\S+) of weight (\S+)",
                         str(caught.value))
    assert match is not None
    assert int(match[1]) == n
    assert float(match[2]) == pytest.approx(top, abs=1e-12)
    assert float(match[3]) == pytest.approx(weight, abs=1e-12)


def test_operator_without_weighted_sector(decompositions):
    # A zero operator (allowed with check_trace=False) has no sector whose
    # weight reaches SECTOR_DROP_TOL: empty tables, and nothing to decompose.
    layout = ModeLayout(tuple(ModeDescriptor(f"r{site}{k}", site.upper(), "register", 1)
                              for site in "ab" for k in range(2)))
    basis = list(itertools.product((0, 1), repeat=4))
    rho = DensityOperator(layout, basis, np.zeros((16, 16)), check_trace=False)
    decompositions.update(svd=0, eigh=0)
    assert register_sector_weights(rho) == {}
    assert register_sector_table(rho) == []
    entanglement = register_sector_entanglement(rho)
    assert (type(entanglement), entanglement, math.copysign(1.0, entanglement)) == (float, 0.0, 1.0)
    assert equal_different_measurement(rho) == []
    assert decompositions == {"svd": 0, "eigh": 0}


@pytest.mark.parametrize("weight,kept", [(SECTOR_DROP_TOL, True),
                                         (np.nextafter(SECTOR_DROP_TOL, 0.0), False)])
def test_register_sector_at_drop_tolerance(weight, kept):
    # A sector whose diagonal weight reaches SECTOR_DROP_TOL exactly is kept,
    # as particle_sector_table keeps one; one ulp below it is dropped.
    layout = layout_of(ModeDescriptor("ra", "A", "register", 1),
                       ModeDescriptor("rb", "B", "register", 1))
    rho = DensityOperator(layout, [(0, 1), (1, 0)], np.diag([1.0 - weight, weight]))
    expected = [(0, 1.0 - weight), (1, weight)][:2 if kept else 1]
    assert list(register_sector_weights(rho).items()) == expected
    assert [(row["n"], row["weight"]) for row in register_sector_table(rho)] == expected
