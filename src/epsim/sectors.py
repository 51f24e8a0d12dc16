"""Local-particle-number sectors and the sector-averaged entanglement measure.

Local operations cannot create coherences between subspaces with different
particle counts at one site, so the operationally accessible entanglement of
a shared-particle state is the probability-weighted average of the per-sector
entropies of entanglement, not the entropy of the state itself.  Each sector
entropy comes from one Schmidt decomposition of the sector's amplitudes.  Register
modes never count toward the local particle number: they model ordinary
distinguishable qubits, which the superselection rule does not constrain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    LayoutError,
    ModeLayout,
    PureState,
    StateValidationError,
    _schmidt_entropy,
    entropy_of_entanglement,
)

SECTOR_DROP_TOL = 1e-14
PURITY_TOL = 1e-9


def local_particle_number(layout: ModeLayout, label: tuple[int, ...], site: str) -> int:
    """Particles in the field modes at ``site`` (register modes excluded)."""
    layout.check_label(label)
    return sum(label[i] for i in layout.indices(site=site, kind="field"))


@dataclass(frozen=True)
class Sector:
    n: int
    probability: float
    state: PureState


@dataclass(frozen=True)
class SectorDecomposition:
    sectors: tuple[Sector, ...]

    def probabilities(self) -> dict[int, float]:
        return {s.n: s.probability for s in self.sectors}


def sector_decompose(state: PureState) -> SectorDecomposition:
    """Split a normalized state by particle count at site A.

    Sectors with weight below SECTOR_DROP_TOL are discarded.  Each sector
    state is renormalized and its global phase fixed by making the
    largest-magnitude amplitude real and positive, so decompositions are
    deterministic and safe to freeze in golden tests.
    """
    groups: dict[int, dict[tuple[int, ...], complex]] = {}
    for label, amp in state.amplitudes.items():
        n = local_particle_number(state.layout, label, "A")
        groups.setdefault(n, {})[label] = amp
    sectors = []
    for n in sorted(groups):
        amps = groups[n]
        p = sum(abs(a) ** 2 for a in amps.values())
        if p < SECTOR_DROP_TOL:
            continue
        anchor = max(amps.values(), key=abs)
        phase = anchor / abs(anchor)
        fixed = {l: a / (phase * np.sqrt(p)) for l, a in amps.items()}
        sectors.append(Sector(n, p, PureState(state.layout, fixed, normalize=True)))
    return SectorDecomposition(tuple(sectors))


def particle_entanglement(state: PureState) -> float:
    """Sector-probability-weighted entanglement, sum_n P_n E(state_n), in bits."""
    total = 0.0
    for sector in sector_decompose(state).sectors:
        total += sector.probability * entropy_of_entanglement(sector.state)
    return total


def _register_sectors(rho: DensityOperator):
    """Yield (n, weight, basis rows) for each site-A register-number sector
    of ``rho`` whose diagonal weight exceeds SECTOR_DROP_TOL, in increasing
    n (with no register mode at A every label is in sector 0)."""
    idx = rho.layout.indices(site="A", kind="register")
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(rho.basis):
        groups.setdefault(sum(label[j] for j in idx), []).append(i)
    for n, rows in sorted(groups.items()):
        weight = sum(float(np.real(rho.matrix[i, i])) for i in rows)
        if weight > SECTOR_DROP_TOL:
            yield n, weight, rows


def register_sector_weights(rho: DensityOperator) -> dict[int, float]:
    """Weight carried by each site-A register-occupation sector of ``rho``."""
    return {n: weight for n, weight, _ in _register_sectors(rho)}


def _register_sector_blocks(rho: DensityOperator):
    """Yield (n, weight, entropy of entanglement) for each sector of
    ``_register_sectors``.

    Each block must be pure up to PURITY_TOL (as the transfer protocol and its
    conditional measurements make it); its entropy is the Schmidt entropy of
    its top eigenvector.
    """
    if not rho.layout.indices(site="A", kind="register"):
        raise LayoutError("no register modes at site 'A'")
    for n, weight, rows in _register_sectors(rho):
        evals, evecs = np.linalg.eigh(rho.matrix[np.ix_(rows, rows)])
        if evals[-1] < weight * (1.0 - PURITY_TOL):
            raise StateValidationError(
                f"sector n={n} is not pure: top eigenvalue {evals[-1]} of weight {weight}"
            )
        yield n, weight, _schmidt_entropy(rho.layout, [rho.basis[i] for i in rows],
                                          evecs[:, -1])


def register_sector_entanglement(rho: DensityOperator) -> float:
    """Entanglement of a register mixture whose blocks are sector-pure:
    the weight-averaged per-sector entropy of entanglement."""
    return sum(weight * entropy for _, weight, entropy in _register_sector_blocks(rho))


def register_sector_table(rho: DensityOperator) -> list[dict]:
    """Per-sector weights (the ``register_sector_weights`` values) and
    entanglements of a register mixture."""
    return [{"n": n, "weight": weight, "entanglement": entropy}
            for n, weight, entropy in _register_sector_blocks(rho)]
