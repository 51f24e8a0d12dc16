"""Local-particle-number sectors and the sector-averaged entanglement measure.

Local operations cannot create coherences between subspaces with different
particle counts at one site, so the operationally accessible entanglement of
a shared-particle state is the probability-weighted average of the per-sector
entropies of entanglement, not the entropy of the state itself.  A sector is
keyed by a local number, the summed occupation of one kind of mode at one
site, which ``_local_numbers`` counts for every label; ``_sectors`` groups
rows by their key in one pass, and each table of sector entropies comes from
one batched SVD of the sectors' zero-padded amplitude matrices; a table of
register sectors adds one batched ``eigh`` of its zero-padded sector blocks
before it.  Where a block's shape decides the result, neither runs: a sector
whose amplitude matrix is one row or one column (every sector, with one mode
per site and a fixed total) is a product state of entropy +0.0, and a
register table whose sectors are each one basis label has 1 x 1 blocks,
each its own top eigenvalue and a product state.  Register modes never count
toward the local particle number: they model ordinary distinguishable
qubits, which the superselection rule does not constrain.
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
    _check_both_sites,
    _schmidt_entropies,
)

SECTOR_DROP_TOL = 1e-14
PURITY_TOL = 1e-9


def _local_numbers(layout: ModeLayout, labels, site: str, kind: str) -> list[int]:
    """Summed occupation of the ``kind`` modes at ``site`` in each of ``labels``."""
    idx = layout.indices(site=site, kind=kind)
    return [sum(label[i] for i in idx) for label in labels]


def _sectors(keys, weights):
    """Yield (key, weight, rows) for each distinct key of ``keys``, one per
    row (a row keyed None belongs to no sector), whose summed row ``weights``
    reach SECTOR_DROP_TOL, in increasing key."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    groups.pop(None, None)
    for key, rows in sorted(groups.items()):
        weight = sum(weights[i] for i in rows)
        if weight >= SECTOR_DROP_TOL:
            yield key, weight, rows


def local_particle_number(layout: ModeLayout, label: tuple[int, ...], site: str) -> int:
    """Particles in the field modes at ``site`` (register modes excluded)."""
    return _local_numbers(layout, [layout.check_label(label)], site, "field")[0]


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


def _site_a_sectors(state: PureState):
    """(n, P_n, labels, amplitudes) of each site-A field-number sector of
    ``state`` whose weight reaches SECTOR_DROP_TOL, in increasing n."""
    labels = list(state.amplitudes)
    amps = list(state.amplitudes.values())
    return [(n, p, [labels[i] for i in rows], [amps[i] for i in rows])
            for n, p, rows in _sectors(_local_numbers(state.layout, labels, "A", "field"),
                                       [abs(a) ** 2 for a in amps])]


def sector_decompose(state: PureState) -> SectorDecomposition:
    """Split a normalized state by particle count at site A.

    Sectors with weight below SECTOR_DROP_TOL are discarded.  Each sector
    state is renormalized and its global phase fixed by making the
    largest-magnitude amplitude real and positive, so decompositions are
    deterministic and safe to freeze in golden tests.
    """
    sectors = []
    for n, p, labels, amps in _site_a_sectors(state):
        anchor = max(amps, key=abs)
        phase = anchor / abs(anchor)
        fixed = {l: a / phase for l, a in zip(labels, amps)}
        sectors.append(Sector(n, p, PureState(state.layout, fixed, normalize=True)))
    return SectorDecomposition(tuple(sectors))


def particle_sector_table(state: PureState) -> list[dict]:
    """Rows ``{"n", "p", "entanglement"}``: each site-A sector's probability
    P_n and the entropy of entanglement E_n of its normalized state.  The
    entropies come from one batched Schmidt decomposition, or from none when
    every sector is one row or one column; their scale does not matter, so
    the sectors are not renormalized."""
    sectors = _site_a_sectors(state)
    entropies = _schmidt_entropies(state.layout,
                                   [(labels, amps) for _, _, labels, amps in sectors])
    return [{"n": n, "p": p, "entanglement": entropy}
            for (n, p, _, _), entropy in zip(sectors, entropies)]


def particle_entanglement(state: PureState) -> float:
    """Sector-probability-weighted entanglement, sum_n P_n E(state_n), in bits."""
    return sum(row["p"] * row["entanglement"] for row in particle_sector_table(state))


def _register_numbers(rho: DensityOperator, site: str = "A") -> list[int]:
    """Register number at ``site`` of each basis label of ``rho`` (with no
    register mode there every label has number 0)."""
    return _local_numbers(rho.layout, rho.basis, site, "register")


def register_sector_weights(rho: DensityOperator) -> dict[int, float]:
    """Weight carried by each site-A register-occupation sector of ``rho``."""
    return {n: weight for n, weight, _ in
            _sectors(_register_numbers(rho), rho.matrix.diagonal().real.tolist())}


def _check_pure(sectors, top) -> None:
    """Raise ``StateValidationError`` for the first of the ``_sectors``
    (key, weight, rows) triples whose block's top eigenvalue in ``top`` falls
    below its weight by more than PURITY_TOL."""
    for (key, weight, _), value in zip(sectors, top):
        if value < weight * (1.0 - PURITY_TOL):
            raise StateValidationError(
                f"sector n={key} is not pure: top eigenvalue {value} of weight {weight}"
            )


def _register_sector_blocks(rho: DensityOperator, keys):
    """(key, weight, entropy of entanglement) for each sector that
    ``_sectors`` makes of the rows of ``rho`` keyed by ``keys`` and weighted
    by its diagonal; the register tables key the rows by their site-A
    register number.

    Each block must be pure up to PURITY_TOL (as the transfer protocol and its
    conditional measurements make it); its entropy is the Schmidt entropy of
    its top eigenvector.  The blocks are zero-padded into one stack and
    diagonalized by a single batched ``eigh``; padding adds only zero
    eigenvalues, below the top one of a block with weight.  When every sector
    is one basis label, each block is 1 x 1: its top eigenvalue is its
    diagonal entry (what ``eigh`` returns for it, the entry's real part), its
    eigenvector one label, a product state of entropy +0.0, so the purity
    check runs on the diagonal and no stack, ``eigh`` or SVD is needed.
    """
    if not rho.layout.indices(site="A", kind="register"):
        raise LayoutError("no register modes at site 'A'")
    diagonal = rho.matrix.diagonal().real.tolist()
    sectors = list(_sectors(keys, diagonal))
    if all(len(rows) == 1 for _, _, rows in sectors):
        _check_pure(sectors, [diagonal[rows[0]] for _, _, rows in sectors])
        _check_both_sites(rho.layout)
        return [(key, weight, 0.0) for key, weight, _ in sectors]
    size = max(len(rows) for _, _, rows in sectors)
    # One gather builds the stack: a short block's rows are padded with
    # index dim, the all-zero last row and column of the bordered matrix.
    dim = len(rho.basis)
    index = np.array([rows + [dim] * (size - len(rows)) for _, _, rows in sectors],
                     dtype=np.intp)
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = rho.matrix
    stack = bordered[index[:, :, None], index[:, None, :]]
    evals, evecs = np.linalg.eigh(stack)
    _check_pure(sectors, evals[:, -1].tolist())
    entropies = _schmidt_entropies(
        rho.layout, [([rho.basis[i] for i in rows], evecs[g, :len(rows), -1])
                     for g, (_, _, rows) in enumerate(sectors)])
    return [(key, weight, entropy) for (key, weight, _), entropy in zip(sectors, entropies)]


def register_sector_entanglement(rho: DensityOperator) -> float:
    """Entanglement of a register mixture whose blocks are sector-pure:
    the weight-averaged per-sector entropy of entanglement."""
    return sum((weight * entropy
                for _, weight, entropy in _register_sector_blocks(rho, _register_numbers(rho))),
               0.0)


def register_sector_table(rho: DensityOperator) -> list[dict]:
    """Per-sector weights (the ``register_sector_weights`` values) and
    entanglements of a register mixture."""
    return [{"n": n, "weight": weight, "entanglement": entropy}
            for n, weight, entropy in _register_sector_blocks(rho, _register_numbers(rho))]
