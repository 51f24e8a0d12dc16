"""Finite-dimensional bosonic mode registers: sparse pure states, reduced
density operators, entropies and distances.

States live on an ordered ``ModeLayout``; a basis label is a tuple of
occupations aligned with the layout.  Amplitudes are stored sparsely
(label -> complex) because every protocol map in this package is a basis
permutation and preserves exact sparsity.  A split pure state is one matrix
Psi[kept label, other label]: its partial trace is Psi Psi^dagger, its
entropy of entanglement that of Psi's squared singular values.  All entropies
are base-2 (bits / ebits).
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass

import numpy as np

# Storage / validation tolerances.  Amplitudes below AMP_DROP_TOL are not
# stored; eigenvalues below EIG_CLIP are treated as exact zeros in entropy
# sums (numerically rank-deficient reductions otherwise feed log(0) noise).
AMP_DROP_TOL = 1e-15
NORM_TOL = 1e-10
HERM_TOL = 1e-12
PSD_TOL = 1e-10
EIG_CLIP = 1e-12

SITES = ("A", "B")
KINDS = ("field", "register")


class LayoutError(ValueError):
    """Mode layout conflict: duplicate/unknown ids or wrong mode kind."""


class CapacityError(ValueError):
    """An operation would push a mode past its occupation capacity."""


class StateValidationError(ValueError):
    """A state or operator violates its structural invariants."""


@dataclass(frozen=True)
class ModeDescriptor:
    """One bosonic mode: unique id, site (A/B), kind and max occupation.

    ``field`` modes hold the indistinguishable particles subject to the
    local-number superselection rule; ``register`` modes model ordinary
    local quantum registers (qudits) and never count toward local particle
    number.
    """

    id: str
    site: str
    kind: str = "field"
    capacity: int = 1

    def __post_init__(self):
        if self.site not in SITES:
            raise LayoutError(f"unknown site {self.site!r}; expected one of {SITES}")
        if self.kind not in KINDS:
            raise LayoutError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.capacity < 0:
            raise LayoutError(f"mode {self.id!r}: capacity must be >= 0")


@dataclass(frozen=True)
class ModeLayout:
    """Ordered collection of modes; the order fixes basis-label positions."""

    modes: tuple[ModeDescriptor, ...]

    def __post_init__(self):
        ids = [m.id for m in self.modes]
        if len(set(ids)) != len(ids):
            raise LayoutError(f"duplicate mode ids in layout: {ids}")

    def __len__(self) -> int:
        return len(self.modes)

    def ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.modes)

    def index(self, mode_id: str) -> int:
        for i, m in enumerate(self.modes):
            if m.id == mode_id:
                return i
        raise LayoutError(f"unknown mode id {mode_id!r}")

    def indices(self, site: str | None = None, kind: str | None = None) -> list[int]:
        """Positions of modes matching the given site and/or kind."""
        out = []
        for i, m in enumerate(self.modes):
            if site is not None and m.site != site:
                continue
            if kind is not None and m.kind != kind:
                continue
            out.append(i)
        return out

    def sites(self) -> set[str]:
        return {m.site for m in self.modes}

    def sublayout(self, keep: list[int]) -> "ModeLayout":
        return ModeLayout(tuple(self.modes[i] for i in keep))

    def check_label(self, label: tuple[int, ...]) -> None:
        if len(label) != len(self.modes):
            raise StateValidationError(
                f"label length {len(label)} != layout size {len(self.modes)}"
            )
        for occ, m in zip(label, self.modes):
            if occ < 0 or occ > m.capacity:
                raise CapacityError(
                    f"occupation {occ} outside [0, {m.capacity}] for mode {m.id!r}"
                )


def layout_of(*modes: ModeDescriptor) -> ModeLayout:
    return ModeLayout(tuple(modes))


class PureState:
    """Normalized sparse amplitude assignment over occupation labels.

    ``amplitudes`` is a read-only mapping: a state never changes after
    construction, so work planned on it (the phase-difference POVM's
    grouping) stays valid for as long as the object lives.
    """

    def __init__(self, layout: ModeLayout, amplitudes: dict[tuple[int, ...], complex],
                 normalize: bool = False):
        amps = {}
        for label, amp in amplitudes.items():
            label = tuple(int(x) for x in label)
            layout.check_label(label)
            amp = complex(amp)
            if abs(amp) >= AMP_DROP_TOL:
                amps[label] = amps.get(label, 0.0 + 0.0j) + amp
        amps = {l: a for l, a in amps.items() if abs(a) >= AMP_DROP_TOL}
        if not amps:
            raise StateValidationError("state has no amplitude above the drop threshold")
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        if normalize:
            amps = {l: a / norm for l, a in amps.items()}
        elif abs(norm - 1.0) > NORM_TOL:
            raise StateValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        self.layout = layout
        self.amplitudes = types.MappingProxyType(amps)

    @classmethod
    def basis_state(cls, layout: ModeLayout, label: tuple[int, ...]) -> "PureState":
        return cls(layout, {tuple(label): 1.0})

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def overlap(self, other: "PureState") -> complex:
        """<self|other> over a common layout."""
        if self.layout.ids() != other.layout.ids():
            raise LayoutError("overlap requires identical layouts")
        if len(self.amplitudes) > len(other.amplitudes):
            return other.overlap(self).conjugate()
        return sum(a.conjugate() * other.amplitudes.get(l, 0.0)
                   for l, a in self.amplitudes.items())

    def map_labels(self, fn) -> "PureState":
        """Apply an injective label map ``fn(label) -> label`` (basis permutation)."""
        out: dict[tuple[int, ...], complex] = {}
        for label, amp in self.amplitudes.items():
            new = fn(label)
            if new in out:
                raise StateValidationError(
                    f"label map is not injective on the state support (collision at {new})"
                )
            out[new] = amp
        return PureState(self.layout, out)

    def __repr__(self):
        return f"PureState({len(self.amplitudes)} terms over {self.layout.ids()})"


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Product state on the concatenated layout; mode ids must be disjoint."""
    shared = set(a.layout.ids()) & set(b.layout.ids())
    if shared:
        raise LayoutError(f"tensor product with shared mode ids {sorted(shared)}")
    layout = ModeLayout(a.layout.modes + b.layout.modes)
    amps = {
        la + lb: aa * ab
        for la, aa in a.amplitudes.items()
        for lb, ab in b.amplitudes.items()
    }
    return PureState(layout, amps)


class DensityOperator:
    """Hermitian, PSD, unit-trace operator over an explicit label basis.

    ``basis`` lists occupation labels in lexicographic order; ``matrix`` is
    the dense representation in that basis.  ``check_trace=False`` relaxes
    only the unit-trace requirement (used by the deliberately unnormalized
    phase-grid reconstruction, and by the reference phase shift, which keeps
    its input's trace); hermiticity and positivity always hold.
    """

    def __init__(self, layout: ModeLayout, basis: list[tuple[int, ...]],
                 matrix: np.ndarray, check_trace: bool = True):
        basis = [tuple(int(x) for x in label) for label in basis]
        for label in basis:
            layout.check_label(label)
        if sorted(basis) != basis:
            raise StateValidationError("basis labels must be in lexicographic order")
        if len(set(basis)) != len(basis):
            raise StateValidationError("duplicate basis labels")
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (len(basis), len(basis)):
            raise StateValidationError(
                f"matrix shape {matrix.shape} does not match basis size {len(basis)}"
            )
        herm_err = np.max(np.abs(matrix - matrix.conj().T)) if len(basis) else 0.0
        if herm_err > HERM_TOL:
            raise StateValidationError(f"matrix not Hermitian: max deviation {herm_err}")
        evals = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
        if evals.size and evals.min() < -PSD_TOL:
            raise StateValidationError(f"matrix not PSD: min eigenvalue {evals.min()}")
        tr = float(np.real(np.trace(matrix)))
        if check_trace and abs(tr - 1.0) > NORM_TOL:
            raise StateValidationError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        self.layout = layout
        self.basis = basis
        self.matrix = matrix
        self._index = {label: i for i, label in enumerate(basis)}

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityOperator":
        basis = sorted(state.amplitudes)
        vec = np.array([state.amplitudes[l] for l in basis], dtype=complex)
        return cls(state.layout, basis, np.outer(vec, vec.conj()))

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def index(self, label: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(label)]
        except KeyError:
            raise StateValidationError(f"label {label} not in operator basis") from None

    def __repr__(self):
        return f"DensityOperator(dim={len(self.basis)} over {self.layout.ids()})"


def _amplitude_matrix(layout: ModeLayout, labels, amps, keep_idx: list[int]):
    """(sorted kept labels, Psi[kept label, other label]) of pure amplitudes."""
    drop_idx = [i for i in range(len(layout)) if i not in keep_idx]
    rows, cols, other = [], [], {}
    for label in labels:
        rows.append(tuple(label[i] for i in keep_idx))
        cols.append(other.setdefault(tuple(label[i] for i in drop_idx), len(other)))
    basis = sorted(set(rows))
    index = {l: i for i, l in enumerate(basis)}
    psi = np.zeros((len(basis), len(other)), dtype=complex)
    psi[[index[l] for l in rows], cols] = list(amps)
    return basis, psi


def _entropy_bits(probs: np.ndarray) -> float:
    """-sum_i p_i log2 p_i in bits; entries below the clip threshold count as
    exact zeros.  Clamped at 0: a pure operator would otherwise give -0.0, and
    one within rounding of pure a tiny negative."""
    probs = probs[probs > EIG_CLIP]
    return max(0.0, float(-np.sum(probs * np.log2(probs))))


def _schmidt_entropy(layout: ModeLayout, labels, amps) -> float:
    """Entropy (bits) of the squared singular values of Psi split at site A."""
    if layout.sites() != {"A", "B"}:
        raise LayoutError("entropy of entanglement needs both sites in the layout")
    _, psi = _amplitude_matrix(layout, labels, amps, layout.indices(site="A"))
    probs = np.linalg.svd(psi, compute_uv=False) ** 2
    # Over their sum, so a rank-one Psi gives exactly [1.0] and entropy 0.0.
    return _entropy_bits(probs / probs.sum())


def partial_trace(state: PureState, keep: set[str] | list[str]) -> DensityOperator:
    """Reduce a pure state to the modes in ``keep`` (by id): Psi Psi^dagger."""
    keep = set(keep)
    unknown = keep - set(state.layout.ids())
    if unknown:
        raise LayoutError(f"cannot keep unknown mode ids {sorted(unknown)}")
    keep_idx = [i for i, m in enumerate(state.layout.modes) if m.id in keep]
    basis, psi = _amplitude_matrix(state.layout, state.amplitudes.keys(),
                                   state.amplitudes.values(), keep_idx)
    return DensityOperator(state.layout.sublayout(keep_idx), basis, psi @ psi.conj().T)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum_i lam_i log2 lam_i in bits, by ``_entropy_bits``."""
    herm_err = np.max(np.abs(rho.matrix - rho.matrix.conj().T))
    if herm_err > HERM_TOL:
        raise StateValidationError(f"operator not Hermitian: deviation {herm_err}")
    return _entropy_bits(np.linalg.eigvalsh(rho.matrix))


def entropy_of_entanglement(state: PureState) -> float:
    """Entropy (bits) of the reduction onto all site-A modes."""
    return _schmidt_entropy(state.layout, state.amplitudes.keys(),
                            state.amplitudes.values())


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)| over a common basis."""
    if rho.basis != sigma.basis or rho.layout.ids() != sigma.layout.ids():
        raise StateValidationError("trace distance requires identical bases")
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
