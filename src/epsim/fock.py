"""Finite-dimensional bosonic mode registers: sparse pure states, reduced
density operators, entropies and distances.

States live on an ordered ``ModeLayout``; a basis label is a tuple of
integer occupations aligned with the layout, checked by
``ModeLayout.check_label`` alone.  Amplitudes are stored sparsely
(label -> complex) because every protocol map in this package is a basis
permutation and preserves exact sparsity.  ``PureState(layout, amplitudes)``
is the one public constructor: it checks a mapping term by term and never
sums two terms.  The protocol's final state, thousands of rows built valid
by construction, is stored from arrays through the private tail
``PureState._from_rows``, which keeps only the steps that decide what is
stored.  Both, and ``parse_state``, take a norm from ``_norm``, the one sum
of squared moduli.
A split pure state is one matrix Psi[kept label, other label]: its partial
trace is Psi Psi^dagger, its entropy of entanglement that of Psi's squared
singular values.  A table of such entropies (the sectors of one state) is
one batched SVD of the matrices zero-padded into one stack, unless every
matrix has a single row or a single column: such a Psi has one Schmidt
coefficient, so the shape alone decides each entropy, +0.0, and no SVD
runs.  All entropies are base-2 (bits / ebits).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
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


_MODULUS_OVERFLOW = "an amplitude is not finite or its modulus passes the largest float"
_NO_AMPLITUDE = "state has no amplitude above the drop threshold"


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

    def check_label(self, label) -> tuple[int, ...]:
        """``label`` as a tuple of ints, once it holds one integer per mode
        (by ``operator.index``: no float passes) within [0, capacity].  Each
        error names the label and the mode."""
        if len(label) != len(self.modes):
            raise StateValidationError(
                f"label {label} has {len(label)} occupations for the "
                f"{len(self.modes)} modes {self.ids()}")
        out = []
        for occ, m in zip(label, self.modes):
            try:
                n = operator.index(occ)
            except TypeError:
                raise StateValidationError(
                    f"label {label}: occupation {occ!r} of mode {m.id!r} is not an integer"
                ) from None
            if n < 0 or n > m.capacity:
                raise CapacityError(
                    f"label {label}: occupation {n} of mode {m.id!r} outside [0, {m.capacity}]")
            out.append(n)
        return tuple(out)


def layout_of(*modes: ModeDescriptor) -> ModeLayout:
    return ModeLayout(tuple(modes))


class PureState:
    """Normalized sparse amplitude assignment over occupation labels.

    ``PureState(layout, amplitudes)`` takes a mapping label -> amplitude and
    checks it term by term: each label by ``ModeLayout.check_label``, each
    modulus, and a repeated label; it never sums two terms.  The private
    ``_from_rows`` stores the rows ``transfer_final_state`` builds, already
    valid, with the same drop, norm and amplitude bits; both end in
    ``_store``.

    ``amplitudes`` is a read-only mapping: a state never changes after
    construction, so work planned on it (the phase-difference POVM's
    grouping) stays valid for as long as the object lives.
    """

    def __init__(self, layout: ModeLayout, amplitudes: dict[tuple[int, ...], complex],
                 normalize: bool = False):
        _store(self, layout, *_checked_terms(layout, amplitudes.items()), normalize)

    @classmethod
    def _from_rows(cls, layout: ModeLayout, labels: np.ndarray, amps: np.ndarray) -> "PureState":
        """The state the mapping constructor builds from the terms
        (labels[t], amps[t]), for rows that are already valid: ``labels`` a
        (T, L) integer array of distinct labels of ``layout``, ``amps`` T
        complex amplitudes of modulus at most 1.  ``transfer_final_state``
        builds such rows by construction, so none of that is checked again.
        Moduli come from ``np.hypot``, which rounds as Python's ``abs``
        does, so the drop, the norm and every stored bit match the mapping
        constructor's; labels keep their input order.
        """
        moduli = np.hypot(amps.real, amps.imag)
        # Written so that NaN is kept and then rejected by ``_store``, as in
        # the mapping constructor, which adds each amplitude to 0j and so
        # turns a -0.0 part into +0.0.
        kept = ~(moduli < AMP_DROP_TOL)
        terms = dict(zip(map(tuple, labels[kept].tolist()), (amps[kept] + 0.0).tolist()))
        return _store(object.__new__(cls), layout, terms, moduli[kept].tolist(), False)

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


def _checked_terms(layout: ModeLayout, terms) -> tuple[dict, list[float]]:
    """The stored mapping of (label, amplitude) pairs, and its moduli:
    labels checked, amplitudes below ``AMP_DROP_TOL`` dropped, a repeated
    kept label rejected, each kept one added to 0j (-0.0 parts become +0.0)."""
    amps, moduli = {}, []
    try:
        for label, amp in terms:
            label = layout.check_label(label)
            amp = complex(amp)
            modulus = abs(amp)
            # Written so that NaN is kept (every comparison with it is
            # false) and then rejected with the norm, not silently dropped.
            if not modulus < AMP_DROP_TOL:
                if label in amps:
                    raise StateValidationError(f"label {label} repeats")
                amps[label] = 0j + amp
                moduli.append(modulus)
        return amps, moduli
    except OverflowError:
        # abs() raises for finite parts whose modulus passes the largest
        # float, and for NaN parts when a failed float operation before
        # it left errno set (CPython's complex abs reads errno).
        raise StateValidationError(_MODULUS_OVERFLOW) from None


def _norm(moduli: list[float]) -> float:
    """sqrt of the sum of ``moduli`` squared by ``math.pow`` (which rounds
    as Python's ``**``) in order, or through the largest modulus where that
    sum passes the largest float; not finite where a modulus is not."""
    try:
        total = sum(map(math.pow, moduli, itertools.repeat(2.0)))
    except OverflowError:
        total = math.inf
    if total == math.inf and all(map(math.isfinite, moduli)):
        top = max(moduli)
        return top * math.sqrt(sum(math.pow(m / top, 2.0) for m in moduli))
    return math.sqrt(total)


def _store(state, layout: ModeLayout, terms: dict, moduli: list, normalize: bool) -> PureState:
    """``state`` holding ``terms`` on ``layout``, whose norm (``_norm`` of
    ``moduli``) is finite and within ``NORM_TOL`` of 1 or divided out."""
    if not terms:
        raise StateValidationError(_NO_AMPLITUDE)
    norm = _norm(moduli)
    if not math.isfinite(norm):
        raise StateValidationError(f"state norm {norm}: an amplitude is not finite")
    if normalize:
        terms = {l: a / norm for l, a in terms.items()}
    elif abs(norm - 1.0) > NORM_TOL:
        raise StateValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
    state.layout = layout
    state.amplitudes = types.MappingProxyType(terms)
    return state


class DensityOperator:
    """Hermitian, PSD, unit-trace operator over an explicit label basis.

    ``basis`` lists occupation labels in lexicographic order; ``matrix`` is
    the dense representation in that basis.  ``check_trace=False`` relaxes
    only the unit-trace requirement (used by the deliberately unnormalized
    phase-grid reconstruction); finiteness, hermiticity and positivity
    always hold.  ``with_matrix`` puts another matrix on an operator's
    already-checked layout and basis, running every matrix check again, the
    unit trace included, but none of the basis checks.
    """

    def __init__(self, layout: ModeLayout, basis: list[tuple[int, ...]],
                 matrix: np.ndarray, check_trace: bool = True):
        basis = [layout.check_label(label) for label in basis]
        if sorted(basis) != basis:
            raise StateValidationError("basis labels must be in lexicographic order")
        if len(set(basis)) != len(basis):
            raise StateValidationError("duplicate basis labels")
        self.layout = layout
        self.basis = basis
        self.matrix = _checked_matrix(matrix, len(basis), check_trace)
        self._index = {label: i for i, label in enumerate(basis)}

    def with_matrix(self, matrix: np.ndarray) -> "DensityOperator":
        """Operator with ``matrix`` on this one's layout and basis.

        Accepts or rejects exactly as ``DensityOperator(self.layout,
        self.basis, matrix)`` does; the result gets its own copy of the
        basis list.
        """
        out = object.__new__(DensityOperator)
        out.layout = self.layout
        out.basis = list(self.basis)
        out.matrix = _checked_matrix(matrix, len(self.basis), check_trace=True)
        out._index = self._index
        return out

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def index(self, label: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(label)]
        except KeyError:
            raise StateValidationError(f"label {label} not in operator basis") from None

    def __repr__(self):
        return f"DensityOperator(dim={len(self.basis)} over {self.layout.ids()})"


def _checked_matrix(matrix, size: int, check_trace: bool) -> np.ndarray:
    """``matrix`` as a complex array, once it is size x size, finite,
    Hermitian, PSD and (with ``check_trace``) of unit trace."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (size, size):
        raise StateValidationError(
            f"matrix shape {matrix.shape} does not match basis size {size}"
        )
    # Every comparison with NaN is false, so the checks below would pass it.
    if not np.isfinite(matrix).all():
        raise StateValidationError("matrix has non-finite entries")
    # Halved first, so that entries near the largest float cannot overflow
    # the difference or the sum below: halving is exact but for subnormal
    # entries, and the factor 2 comes back in Python floats, which reach inf
    # without a warning.
    half = matrix / 2.0
    half_adj = half.conj().T
    herm_err = 2.0 * float(np.abs(half - half_adj).max()) if size else 0.0
    if herm_err > HERM_TOL:
        raise StateValidationError(f"matrix not Hermitian: max deviation {herm_err}")
    evals = np.linalg.eigvalsh(half + half_adj)
    if evals.size and evals.min() < -PSD_TOL:
        raise StateValidationError(f"matrix not PSD: min eigenvalue {evals.min()}")
    if check_trace:
        # Summed in Python floats, like the factor 2 above: a diagonal whose
        # sum passes the largest float gives an infinite trace, rejected below.
        tr = 2.0 * sum(half.diagonal().real.tolist())
        if abs(tr - 1.0) > NORM_TOL:
            raise StateValidationError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
    return matrix


def _split(labels, row_key, col_key):
    """Where each label's amplitude sits in Psi[row, column]: (sorted distinct
    row keys, row of each label, column of each label, number of columns),
    with columns numbered in order of first appearance."""
    keys = list(map(row_key, labels))
    basis = sorted(set(keys))
    index = {key: i for i, key in enumerate(basis)}
    other: dict = {}
    cols = [other.setdefault(col_key(label), len(other)) for label in labels]
    return basis, [index[key] for key in keys], cols, len(other)


def _entropy_bits(probs: np.ndarray) -> np.ndarray:
    """-sum_i p_i log2 p_i in bits over the last axis; entries at or below the
    clip threshold count as exact zeros (as 1 log2 1).  Clamped at +0.0: a
    pure operator would otherwise give -0.0, and one within rounding of pure a
    tiny negative."""
    probs = np.where(probs > EIG_CLIP, probs, 1.0)
    # Adding +0.0 turns a -0.0 that np.maximum passes through into +0.0.
    return np.maximum(-(probs * np.log2(probs)).sum(axis=-1), 0.0) + 0.0


def _check_both_sites(layout: ModeLayout) -> None:
    """Raise ``LayoutError`` unless ``layout`` holds modes at both sites, as
    a split at site A needs."""
    if layout.sites() != {"A", "B"}:
        raise LayoutError("entropy of entanglement needs both sites in the layout")


def _schmidt_entropies(layout: ModeLayout, blocks) -> list[float]:
    """Entropy (bits) of the squared singular values of each block's Psi
    split at site A, for ``blocks`` of pure ``(labels, amps)`` pairs (any
    scale).

    The matrices are zero-padded into one ``(G, a, b)`` stack, filled by one
    assignment and decomposed by a single batched SVD; padding adds only zero
    singular values.  When every block has a single distinct site-A label or
    a single distinct site-B label, each Psi is one row or one column, with
    one Schmidt coefficient: every entropy is +0.0, exactly what the SVD
    route gives for it, and no stack is built.  The shape is read per block,
    not from the stack: one row beside one column pads to a 2 x 2 stack.
    """
    _check_both_sites(layout)
    keep_idx = layout.indices(site="A")
    # Both sites hold modes, so each getter takes at least one position.  The
    # keys of a single mode are bare occupations, which sort as their
    # 1-tuples do.
    row_key = operator.itemgetter(*keep_idx)
    col_key = operator.itemgetter(*(i for i in range(len(layout)) if i not in keep_idx))
    where: tuple[list, list, list] = ([], [], [])
    values: list = []
    n_rows = n_cols = 0
    one_coefficient = True
    for g, (labels, amps) in enumerate(blocks):
        basis, rows, cols, width = _split(labels, row_key, col_key)
        one_coefficient = one_coefficient and (len(basis) == 1 or width == 1)
        where[0].extend([g] * len(rows))
        where[1].extend(rows)
        where[2].extend(cols)
        values.extend(amps)
        n_rows, n_cols = max(n_rows, len(basis)), max(n_cols, width)
    if one_coefficient:
        return [0.0] * len(blocks)
    stack = np.zeros((len(blocks), n_rows, n_cols), dtype=complex)
    stack[where] = values
    probs = np.linalg.svd(stack, compute_uv=False) ** 2
    # Over their sum, so a rank-one Psi gives exactly [1.0, 0, ...] and entropy 0.0.
    return _entropy_bits(probs / probs.sum(axis=-1, keepdims=True)).tolist()


def partial_trace(state: PureState, keep: set[str] | list[str]) -> DensityOperator:
    """Reduce a pure state to the modes in ``keep`` (by id): Psi Psi^dagger."""
    keep = set(keep)
    unknown = keep - set(state.layout.ids())
    if unknown:
        raise LayoutError(f"cannot keep unknown mode ids {sorted(unknown)}")
    keep_idx = [i for i, m in enumerate(state.layout.modes) if m.id in keep]
    drop_idx = [i for i in range(len(state.layout)) if i not in keep_idx]
    basis, rows, cols, width = _split(state.amplitudes.keys(),
                                      lambda label: tuple(label[i] for i in keep_idx),
                                      lambda label: tuple(label[i] for i in drop_idx))
    psi = np.zeros((len(basis), width), dtype=complex)
    psi[rows, cols] = list(state.amplitudes.values())
    return DensityOperator(state.layout.sublayout(keep_idx), basis, psi @ psi.conj().T)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum_i lam_i log2 lam_i in bits, by ``_entropy_bits``.

    An operator built with ``check_trace=False`` may have eigenvalues whose
    terms, up to 1024 lam each, would overflow that sum; it raises
    ``StateValidationError``.
    """
    herm_err = np.max(np.abs(rho.matrix - rho.matrix.conj().T))
    if herm_err > HERM_TOL:
        raise StateValidationError(f"operator not Hermitian: deviation {herm_err}")
    evals = np.linalg.eigvalsh(rho.matrix)
    # Python floats reach inf without a warning.
    if evals.size and float(evals[-1]) * 1024.0 * evals.size > sys.float_info.max:
        raise StateValidationError(
            f"eigenvalue {evals[-1]} too large for a finite entropy sum")
    return float(_entropy_bits(evals))


def entropy_of_entanglement(state: PureState) -> float:
    """Entropy (bits) of the reduction onto all site-A modes."""
    [entropy] = _schmidt_entropies(
        state.layout, [(state.amplitudes.keys(), state.amplitudes.values())])
    return entropy


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)| over a common basis."""
    if rho.basis != sigma.basis or rho.layout.ids() != sigma.layout.ids():
        raise StateValidationError("trace distance requires identical bases")
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
