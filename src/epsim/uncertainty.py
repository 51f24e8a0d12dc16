"""Number-phase uncertainty bounds on a truncated two-mode space.

A two-mode state over occupations 0..s of each mode is a product
Psi = a (x) b, given as its two factor vectors ``(a, b)``.  On s+1 levels
the Pegg-Barnett unitary
E = e^{i phi} = sum_m e^{i theta_m} |theta_m><theta_m|, theta_m = 2 pi m/(s+1),
is exactly the cyclic lowering shift |n> -> |n-1>, |0> -> |s>, so the pair
expectations <E_A^k E_B^{dagger k}> behind the phase-difference cos D and
sin D are products of one-mode overlaps of each factor with its own cyclic
shift, taken on slices without a shifted copy, O(d), and no operator on the
pair space or on one mode is built.
For states supported away from the truncation boundary ("physical" states)
the Robertson relations of cos D and sin D against the local and relative
number operators bound the achievable squared fringe visibility
|C|^2 = |<e^{i(phi_A - phi_B)}>|^2 by the number variances.  The checks
take one pair ``(a, b)`` or a pair of (k, s+1) stacks of factors, k states
reduced in one pass along the last axis; one pair is the k = 1 case, and a
stack is rejected as a whole at its first unphysical row, as a pair is.  The
amplitude matrix route and the dense phase-state constructions are the
test oracles (tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .fock import (NORM_TOL, LayoutError, ModeDescriptor, ModeLayout, PureState,
                   StateValidationError)
from .protocol import _complex_product, coherent_coefficients

PHYSICAL_TAIL_TOL = 1e-10
SLACK_TOL = -1e-9


class PhysicalityError(ValueError):
    """State has non-negligible weight near the truncation boundary."""


class PhaseOperatorSpace:
    """One mode truncated to occupations 0..s (dimension s+1)."""

    def __init__(self, s: int):
        if s < 1:
            raise ValueError("truncation s must be >= 1")
        self.s = s
        self.dim = s + 1
        self.number_sq = np.arange(self.dim, dtype=float) ** 2


class InequalityCheck(NamedTuple):
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= SLACK_TOL


class UncertaintyReport(NamedTuple):
    """Moments and inequality slacks for one two-mode state; with no
    ``checks`` it is the moment record the checks are built from."""

    var_n_a: float
    var_n_b: float
    var_n_diff: float
    cos_mean: float
    sin_mean: float
    var_cos: float
    var_sin: float
    visibility_sq: float
    trig_identity_residual: float
    checks: tuple[InequalityCheck, ...] = ()

    @property
    def min_slack(self) -> float:
        return min(c.slack for c in self.checks)


class _Sums(NamedTuple):
    """What the moments need from a stack of k product states, one entry
    per row: x_k = <E_A^k E_B^{dagger k}> (k = 1, 2), the number marginals
    pa, pb (k, s+1) and their means <N_A>, <N_B>."""

    x1: np.ndarray
    x2: np.ndarray
    pa: np.ndarray
    pb: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray


def _shift_overlap(v: np.ndarray, k: int) -> np.ndarray:
    """<v|E^k|v> = sum_n conj(v_n) v_{(n+k) mod d} for 1 <= k <= d and each
    vector v along the last axis, as the overlaps of the two slice pairs
    the cyclic shift lines up, with no shifted copy of v."""
    return np.vecdot(v[..., :-k], v[..., k:]) + np.vecdot(v[..., -k:], v[..., :k])


def _sums(a: np.ndarray, b: np.ndarray) -> _Sums:
    """Reduce the (k, d) factor stacks of k states Psi = a (x) b along the
    last axis, O(d) per state, both factors in each call.

    The shift expectations factor, x_k = <a|E^k|a> conj(<b|E^k|b>), the
    marginals are |a|^2 ||b||^2 and |b|^2 ||a||^2.
    """
    ab = np.array((a, b))
    w = np.abs(ab) ** 2
    pa, pb = w * w.sum(axis=-1, keepdims=True)[::-1]
    overlaps = np.array([_shift_overlap(ab, k) for k in (1, 2)])   # [shift k, factor, row]
    x1, x2 = _complex_product(overlaps[:, 0], overlaps[:, 1].conj())
    number = np.arange(a.shape[-1], dtype=float)
    return _Sums(x1, x2, pa, pb, np.vecdot(pa, number), np.vecdot(pb, number))


def _moments(sums: _Sums, space: PhaseOperatorSpace) -> list[UncertaintyReport]:
    """One moment record per row of ``sums``.  Past the O(d) reductions the
    arithmetic runs on Python floats: a float's ``** 2`` is C ``pow``, which
    numpy's elementwise square does not match to the last bit everywhere."""
    var_sums = (np.vecdot(sums.pa, space.number_sq).tolist(),
                np.vecdot(sums.pb, space.number_sq).tolist())
    reports = []
    for x1, x2, mean_a, mean_b, sq_a, sq_b in zip(
            sums.x1.tolist(), sums.x2.real.tolist(), sums.mean_a.tolist(),
            sums.mean_b.tolist(), *var_sums):
        cos_mean, sin_mean = x1.real, x1.imag
        var_cos = (x2 + 1.0) / 2.0 - cos_mean ** 2
        var_sin = (1.0 - x2) / 2.0 - sin_mean ** 2
        visibility_sq = abs(x1) ** 2
        var_n_a = sq_a - mean_a ** 2
        var_n_b = sq_b - mean_b ** 2
        # N_A and N_B are independent in a product state: Cov(N_A, N_B) = 0.
        reports.append(UncertaintyReport(
            var_n_a, var_n_b, var_n_a + var_n_b, cos_mean, sin_mean, var_cos, var_sin,
            visibility_sq, var_cos + var_sin - (1.0 - visibility_sq)))
    return reports


def _tail_cutoff(space: PhaseOperatorSpace) -> int:
    return int(math.floor(space.s - math.sqrt(space.s)))


def _per_state(check, state, space: PhaseOperatorSpace):
    """``check`` of each state's moments: one report for a pair, a list with
    one report per row for a stack.

    ``state`` is a tuple of two factors: 1-D vectors of s+1 levels (one
    pair) or (k, s+1) stacks of equal shape (k pairs, row by row); anything
    else is a ``LayoutError``.  Each row is validated on its marginals: a
    norm off 1 raises ``StateValidationError``, and a row with mass above
    occupation floor(s - sqrt(s)) beyond PHYSICAL_TAIL_TOL in either mode
    is unphysical and raises ``PhysicalityError``, whose message names the
    row of a stack.
    """
    if not (isinstance(state, tuple) and len(state) == 2):
        raise LayoutError("state must be a tuple of two factor vectors (a, b)")
    a, b = (np.asarray(v, dtype=complex) for v in state)
    if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[-1] != space.dim:
        raise LayoutError(f"state factors must be vectors of {space.dim} levels "
                          "or equal stacks of them")
    single = a.ndim == 1
    sums = _sums(*((a[None], b[None]) if single else (a, b)))
    for norm_sq in sums.pa.sum(axis=-1).tolist():
        norm = math.sqrt(norm_sq)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise StateValidationError(f"state norm {norm} deviates from 1")
    cutoff = _tail_cutoff(space)
    tails = (p[:, cutoff + 1:].sum(axis=-1).tolist() for p in (sums.pa, sums.pb))
    for row, (tail_a, tail_b) in enumerate(zip(*tails)):
        if not (tail_a <= PHYSICAL_TAIL_TOL and tail_b <= PHYSICAL_TAIL_TOL):
            raise PhysicalityError(("" if single else f"row {row}: ")
                                   + f"tail mass above occupation {cutoff}: "
                                   f"A={tail_a:.3e}, B={tail_b:.3e}")
    reports = [check(m) for m in _moments(sums, space)]
    return reports[0] if single else reports


def _robertson(m: UncertaintyReport) -> UncertaintyReport:
    s2, c2 = m.sin_mean ** 2, m.cos_mean ** 2
    # Every moment field of m, then the checks.
    return UncertaintyReport(*m[:-1], (
        InequalityCheck("dcos", m.var_n_diff * m.var_cos, s2),
        InequalityCheck("dsin", m.var_n_diff * m.var_sin, c2),
        InequalityCheck("dcos2_A", m.var_n_a * m.var_cos, s2 / 4.0),
        InequalityCheck("dcos2_B", m.var_n_b * m.var_cos, s2 / 4.0),
        InequalityCheck("dsin2_A", m.var_n_a * m.var_sin, c2 / 4.0),
        InequalityCheck("dsin2_B", m.var_n_b * m.var_sin, c2 / 4.0),
    ))


def robertson_checks(state, space: PhaseOperatorSpace):
    """Number-phase Robertson inequalities for a physical state ``(a, b)``,
    or one report per row of a stack ``(A, B)`` of physical states.

    Difference-operator forms:
        Var(N_A - N_B) Var(cos D) >= <sin D>^2       (dcos)
        Var(N_A - N_B) Var(sin D) >= <cos D>^2       (dsin)
    Single-site forms (factor 1/4 from the one-sided commutator):
        Var(N_Z) Var(cos D) >= <sin D>^2 / 4         (dcos2_Z)
        Var(N_Z) Var(sin D) >= <cos D>^2 / 4         (dsin2_Z)
    """
    return _per_state(_robertson, state, space)


def visibility_caps(moments: UncertaintyReport) -> UncertaintyReport:
    """Visibility caps from the summed Robertson relations, taken from the
    moments of any report on a physical state, so a ``robertson_checks``
    report gives the caps with no second pass over the state.

        |C|^2 <= (Var N_A + Var N_B) / (1 + Var N_A + Var N_B)   (C1)
        |C|^2 <= 4 Var N_Z / (1 + 4 Var N_Z), Z = A, B           (C2_Z)

    C1 uses variance additivity, which holds for the uncorrelated modes of
    a product state, so it always applies.
    """
    c2 = moments.visibility_sq
    var_a, var_b = moments.var_n_a, moments.var_n_b
    vsum = var_a + var_b
    return UncertaintyReport(*moments[:-1], (
        InequalityCheck("C1", vsum / (1.0 + vsum), c2),
        InequalityCheck("C2_A", 4.0 * var_a / (1.0 + 4.0 * var_a), c2),
        InequalityCheck("C2_B", 4.0 * var_b / (1.0 + 4.0 * var_b), c2),
    ))


def visibility_bound_check(state, space: PhaseOperatorSpace):
    """The ``visibility_caps`` of a physical state ``(a, b)``, or of each
    row of a stack of physical states."""
    return _per_state(visibility_caps, state, space)


def pair_state(a: np.ndarray, b: np.ndarray) -> PureState:
    """The product a (x) b as a sparse state on field modes mode_a at A and
    mode_b at B, each of capacity s = a.size - 1."""
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    amps = dict(zip(itertools.product(ia.tolist(), ib.tolist()),
                    (a[ia, None] * b[ib]).ravel()))
    s = a.size - 1
    layout = ModeLayout((ModeDescriptor("mode_a", "A", "field", s),
                         ModeDescriptor("mode_b", "B", "field", s)))
    return PureState(layout, amps, normalize=True)


def coherent_pair_state(nbar_a: float, nbar_b: float,
                        space: PhaseOperatorSpace) -> tuple[np.ndarray, np.ndarray]:
    """Factors of two truncated coherent states, each its stored non-zero
    span padded with zeros to the s+1 levels the cyclic shift runs over."""
    def factor(nbar):
        spec = coherent_coefficients(nbar, space.s)
        vec = np.zeros(space.dim, dtype=complex)
        vec[spec.lo:spec.lo + spec.coefficients.size] = spec.coefficients
        return vec

    return factor(nbar_a), factor(nbar_b)


def random_uncorrelated_pair(space: PhaseOperatorSpace, rng: np.random.RandomState,
                             count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Factors of a random product state supported on [0, s // 2] in each
    mode; with a ``count``, (count, s+1) stacks of that many states, row i
    the pair the i-th of ``count`` calls without one would draw.

    For s >= 16 the window lies below the tail cutoff floor(s - sqrt(s)),
    so every tail mass is a sum of exact zeros and a draw is always
    physical."""
    w = space.s // 2
    # One draw of the rows that 4 count randn(w + 1) calls would give in
    # turn: Re a, Im a, Re b, Im b for each state.
    z = rng.randn(1 if count is None else count, 4, w + 1)
    pair = np.zeros((2, len(z), space.dim), dtype=complex)
    drawn = pair[:, :, :w + 1]
    drawn.real = z[:, 0::2].swapaxes(0, 1)
    drawn.imag = z[:, 1::2].swapaxes(0, 1)
    # Each factor's norm as np.linalg.norm takes it, from the same strided
    # real and imaginary views.
    re, im = drawn.real, drawn.imag
    drawn /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
    if count is None:
        return pair[0, 0], pair[1, 0]
    return pair[0], pair[1]
