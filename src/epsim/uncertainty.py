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
|C|^2 = |<e^{i(phi_A - phi_B)}>|^2 by the number variances.  The amplitude
matrix route and the dense phase-state constructions are the test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .fock import (NORM_TOL, LayoutError, ModeDescriptor, ModeLayout, PureState,
                   StateValidationError)
from .protocol import coherent_coefficients

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
        self.number = np.arange(self.dim, dtype=float)
        self.number_sq = self.number ** 2


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= SLACK_TOL


@dataclass(frozen=True)
class UncertaintyReport:
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
    """What the moments need from a product state: x_k =
    <E_A^k E_B^{dagger k}> (k = 1, 2), the number marginals pa, pb and their
    means <N_A>, <N_B>."""

    x1: complex
    x2: complex
    pa: np.ndarray
    pb: np.ndarray
    mean_a: float
    mean_b: float


def _shift_overlap(v: np.ndarray, k: int) -> complex:
    """<v|E^k|v> = sum_n conj(v_n) v_{(n+k) mod d} for 1 <= k <= d, as the
    overlaps of the two slice pairs the cyclic shift lines up, with no
    shifted copy of v."""
    return np.vdot(v[:-k], v[k:]) + np.vdot(v[-k:], v[:k])


def _sums(a: np.ndarray, b: np.ndarray) -> _Sums:
    """Reduce the factors of Psi = a (x) b in O(d).

    The shift expectations factor, x_k = <a|E^k|a> conj(<b|E^k|b>), the
    marginals are |a|^2 ||b||^2 and |b|^2 ||a||^2.
    """
    wa, wb = np.abs(a) ** 2, np.abs(b) ** 2
    pa, pb = wa * wb.sum(), wb * wa.sum()
    x1, x2 = (_shift_overlap(a, k) * np.conj(_shift_overlap(b, k)) for k in (1, 2))
    n_a, n_b = np.arange(a.size, dtype=float), np.arange(b.size, dtype=float)
    mean_a, mean_b = float(n_a @ pa), float(n_b @ pb)
    return _Sums(complex(x1), complex(x2), pa, pb, mean_a, mean_b)


def _moments(sums: _Sums, space: PhaseOperatorSpace) -> UncertaintyReport:
    x1, x2 = sums.x1, sums.x2
    cos_mean = float(np.real(x1))
    sin_mean = float(np.imag(x1))
    cos2 = (float(np.real(x2)) + 1.0) / 2.0
    sin2 = (1.0 - float(np.real(x2))) / 2.0
    var_cos = cos2 - cos_mean ** 2
    var_sin = sin2 - sin_mean ** 2
    visibility_sq = float(abs(x1) ** 2)
    trig_identity_residual = var_cos + var_sin - (1.0 - visibility_sq)

    mean_n_a, mean_n_b = sums.mean_a, sums.mean_b
    var_n_a = float(space.number_sq @ sums.pa) - mean_n_a ** 2
    var_n_b = float(space.number_sq @ sums.pb) - mean_n_b ** 2
    # N_A and N_B are independent in a product state: Cov(N_A, N_B) = 0.
    var_n_diff = var_n_a + var_n_b
    return UncertaintyReport(var_n_a, var_n_b, var_n_diff, cos_mean, sin_mean,
                             var_cos, var_sin, visibility_sq, trig_identity_residual)


def _checked_moments(state, space: PhaseOperatorSpace) -> UncertaintyReport:
    """Moments of a unit-norm physical state: a tuple of two 1-D factors of
    s+1 levels each (anything else is a ``LayoutError``), validated on its
    marginals, with mass above occupation s - sqrt(s) within
    PHYSICAL_TAIL_TOL in each mode."""
    if not (isinstance(state, tuple) and len(state) == 2):
        raise LayoutError("state must be a tuple of two factor vectors (a, b)")
    a, b = (np.asarray(v, dtype=complex) for v in state)
    if a.shape != (space.dim,) or b.shape != (space.dim,):
        raise LayoutError(f"state factors must be vectors of {space.dim} levels")
    sums = _sums(a, b)
    norm = math.sqrt(float(sums.pa.sum()))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise StateValidationError(f"state norm {norm} deviates from 1")
    cutoff = int(math.floor(space.s - math.sqrt(space.s)))
    tail_a = float(sums.pa[cutoff + 1:].sum())
    tail_b = float(sums.pb[cutoff + 1:].sum())
    if tail_a > PHYSICAL_TAIL_TOL or tail_b > PHYSICAL_TAIL_TOL:
        raise PhysicalityError(
            f"tail mass above occupation {cutoff}: A={tail_a:.3e}, B={tail_b:.3e}"
        )
    return _moments(sums, space)


def robertson_checks(state, space: PhaseOperatorSpace) -> UncertaintyReport:
    """Number-phase Robertson inequalities for a physical state ``(a, b)``.

    Difference-operator forms:
        Var(N_A - N_B) Var(cos D) >= <sin D>^2       (dcos)
        Var(N_A - N_B) Var(sin D) >= <cos D>^2       (dsin)
    Single-site forms (factor 1/4 from the one-sided commutator):
        Var(N_Z) Var(cos D) >= <sin D>^2 / 4         (dcos2_Z)
        Var(N_Z) Var(sin D) >= <cos D>^2 / 4         (dsin2_Z)
    """
    m = _checked_moments(state, space)
    s2, c2 = m.sin_mean ** 2, m.cos_mean ** 2
    checks = (
        InequalityCheck("dcos", m.var_n_diff * m.var_cos, s2),
        InequalityCheck("dsin", m.var_n_diff * m.var_sin, c2),
        InequalityCheck("dcos2_A", m.var_n_a * m.var_cos, s2 / 4.0),
        InequalityCheck("dcos2_B", m.var_n_b * m.var_cos, s2 / 4.0),
        InequalityCheck("dsin2_A", m.var_n_a * m.var_sin, c2 / 4.0),
        InequalityCheck("dsin2_B", m.var_n_b * m.var_sin, c2 / 4.0),
    )
    return replace(m, checks=checks)


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
    checks = (
        InequalityCheck("C1", vsum / (1.0 + vsum), c2),
        InequalityCheck("C2_A", 4.0 * var_a / (1.0 + 4.0 * var_a), c2),
        InequalityCheck("C2_B", 4.0 * var_b / (1.0 + 4.0 * var_b), c2),
    )
    return replace(moments, checks=checks)


def visibility_bound_check(state, space: PhaseOperatorSpace) -> UncertaintyReport:
    """The ``visibility_caps`` of a physical state ``(a, b)``."""
    return visibility_caps(_checked_moments(state, space))


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


def random_uncorrelated_pair(space: PhaseOperatorSpace,
                             rng: np.random.RandomState) -> tuple[np.ndarray, np.ndarray]:
    """Factors of a random product state supported on [0, s // 2] in each
    mode, a window that keeps the state comfortably physical."""
    w = space.s // 2
    # One draw of the four rows that four randn(w + 1) calls would give in
    # turn: Re a, Im a, Re b, Im b.
    z = rng.randn(4, w + 1)
    pair = np.zeros((2, space.dim), dtype=complex)
    for row, vec in zip(pair, (z[0] + 1j * z[1], z[2] + 1j * z[3])):
        row[:w + 1] = vec / np.linalg.norm(vec)
    return pair[0], pair[1]
