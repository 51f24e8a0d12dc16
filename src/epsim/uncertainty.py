"""Number-phase uncertainty bounds on a truncated two-mode space.

A two-mode state is its amplitude matrix Psi[n_A, n_B] over occupations
0..s of each mode.  On s+1 levels the Pegg-Barnett unitary
E = e^{i phi} = sum_m e^{i theta_m} |theta_m><theta_m|, theta_m = 2 pi m/(s+1),
is exactly the cyclic lowering shift |n> -> |n-1>, |0> -> |s>, so the pair
expectations <E_A^k E_B^{dagger k}> behind the phase-difference cos D and
sin D are overlaps of Psi with a rolled copy of itself; no operator on the
pair space or on one mode is built.  For states supported away from the
truncation boundary ("physical" states) the Robertson relations of cos D and
sin D against the local and relative number operators bound the achievable
squared fringe visibility |C|^2 = |<e^{i(phi_A - phi_B)}>|^2 by the number
variances.  The dense phase-state constructions are the test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import LayoutError, ModeDescriptor, ModeLayout, PureState

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


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    skipped: bool = False

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.skipped or self.slack >= SLACK_TOL


@dataclass(frozen=True)
class UncertaintyReport:
    """Moments and inequality slacks for one two-mode state."""

    var_n_a: float
    var_n_b: float
    var_n_diff: float
    cos_mean: float
    sin_mean: float
    var_cos: float
    var_sin: float
    visibility_sq: float
    trig_identity_residual: float
    checks: tuple[InequalityCheck, ...]

    def check(self, name: str) -> InequalityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def min_slack(self) -> float:
        active = [c.slack for c in self.checks if not c.skipped]
        return min(active) if active else math.inf


def _shift_expectation(psi: np.ndarray, k: int) -> complex:
    """<E_A^k E_B^{dagger k}> on the amplitude matrix psi.

    E lowers the occupation cyclically, so E_A^k E_B^{dagger k} maps
    Psi[n_A, n_B] to Psi[n_A + k, n_B - k] (indices mod s+1).
    """
    return complex(np.vdot(psi, np.roll(psi, (-k, k), axis=(0, 1))))


class _Moments:
    def __init__(self, psi: np.ndarray, space: PhaseOperatorSpace):
        x1 = _shift_expectation(psi, 1)
        x2 = _shift_expectation(psi, 2)
        self.cos_mean = float(np.real(x1))
        self.sin_mean = float(np.imag(x1))
        cos2 = (float(np.real(x2)) + 1.0) / 2.0
        sin2 = (1.0 - float(np.real(x2))) / 2.0
        self.var_cos = cos2 - self.cos_mean ** 2
        self.var_sin = sin2 - self.sin_mean ** 2
        self.visibility_sq = float(abs(x1) ** 2)
        self.trig_identity_residual = (self.var_cos + self.var_sin
                                       - (1.0 - self.visibility_sq))

        prob = np.abs(psi) ** 2
        ns = space.number
        pa = prob.sum(axis=1)
        pb = prob.sum(axis=0)
        self.mean_n_a = float(ns @ pa)
        self.mean_n_b = float(ns @ pb)
        self.var_n_a = float(ns ** 2 @ pa) - self.mean_n_a ** 2
        self.var_n_b = float(ns ** 2 @ pb) - self.mean_n_b ** 2
        mean_ab = float(ns @ prob @ ns)
        cov = mean_ab - self.mean_n_a * self.mean_n_b
        self.var_n_diff = self.var_n_a + self.var_n_b - 2.0 * cov


def check_physical(psi: np.ndarray, space: PhaseOperatorSpace) -> None:
    """Reject states with tail mass above s - sqrt(s) beyond the tolerance."""
    cutoff = int(math.floor(space.s - math.sqrt(space.s)))
    prob = np.abs(psi) ** 2
    tail_a = float(prob[cutoff + 1:, :].sum())
    tail_b = float(prob[:, cutoff + 1:].sum())
    if tail_a > PHYSICAL_TAIL_TOL or tail_b > PHYSICAL_TAIL_TOL:
        raise PhysicalityError(
            f"tail mass above occupation {cutoff}: A={tail_a:.3e}, B={tail_b:.3e}"
        )


def _physical_moments(psi, space: PhaseOperatorSpace) -> tuple[np.ndarray, _Moments]:
    """Validate a unit-norm physical amplitude matrix and take its moments."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (space.dim, space.dim):
        raise LayoutError(f"amplitude matrix must be {space.dim}x{space.dim}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1")
    check_physical(psi, space)
    return psi, _Moments(psi, space)


def _report(m: _Moments, checks: tuple[InequalityCheck, ...]) -> UncertaintyReport:
    return UncertaintyReport(
        var_n_a=m.var_n_a, var_n_b=m.var_n_b, var_n_diff=m.var_n_diff,
        cos_mean=m.cos_mean, sin_mean=m.sin_mean,
        var_cos=m.var_cos, var_sin=m.var_sin,
        visibility_sq=m.visibility_sq,
        trig_identity_residual=m.trig_identity_residual,
        checks=checks,
    )


def robertson_checks(psi, space: PhaseOperatorSpace) -> UncertaintyReport:
    """Number-phase Robertson inequalities for a physical amplitude matrix.

    Difference-operator forms:
        Var(N_A - N_B) Var(cos D) >= <sin D>^2       (dcos)
        Var(N_A - N_B) Var(sin D) >= <cos D>^2       (dsin)
    Single-site forms (factor 1/4 from the one-sided commutator):
        Var(N_Z) Var(cos D) >= <sin D>^2 / 4         (dcos2_Z)
        Var(N_Z) Var(sin D) >= <cos D>^2 / 4         (dsin2_Z)
    """
    _, m = _physical_moments(psi, space)
    s2, c2 = m.sin_mean ** 2, m.cos_mean ** 2
    checks = (
        InequalityCheck("dcos", m.var_n_diff * m.var_cos, s2),
        InequalityCheck("dsin", m.var_n_diff * m.var_sin, c2),
        InequalityCheck("dcos2_A", m.var_n_a * m.var_cos, s2 / 4.0),
        InequalityCheck("dcos2_B", m.var_n_b * m.var_cos, s2 / 4.0),
        InequalityCheck("dsin2_A", m.var_n_a * m.var_sin, c2 / 4.0),
        InequalityCheck("dsin2_B", m.var_n_b * m.var_sin, c2 / 4.0),
    )
    return _report(m, checks)


def is_product_state(psi: np.ndarray, tol: float = 1e-8) -> bool:
    """True when the amplitude matrix has rank one within ``tol``, in O(d^2).

    With the pivot (i, j) = argmax |Psi| the cross residual
    R = Psi - Psi[:, j] Psi[i, :] / Psi[i, j] vanishes exactly for a product,
    and the state is called a product when ||R||_F <= tol ||Psi||_F.
    Psi - R has rank one, so sigma_2 <= ||R||_F; the max-modulus entry is the
    maximal-volume 1x1 submatrix, so max|R| <= 2 sigma_2 (Goreinov &
    Tyrtyshnikov, Contemp. Math. 280, 47 (2001)) and ||R||_F <= 2 d sigma_2
    for a d x d matrix.  Against the singular-value test
    sigma_2 <= tol sigma_1 (tests/oracles.py) the verdicts can differ only
    when tol / (2 d) < sigma_2 / sigma_1 <= tol ||Psi||_F / sigma_1, and
    ||Psi||_F / sigma_1 <= (1 - (d - 1) tol^2)^{-1/2} inside that band.
    """
    i, j = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    cross = np.outer(psi[:, j], psi[i, :] / psi[i, j])
    cross -= psi  # -R, formed in place so only one d x d temporary is allocated
    return bool(np.linalg.norm(cross) <= tol * np.linalg.norm(psi))


def visibility_bound_check(psi, space: PhaseOperatorSpace) -> UncertaintyReport:
    """Visibility caps from the summed Robertson relations.

        |C|^2 <= (Var N_A + Var N_B) / (1 + Var N_A + Var N_B)   (C1)
        |C|^2 <= 4 Var N_Z / (1 + 4 Var N_Z), Z = A, B           (C2_Z)

    C1 uses variance additivity and is only meaningful for uncorrelated
    (product) inputs; for correlated states it is reported as skipped.
    """
    psi, m = _physical_moments(psi, space)
    c2 = m.visibility_sq
    vsum = m.var_n_a + m.var_n_b
    product = is_product_state(psi)
    checks = (
        InequalityCheck("C1", vsum / (1.0 + vsum), c2, skipped=not product),
        InequalityCheck("C2_A", 4.0 * m.var_n_a / (1.0 + 4.0 * m.var_n_a), c2),
        InequalityCheck("C2_B", 4.0 * m.var_n_b / (1.0 + 4.0 * m.var_n_b), c2),
    )
    return _report(m, checks)


def optimum_condition(var_a: float, var_b: float) -> bool:
    """True when the non-transported variance dominates, Var_B >= 3 Var_A,
    so the single-site cap on the transported mode A is the binding bound."""
    if var_a < 0.0 or var_b < 0.0:
        raise ValueError("variances must be non-negative")
    return var_b >= 3.0 * var_a


def pair_layout(s: int) -> ModeLayout:
    return ModeLayout((
        ModeDescriptor("mode_a", "A", "field", s),
        ModeDescriptor("mode_b", "B", "field", s),
    ))


def pair_state(psi: np.ndarray) -> PureState:
    """The amplitude matrix as a sparse state on ``pair_layout(s)``."""
    amps = {(int(na), int(nb)): psi[na, nb] for na, nb in zip(*np.nonzero(psi))}
    return PureState(pair_layout(psi.shape[0] - 1), amps, normalize=True)


def coherent_pair_state(nbar_a: float, nbar_b: float,
                        space: PhaseOperatorSpace) -> np.ndarray:
    """Amplitude matrix of two truncated coherent states."""
    from .protocol import coherent_coefficients

    ca = coherent_coefficients(nbar_a, space.s).coefficients
    cb = coherent_coefficients(nbar_b, space.s).coefficients
    return np.outer(ca, cb)


def random_uncorrelated_pair(space: PhaseOperatorSpace,
                             rng: np.random.RandomState) -> np.ndarray:
    """Amplitude matrix of a random product state supported on [0, s // 2]
    in each mode, a window that keeps the state comfortably physical."""
    w = space.s // 2
    vec_a = rng.randn(w + 1) + 1j * rng.randn(w + 1)
    vec_b = rng.randn(w + 1) + 1j * rng.randn(w + 1)
    psi = np.zeros((space.dim, space.dim), dtype=complex)
    psi[:w + 1, :w + 1] = np.outer(vec_a / np.linalg.norm(vec_a),
                                   vec_b / np.linalg.norm(vec_b))
    return psi
