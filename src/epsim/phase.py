"""Canonical phase distributions, the ideal phase-difference POVM, fringe
visibility and entanglement-of-formation bookkeeping.

The registers emerging from the transfer protocol decohere because neither
party holds the other's reference phase.  Measuring the phase difference of
the two reference modes restores coherence proportional to the fringe
visibility C, the averaged phasor of the measurement's resolution kernel.
The post-measurement register state is an X-shaped two-qubit mixture whose
entanglement of formation depends on |C| alone.

The grid work is O(K log K) for a K-point grid: a canonical distribution's
values come from one FFT of the amplitudes, and the visibility's quadrature
route integrates each reference's density against e^{i theta} on its own
grid, which the convolution theorem makes the first moment of the
measurement's resolution kernel, so no kernel is formed.  Each reference
enters through the non-zero span its ``AncillaSpec`` stores: a coherent
reference of large mean nbar stores about 23.4 sqrt(nbar) amplitudes at the
truncation nbar + 10 sqrt(nbar), and about 26.8 sqrt(nbar) however long its
truncation.  A density of that span, of width W, has Fourier orders up to
W, and a grid of K points sums order k exactly for k <= K - W - 1: every
moment needs K >= 2W + 3 (``canonical_phase_distribution``), the first
moment, all ``visibility`` reads, only K >= W + 2.  ``visibility`` has one
path: both routes run on every call, and a reference whose grid would pass
``QUADRATURE_GRID_CAP`` raises ``GridError`` rather than skip the
quadrature.

The phase-difference POVM never couples terms outside one reference-phase
invariant subspace (fixed spectator occupations and pair total), and inside
one it rebuilds coherence between terms that differ by k particles moved
between the sites (Bartlett, Rudolph & Spekkens, RMP 79, 555 (2007)).  The
measured register matrix is therefore a trigonometric polynomial in the
angle, T(phi) = sum_k e^{-i phi k} Q_k with |k| <= D - 1, whose Fourier
coefficients Q_k are formed from the groups numpy's row ``unique`` finds
on the first angle measured on a state, and kept, with its register basis
checked once, for as long as the state lives.  An angle then costs one
length-D ramp, one contraction, O(D R^2) for R register labels, and the
matrix checks of its output, with D <= N + 1 on the protocol's final state
of N particles.  ``resolution_kernel`` is no longer called here; it is the
reference the tests check the visibility's first moment against.  The
per-lag moment sums and the per-term dict grouping are the test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .fock import (
    NORM_TOL,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    StateValidationError,
)
from .protocol import AncillaSpec, GridError, _check_angles

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

# Largest quadrature grid visibility() forms for one reference; a larger one
# raises GridError.  Grids of W + 2 points or more are exact, so spans up to
# W = 2^19 - 2 = 524,286 pass.  The largest reference the CLI accepts has a
# span of W = 95,800 and takes a 2^17 grid, so only library callers reach
# the cap.
QUADRATURE_GRID_CAP = 1 << 19


class CrossCheckError(ArithmeticError):
    """Two independent routes to one quantity disagree beyond tolerance."""


@dataclass(frozen=True)
class PhaseDistribution:
    """Density over [0, 2pi) sampled on a uniform grid.

    ``degree`` is the highest order whose circular moment the grid sums
    exactly, and every lower order is exact too.  A canonical density of the
    stored span c_lo..c_hi has Fourier orders up to W = hi - lo, and its
    K-point grid sums order k exactly for k <= K - W - 1, so its degree is
    min(W, K - W - 1): W on the grids of at least 2W + 3 points that
    ``canonical_phase_distribution`` takes.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        # Every comparison with NaN is false, so the checks below would pass it.
        if not np.isfinite(values).all():
            raise StateValidationError("density has non-finite values")
        if values.min() < -1e-12:
            raise StateValidationError(f"negative density value {values.min()}")
        total = TWO_PI / len(values) * float(values.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise StateValidationError(f"density integrates to {total}, not 1")

    @property
    def grid_size(self) -> int:
        return len(self.values)

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """``moments[k]``, k = 0..degree, is the k-th circular moment
        integral(P(u) e^{iku} du); negative moments follow by conjugation.
        For a canonical distribution of amplitudes c this equals
        sum_n conj(c_n) c_{n+k}.  Taken on first use from one real FFT of
        the grid values, the circular autocorrelation of c, free of
        wrap-around up to order ``degree``."""
        K = self.grid_size
        return np.conj(np.fft.rfft(self.values)[: self.degree + 1]) * (TWO_PI / K)

    def grid_moment(self, k: int) -> complex:
        """Quadrature evaluation of the k-th circular moment."""
        K = self.grid_size
        cos_sin = _unit_circle(K)
        if k % K != 1:
            cos_sin = cos_sin[:, k * np.arange(K) % K]
        # numpy's own sum of products (einsum without optimize), not a BLAS
        # product, whose bits follow the thread count at this length.
        re, im = np.einsum("ij,j->i", cos_sin, self.values)
        return complex(re, im) * (TWO_PI / K)


@functools.lru_cache(maxsize=8)
def _unit_circle(K: int) -> np.ndarray:
    """Rows cos(theta_j) and sin(theta_j) of the K grid angles, filled on
    first use for each grid size and shared read-only."""
    angles = TWO_PI * np.arange(K) / K
    table = np.stack([np.cos(angles), np.sin(angles)])
    table.setflags(write=False)
    return table


def _canonical_density(spec: AncillaSpec, K: int) -> PhaseDistribution:
    """|fft(c, K)|^2 / 2pi of the stored span c on K > W points, with the
    degree that grid sums exactly."""
    width = spec.coefficients.size - 1
    power = np.abs(np.fft.fft(spec.coefficients, n=K)) ** 2
    return PhaseDistribution(power / TWO_PI, min(width, K - width - 1))


def canonical_phase_distribution(spec: AncillaSpec, K: int) -> PhaseDistribution:
    """P(theta) = |sum_n c_n e^{-i n theta}|^2 / 2pi on a K-point grid, from
    one FFT of the stored span c_lo..c_hi (starting at lo only multiplies the
    sum by a phase), so its degree is W = hi - lo and K >= 2W + 3 whatever M
    is; its moments are taken on demand."""
    degree = spec.coefficients.size - 1
    if K < 2 * degree + 3:
        raise GridError(f"grid size {K} below exactness bound {2 * degree + 3}")
    return _canonical_density(spec, K)


def resolution_kernel(pa: PhaseDistribution, pb: PhaseDistribution,
                      varphi: float = 0.0) -> PhaseDistribution:
    """Resolution of the phase-difference measurement as a density over the
    effective variable u = theta - phi.

    Circular cross-correlation of the two single-mode distributions shifted
    by the measured difference ``varphi``: one inverse real FFT of
    fft(P_A) conj(fft(P_B)) times the shift ramp e^{i k varphi}, from the
    grid values alone.  ``visibility`` does not form it: it needs only the
    kernel's first moment, e^{-i varphi} q_A conj(q_B) from the two
    densities' grid sums.  The kernel is the test oracle for that shortcut.
    An angle that is not finite raises ``ValueError``.
    """
    _check_angles(varphi)
    if pa.grid_size != pb.grid_size:
        raise GridError(f"grid mismatch: {pa.grid_size} vs {pb.grid_size}")
    K = pa.grid_size
    ramp = np.exp(1j * varphi * np.arange(K // 2 + 1))
    spectrum = np.fft.rfft(pa.values) * np.conj(np.fft.rfft(pb.values)) * ramp
    values = np.fft.irfft(spectrum, n=K) * (TWO_PI / K)
    return PhaseDistribution(values, min(pa.degree, pb.degree))


def visibility(spec_a: AncillaSpec, spec_b: AncillaSpec, varphi: float = 0.0) -> complex:
    """Fringe visibility C of the phase-difference measurement.

    Quadrature route: C = e^{i varphi} conj(q_A) q_B, with q_Z the grid sum
    (2pi/K_Z) sum_j P_Z(theta_j) e^{i theta_j} of each reference's canonical
    phase density.  This is the resolution kernel's first moment by the
    convolution theorem, so no kernel is formed.  Closed route:
    e^{i varphi} conj(m_A) m_B with m_Z = sum_n conj(c_n) c_{n+1} from the
    amplitudes.  Both run on every call and must agree to 1e-9; the
    quadrature value is returned.  Each density is taken over the
    reference's stored span of W_Z + 1 levels on its own grid, the smallest
    power of two K_Z >= max(W_Z + 2, 257).  That grid sums the first moment
    exactly: q_Z = sum over n - m = 1 (mod K_Z) of c_n conj(c_m), and a
    difference n - m of the span lies in [-W_Z, W_Z], which holds no other
    member of that class (the nearest is 1 - K_Z); at K_Z = W_Z + 1 the
    pair (lo, hi) aliases in.  A grid past ``QUADRATURE_GRID_CAP`` raises
    ``GridError``; a disagreement, or |C| above 1 + 1e-10 (impossible for
    unit-norm references), raises ``CrossCheckError``; an angle that is
    not finite, ``ValueError``.
    """
    _check_angles(varphi)
    shift = np.exp(1j * varphi)
    closed = shift * np.conj(spec_a.first_moment()) * spec_b.first_moment()
    # A power of two is the fastest FFT length; any K >= W + 2 is exact.
    grids = [1 << (max(spec.coefficients.size + 1, 257) - 1).bit_length()
             for spec in (spec_a, spec_b)]
    if max(grids) > QUADRATURE_GRID_CAP:
        raise GridError(f"visibility grid {max(grids)} exceeds {QUADRATURE_GRID_CAP}")
    pa, pb = (_canonical_density(spec, K) for spec, K in zip((spec_a, spec_b), grids))
    quad = complex(shift * np.conj(pa.grid_moment(1)) * pb.grid_moment(1))
    if not abs(quad - closed) <= 1e-9:
        raise CrossCheckError(
            f"visibility routes disagree: quadrature {quad} vs closed {closed}"
        )
    if not abs(quad) <= 1.0 + 1e-10:
        raise CrossCheckError(f"visibility |C| = {abs(quad)} exceeds 1")
    return quad


def register_pair_layout() -> ModeLayout:
    return ModeLayout((
        ModeDescriptor("reg_a", "A", "register", 1),
        ModeDescriptor("reg_b", "B", "register", 1),
    ))


@functools.cache
def _register_pair() -> DensityOperator:
    """Maximally mixed state on the fixed basis of every post-measurement
    register state, built and checked on first use, not at import: its
    ``eigvalsh`` would load LAPACK into every process that imports epsim."""
    return DensityOperator(register_pair_layout(), [(0, 0), (0, 1), (1, 0), (1, 1)],
                           np.eye(4) / 4)


def post_measurement_register_state(c: complex) -> DensityOperator:
    """Two-register state (|10><10| + C |10><01| + h.c. + |01><01|) / 2."""
    c = complex(c)
    if not abs(c) <= 1.0 + 1e-10:
        raise StateValidationError(f"|C| = {abs(c)} exceeds 1")
    pair = _register_pair()
    mat = np.zeros((4, 4), dtype=complex)
    i01, i10 = pair.index((0, 1)), pair.index((1, 0))
    mat[i10, i10] = 0.5
    mat[i01, i01] = 0.5
    mat[i10, i01] = c / 2.0
    mat[i01, i10] = np.conj(c) / 2.0
    return pair.with_matrix(mat)


@dataclass(frozen=True)
class _PovmPlan:
    """The phi-independent part of the phase-difference POVM on one state:
    the register matrix is T(phi) = sum_k e^{-i phi k} Q_k, |k| <= D - 1,
    with Q_{-k} = Q_k^H."""

    coeffs: np.ndarray        # Q_0 / 2, Q_1, ..., Q_{D-1}, each R x R
    template: DensityOperator  # maximally mixed, on the checked register basis


# Plans by state, then by reference pair; an entry goes when its state does.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _povm_plan(state: PureState, mode_a: str, mode_b: str) -> _PovmPlan:
    """The plan of ``state`` on the reference pair (mode_a, mode_b), built on
    first use and kept for as long as ``state`` lives.  PureState compares by
    identity and its amplitudes are read-only, so a kept plan cannot go
    stale; a build that raises keeps nothing."""
    plans = _PLANS.get(state, {})
    if (mode_a, mode_b) not in plans:
        plans[mode_a, mode_b] = _build_povm_plan(state, mode_a, mode_b)
        _PLANS[state] = plans
    return plans[mode_a, mode_b]


def _build_povm_plan(state: PureState, mode_a: str, mode_b: str) -> _PovmPlan:
    """Fourier coefficients of ``state``'s register matrix under the POVM on
    the reference pair (mode_a, mode_b).

    Terms are grouped by spectator occupations and pair total.  B_g[r, d]
    is the amplitude in group g with register label r and site-B reference
    occupation n_B = min_g n_B + d (the rest of the label is then fixed, so
    each slot holds at most one term).  The group's register vector at
    angle phi is v_g = e^{-i phi min_g n_B} sum_d e^{-i phi d} B_g[:, d],
    whose common phase cancels in v_g v_g^H, so
    Q_k = (1/2pi) sum_g sum_{d - d' = k} B_g[:, d] B_g[:, d']^H.
    The register basis is checked here, once, by building the maximally
    mixed operator on it that every angle's output copies.
    """
    layout = state.layout
    ia, ib = layout.index(mode_a), layout.index(mode_b)
    if layout.modes[ia].site != "A" or layout.modes[ib].site != "B":
        raise LayoutError("phase-difference POVM expects one reference mode per site")
    reg_idx = layout.indices(kind="register")
    if not reg_idx:
        raise LayoutError("state carries no register modes")
    rest_idx = [i for i in range(len(layout)) if i not in (ia, ib) and i not in reg_idx]

    labels = np.array(list(state.amplitudes), dtype=np.int64)
    amps = np.array(list(state.amplitudes.values()), dtype=complex)

    # Groups fix the spectator field occupations and the total occupation of
    # the pair; the POVM never couples terms of different groups.  Both
    # inverses are raveled: their shape under ``axis`` changed in numpy 2.0.x.
    group_rows = np.column_stack([labels[:, rest_idx], labels[:, ia] + labels[:, ib]])
    group_ids, group = np.unique(group_rows, axis=0, return_inverse=True)
    reg_rows, reg = np.unique(labels[:, reg_idx], axis=0, return_inverse=True)
    group, reg = group.ravel(), reg.ravel()
    n_b = labels[:, ib]
    lowest = np.full(len(group_ids), n_b.max())
    np.minimum.at(lowest, group, n_b)
    lag = n_b - lowest[group]
    D, R = int(lag.max()) + 1, len(reg_rows)
    blocks = np.zeros((len(group_ids), D, R), dtype=complex)
    blocks[group, lag, reg] = amps
    coeffs = np.empty((D, R, R), dtype=complex)
    for k in range(D):
        coeffs[k] = blocks[:, k:].reshape(-1, R).T @ blocks[:, :D - k].reshape(-1, R).conj()
    coeffs[0] /= 2.0
    coeffs /= TWO_PI
    coeffs.setflags(write=False)
    basis = [tuple(row) for row in reg_rows.tolist()]
    template = DensityOperator(layout.sublayout(reg_idx), basis, np.eye(R) / R)
    return _PovmPlan(coeffs, template)


def apply_phase_difference_povm(state: PureState, mode_a: str, mode_b: str,
                                varphi: float) -> tuple[float, DensityOperator]:
    """Ideal phase-difference measurement of two reference modes.

    Applies the POVM element whose matrix elements on the pair (a, b) are
    (1/2pi) e^{i(n_b - m_b) varphi} delta_{n_a + n_b, m_a + m_b}, then traces
    out every field mode.  Returns the outcome probability density at
    ``varphi`` (densities integrate to 1 over a full turn) and the
    conditional register state; an angle whose density is not positive has
    no conditional state and raises ``StateValidationError``; an angle that
    is not finite raises ``ValueError``.

    The register matrix is a trigonometric polynomial in the angle,
    T(varphi) = sum_k e^{-i varphi k} Q_k, where k counts the particles the
    measurement moves between the sites and Q_{-k} = Q_k^H.  The
    coefficients do not depend on ``varphi``: ``_povm_plan`` forms them on
    the first angle measured on a state and keeps them, with the checked
    register basis, for as long as the state lives.  An angle then costs one
    length-D ramp, one contraction with the D coefficient matrices, O(D R^2)
    for R register labels, and the matrix checks of ``with_matrix``.  On a
    ``transfer_final_state`` output the sink pins the difference between the
    site-B reference occupation and the site-B register number inside each
    group, so D <= N + 1 for N input particles.
    """
    _check_angles(varphi)
    plan = _povm_plan(state, mode_a, mode_b)
    D, R = plan.coeffs.shape[:2]
    ramp = np.exp(-1j * varphi * np.arange(D))
    half = (ramp @ plan.coeffs.reshape(D, R * R)).reshape(R, R)
    mat = half + half.conj().T
    density = float(mat.trace().real)
    if not density > 0.0:
        raise StateValidationError(
            f"outcome density {density} at angle {varphi} is not positive")
    return density, plan.template.with_matrix(mat / density)


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p) with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * math.log2(q)
    return total


def entanglement_of_formation_x(c: complex) -> float:
    """Entanglement of formation (bits) of the post-measurement register
    state with visibility ``c``: h(p) with p = (1 + sqrt(1 - |C|^2)) / 2."""
    x = abs(complex(c))
    if not x <= 1.0 + 1e-10:
        raise ValueError(f"|C| = {x} exceeds 1")
    x = min(x, 1.0)
    p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - x * x)))
    return binary_entropy(p)


def ef_large_visibility(c: complex) -> float:
    """1 - (1 - |C|^2) / ln 2, the quantity ``ef_upper_bound`` caps: the
    ``ef`` column of ``sweep`` and what criterion 8 compares with the cap.
    Its deficit is twice that of the first-order expansion of the formation
    entanglement around |C| = 1, which is
    ``entanglement_of_formation_x(c)`` ~ 1 - (1 - |C|^2) / (2 ln 2), so near
    |C| = 1 it lies below that entanglement."""
    x = abs(complex(c))
    return 1.0 - (1.0 - x * x) / LN2


# sigma_y x sigma_y, which is real: the anti-diagonal (-1, 1, 1, -1).
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_SIGMA_YY.setflags(write=False)


def two_qubit_concurrence(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit density operator.

    The lambda_i are the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy),
    taken without forming that non-Hermitian product: its small eigenvalues
    near |C| = 1 would lose half their digits to the square root.
    """
    if len(rho.basis) != 4 or any(m.capacity != 1 for m in rho.layout.modes):
        raise StateValidationError("concurrence needs a full two-qubit operator")
    evals, vecs = np.linalg.eigh(rho.matrix)
    if evals.min() < -1e-10:
        raise StateValidationError(f"operator not PSD: min eigenvalue {evals.min()}")
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    lams = np.linalg.svd(sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def concurrence_ef_oracle(rho: DensityOperator) -> float:
    """Entanglement of formation (bits) via the concurrence construction;
    an independent route for cross-checking the closed-form X-state value."""
    conc = two_qubit_concurrence(rho)
    p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - conc * conc)))
    return binary_entropy(p)


def coherent_visibility_model(ntr: float) -> float:
    """|C|^2 for a transported coherent reference against a much larger
    local one, modeling both phase profiles as periodic Gaussians:
    e^{-1/(4 ntr)} with ntr the mean transported particle number."""
    if not ntr > 0.0:
        raise ValueError("ntr must be positive")
    return math.exp(-1.0 / (4.0 * ntr))


def ef_upper_bound(var_tr: float) -> float:
    """Number-phase uncertainty cap 1 - 1/(4 var_tr ln 2), valid for
    transported-number variance >> 1.  It caps ``ef_large_visibility``,
    1 - (1 - |C|^2) / ln 2, and not ``entanglement_of_formation_x``, whose
    first-order deficit (1 - |C|^2) / (2 ln 2) is half as large: for coherent
    references the formation entanglement can exceed it."""
    if not var_tr > 0.0:
        raise ValueError("variance must be positive")
    return 1.0 - 1.0 / (4.0 * var_tr * LN2)

