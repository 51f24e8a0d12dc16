"""Exact simulation of the entanglement-transfer protocol onto local registers.

Each site holds a two-mode ancilla ``sum_n c_n |M-n, n>`` whose first mode is
a sink prepared (in the continuous-phase picture) in a truncated phase state,
and whose second mode carries the reference amplitudes ``c_n``.  The protocol
copies every local field occupation into a fresh register via an occupation
CNOT and then hides the particles in the local sink via a register-controlled
shift.  Tracing out all field modes leaves the registers in a mixture of
sector-pure states whose weights are the local-number sector probabilities of
the input: the registers inherit exactly the sector-averaged entanglement,
never the full entropy of entanglement.

Two routes to the register state are provided.  ``run_transfer`` ships the
exact output in closed form: the input amplitudes relabelled onto the
registers and dephased onto the local-number sectors (n_A, n_B), every
coherence between two different sectors zeroed.  This is exact for any
unit-norm ancillas, M_A != M_B included: in each branch the reference mode at
site Z pins its occupation m and the sink ends in |M - m + n_Z>, so branches
in different sectors leave orthogonal field states behind, while branches in
the same sector share one unit-norm field state.  It costs O(L^2) in the L
input terms and builds no ancilla or sink Fock space.
``phase_grid_register_state`` reconstructs the same object from a uniform
grid of K points over each local phase angle, keeping the sink's
truncation-boundary component of each branch as a separate statistical
history (the continuous-phase analysis route).  Averaging over the grid
multiplies each coherence by (1/K) sum_j e^{-i(n - n')theta_j} = [K divides
n - n'], a projector onto the reference-phase invariant subspaces (the U(1)
twirl of Bartlett, Rudolph & Spekkens, RMP 79, 555 (2007)), so the grid
route is the same product of input amplitudes as ``run_transfer`` with a
closed-form sink kernel in place of the sector delta, also O(L^2).  The
overcounted boundary weight makes its output deviate from the exact route by
O(1/(M+1)), which is the quantity the grid diagnostic exposes.

``transfer_final_state`` builds the full post-protocol state the
phase-difference POVM needs, by the same fact: the field modes end empty,
so the branch with reference occupations (m_A, m_B) and register label r is
|M_A - m_A + n_A, m_A, M_B - m_B + n_B, m_B, 0...0, r> with amplitude
c_A[m_A] c_B[m_B] amp_r.  Its rows are valid labels by construction, so
they are stored through ``PureState``'s private array tail, which checks
none of them again.  The gate-level simulation it replaces (ancillas
tensored in, occupation CNOT and hiding gate on every field mode) is the
test oracle for it and for ``run_transfer``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (
    NORM_TOL,
    CapacityError,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    StateValidationError,
)
from .sectors import _local_numbers, _register_numbers, _register_sector_blocks


class GridError(ValueError):
    """Phase grid too coarse for the requested truncation."""


def _check_angles(*angles: float) -> None:
    """Raise ``ValueError`` naming the first angle that is not finite."""
    for angle in angles:
        if not math.isfinite(angle):
            raise ValueError(f"angle {angle} is not finite")


class AncillaSpec:
    """Unit-norm ancilla amplitudes on the levels 0..M, stored as their
    non-zero span: ``coefficients`` is c_lo..c_hi, from the first to the last
    non-zero amplitude.  The constructor takes amplitudes that start at level
    ``lo`` and keeps a copy of that span only, not a zero-padded input.

    Each check is one reduction: sum_n |c_n|^2, one ``np.vdot``, gives the
    norm and is finite exactly when every amplitude is finite and no square
    overflows (an ``isfinite`` pass then tells the two apart for the
    message), and one ``np.flatnonzero`` gives the span."""

    def __init__(self, M: int, coefficients, lo: int = 0):
        if M < 1:
            raise ValueError("ancilla truncation M must be >= 1")
        coeffs = np.array(coefficients, dtype=complex)
        if coeffs.ndim != 1 or not 0 <= lo <= lo + coeffs.size - 1 <= M:
            raise ValueError(f"{coeffs.shape} coefficients from level {lo} do not fit "
                             f"in levels 0..{M}")
        squares = np.vdot(coeffs, coeffs).real
        if not math.isfinite(squares) and not np.isfinite(coeffs).all():
            raise StateValidationError("ancilla coefficients must be finite")
        norm = math.sqrt(squares)
        if abs(norm - 1.0) > NORM_TOL:
            raise StateValidationError(f"ancilla coefficients have norm {norm}, not 1")
        nonzero = np.flatnonzero(coeffs)
        first, stop = int(nonzero[0]), int(nonzero[-1]) + 1
        self.M = M
        self.lo = lo + first
        self.coefficients = coeffs if stop - first == coeffs.size else coeffs[first:stop].copy()

    @classmethod
    def uniform(cls, M: int) -> "AncillaSpec":
        return cls(M, np.full(M + 1, 1.0 / math.sqrt(M + 1)))

    @property
    def levels(self) -> np.ndarray:
        """Occupation of each stored amplitude, lo..hi."""
        return np.arange(self.lo, self.lo + self.coefficients.size)

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of the occupation, from one pass over the levels
        and |c_n|^2.  The variance is sum_n (n - mean)^2 |c_n|^2, taken
        about the mean: the raw second moment minus the squared mean loses
        digits to cancellation as the mean grows (0.28 of 1.6e7 at
        nbar = 1.6e7)."""
        levels, probs = self.levels, np.abs(self.coefficients) ** 2
        mean = float(np.sum(levels * probs))
        return mean, float(np.sum((levels - mean) ** 2 * probs))

    def first_moment(self) -> complex:
        """sum_n conj(c_n) c_{n+1}; the mean phasor of the ancilla's phase
        distribution, as one ``np.vdot``."""
        c = self.coefficients
        return complex(np.vdot(c[:-1], c[1:]))

    def __repr__(self):
        return f"AncillaSpec(M={self.M}, mean={self.moments()[0]:.3f})"


# Levels whose log weight lies more than this far below the peak's are
# dropped.  Each dropped level then weighs under e^F of the peak, and so of
# the total; a reference has at most 2^24 levels (the CLI's
# MAX_COHERENT_LEVELS), so the dropped weight is at most 2^24 e^F.  Asking
# for at most 2^-106, which moves the renormalization factor by far less
# than half an ulp, gives F = -130 ln 2, about -90.1: nbar -+ 13.4 sqrt(nbar)
# levels for large nbar.  The kept amplitudes stay above about 1e-22, far
# from underflow.
_LOG_WEIGHT_FLOOR = -130.0 * math.log(2.0)


def coherent_coefficients(nbar: float, M: int) -> AncillaSpec:
    """Truncated coherent-state amplitudes with mean occupation ``nbar``.

    c_n is proportional to the square root of the Poisson weight
    nbar^n e^{-nbar} / n!, renormalized after truncation at M.  Computed in
    log space so large nbar stays finite, and only on the window [lo, hi]
    of levels within ``_LOG_WEIGHT_FLOOR`` of the peak (about
    nbar -+ 13.4 sqrt(nbar) once nbar passes about 1000, whatever M is),
    whose dropped tail weighs at most 2^-106, normalized over the window,
    which the returned spec stores.

    The log weights follow from the Poisson ratio w_n / w_{n-1} = nbar / n.
    Relative to the peak p = min(M, floor(nbar)), log w_n is the running sum
    of -log(k / nbar) over k = p+1..n above the peak, and of log(k / nbar)
    over k = n+1..p below it.  Each step carries about one rounding, where
    n log nbar - lgamma(n + 1) loses about an ulp of lgamma(n + 1) to
    cancellation at every level.
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    if M < nbar + 10.0 * math.sqrt(nbar):
        # One decimal, as the shortest repr of its double: 75.0 stays 75.0,
        # and a threshold near the largest float prints as 1e+308, not as 309
        # digits.
        warnings.warn(
            f"truncation M={M} below nbar + 10*sqrt(nbar) = "
            f"{round(nbar + 10.0 * math.sqrt(nbar), 1)!r}; tail probability is clipped",
            stacklevel=2,
        )
    if nbar == 0.0:
        return AncillaSpec(M, [1.0])
    peak = min(M, math.floor(nbar))
    lo, hi = _coherent_window(math.log(nbar), peak, M)
    # steps[k - lo - 1] = log(k / nbar) = log w_{k-1} - log w_k for k in
    # lo+1..hi.  Not log1p((k - nbar) / nbar): at nbar = 1e20 the difference
    # k - nbar rounds to -nbar and log1p gives -inf.
    steps = np.log(np.arange(lo + 1, hi + 1) / nbar)
    p = peak - lo
    log_w = np.zeros(hi + 1 - lo)
    log_w[:p] = np.cumsum(steps[:p][::-1])[::-1]
    log_w[p + 1:] = -np.cumsum(steps[p:])
    amps = np.exp(0.5 * log_w)
    # numpy's own sum of products, not np.linalg.norm: BLAS splits a long
    # dot product over its threads, and the bits would follow the thread count.
    return AncillaSpec(M, amps / math.sqrt(float(np.einsum("i,i->", amps, amps))), lo=lo)


def _coherent_window(log_nbar: float, peak: int, M: int) -> tuple[int, int]:
    """First and last n in [0, M] whose log weight n log nbar - lgamma(n + 1)
    lies within ``_LOG_WEIGHT_FLOOR`` of the weight at ``peak``, the largest
    one.

    The log weight is concave in n, rising up to peak = min(M, floor(nbar))
    and falling after it, so one bisection on each side of the peak finds
    the edges with O(log M) lgamma calls.
    """
    def within(n: int) -> bool:
        return n * log_nbar - math.lgamma(n + 1) - top >= _LOG_WEIGHT_FLOOR

    top = peak * log_nbar - math.lgamma(peak + 1)
    # within is False then True on 0..peak, and True then False on peak..M,
    # which M..peak lists as False then True.  An end of [0, M] inside the
    # window, as M is at the CLI's truncation, is its edge with one call.
    lo = 0 if within(0) else bisect.bisect_left(range(peak + 1), True, key=within)
    hi = M if within(M) else M - bisect.bisect_left(range(M, peak - 1, -1), True, key=within)
    return lo, hi


def occupation_cnot(state: PureState, control: str, target: str) -> PureState:
    """Add the control field occupation onto a register, modulo capacity+1.

    Registers start at zero in the protocol, so the map copies occupations;
    modular addition is its unitary completion on the full basis.
    """
    ci = state.layout.index(control)
    ti = state.layout.index(target)
    cmode = state.layout.modes[ci]
    tmode = state.layout.modes[ti]
    if tmode.kind != "register":
        raise LayoutError(f"CNOT target {target!r} must be a register mode")
    if tmode.capacity < cmode.capacity:
        raise CapacityError(
            f"register capacity {tmode.capacity} below control capacity {cmode.capacity}"
        )
    modulus = tmode.capacity + 1

    def step(label):
        new = list(label)
        new[ti] = (label[ti] + label[ci]) % modulus
        return tuple(new)

    return state.map_labels(step)


def hiding_operation(state: PureState, control: str, source: str, sink: str) -> PureState:
    """Register-controlled absorption of a field mode into the local sink.

    Branches with control occupation zero are untouched; for control >= 1
    the full source occupation moves onto the sink, |x>_sink |y>_source ->
    |x+y>_sink |0>_source.  The map must be injective on the state support
    (it is whenever the register still witnesses the moved occupation).
    """
    ci = state.layout.index(control)
    si = state.layout.index(source)
    ki = state.layout.index(sink)
    if state.layout.modes[ci].kind != "register":
        raise LayoutError(f"hiding control {control!r} must be a register mode")
    sink_cap = state.layout.modes[ki].capacity

    def step(label):
        if label[ci] == 0:
            return label
        new = list(label)
        moved = label[ki] + label[si]
        if moved > sink_cap:
            raise CapacityError(
                f"sink {sink!r} overflow: {label[ki]}+{label[si]} > {sink_cap}"
            )
        new[ki] = moved
        new[si] = 0
        return tuple(new)

    return state.map_labels(step)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one transfer run: shared-particle state and both ancillas.
    ``register_terms``, built once here, is the input relabelled onto the
    register modes, site A first: their layout, the sorted labels, and
    aligned read-only arrays of the amplitudes and of each label's local
    numbers n_A, n_B."""

    input_state: PureState
    ancilla_a: AncillaSpec
    ancilla_b: AncillaSpec

    def __post_init__(self):
        layout = self.input_state.layout
        if layout.sites() != {"A", "B"}:
            raise LayoutError("transfer input must involve both sites")
        if any(m.kind != "field" for m in layout.modes):
            raise LayoutError("transfer input must use field modes only")
        # The register at position r copies the field mode at positions[r].
        positions = [i for site in ("A", "B") for i in layout.indices(site=site)]
        reg_layout = ModeLayout(tuple(
            ModeDescriptor(self.register_id(m.id), m.site, "register", m.capacity)
            for m in (layout.modes[p] for p in positions)))
        # transfer_final_state puts the input next to these modes in one
        # layout, so their ids must stay free.
        protocol_ids = ({self.sink_id(s) for s in ("A", "B")}
                        | {self.ref_id(s) for s in ("A", "B")}
                        | set(reg_layout.ids()))
        clash = protocol_ids & set(layout.ids())
        if clash:
            raise LayoutError(f"input mode ids {sorted(clash)} are reserved for the "
                              f"protocol's ancilla and register modes")
        # Permuted labels stay distinct, so the sort never compares amplitudes.
        basis, amps = zip(*sorted((tuple(label[p] for p in positions), amp)
                                  for label, amp in self.input_state.amplitudes.items()))
        numbers = (_local_numbers(reg_layout, basis, site, "register") for site in ("A", "B"))
        arrays = (np.array(amps, dtype=complex), *map(np.array, numbers))
        for array in arrays:
            array.setflags(write=False)
        object.__setattr__(self, "register_terms", (reg_layout, list(basis), *arrays))

    @property
    def total_particles(self) -> int:
        _, _, _, n_a, n_b = self.register_terms
        # Summed as Python ints: an int64 sum wraps past 2^63 - 1.
        return max(a + b for a, b in zip(n_a.tolist(), n_b.tolist()))

    def sink_id(self, site: str) -> str:
        return f"sink_{site}"

    def ref_id(self, site: str) -> str:
        return f"ref_{site}"

    def register_id(self, field_id: str) -> str:
        return f"reg_{field_id}"


def transfer_final_state(config: ProtocolConfig) -> PureState:
    """Full pure state after both sites ran CNOT-then-hide on every field mode.

    Each sink has capacity M + N, N the input's total particle number.
    Layout: [sink_A, ref_A, sink_B, ref_B, input field modes..., registers...].
    The input field modes are still present and empty; trace them out to get the
    register state, or keep the reference modes to feed the
    phase-difference POVM.  Built in closed form (see the module
    docstring): one term per reference pair (m_A, m_B) and input term, in
    that nesting order, as one broadcast label array and amplitude array.
    The amplitude c_A[m_A] c_B[m_B] amp_r is (c_A c_B) amp_r as Python's
    complex products round it.

    Every row is a valid, distinct label, so ``PureState._from_rows``
    stores the rows without checking them: the sink occupation
    M - m + n_Z lies in [0, M + N] as m <= M and n_Z <= N, and M + N, so
    every entry of the int64 label array, is at most 2^63 - 1, or
    ``CapacityError`` is raised before anything is allocated; the reference
    occupation m lies in the ancilla's [lo, hi], inside [0, M]; the input
    field columns are 0; each register column is an input occupation, and
    the register has its field mode's capacity; (m_A, m_B, r) are columns
    of the label, so rows are distinct; and each amplitude is a product of
    finite numbers of modulus at most 1.
    """
    reg_layout, basis, amps, n_a, n_b = config.register_terms
    particles = config.total_particles
    site_modes = []
    for site, spec in (("A", config.ancilla_a), ("B", config.ancilla_b)):
        if spec.M + particles > np.iinfo(np.int64).max:
            raise CapacityError(f"sink {config.sink_id(site)!r} capacity M + N = "
                                f"{spec.M} + {particles} passes the int64 labels' 2^63 - 1")
        site_modes += [ModeDescriptor(config.sink_id(site), site, "field",
                                      spec.M + particles),
                       ModeDescriptor(config.ref_id(site), site, "field", spec.M)]
    layout = ModeLayout(tuple(site_modes) + config.input_state.layout.modes
                        + reg_layout.modes)
    spec_a, spec_b = config.ancilla_a, config.ancilla_b
    m_a, m_b = spec_a.levels[:, None, None], spec_b.levels[None, :, None]
    # Axes (m_A, m_B, input term, mode); the input field columns stay 0.
    labels = np.zeros((m_a.size, m_b.size, len(basis), len(layout)), dtype=np.int64)
    labels[..., 0] = spec_a.M - m_a + n_a
    labels[..., 1] = m_a
    labels[..., 2] = spec_b.M - m_b + n_b
    labels[..., 3] = m_b
    labels[..., len(layout) - len(reg_layout):] = basis
    refs = _complex_product(spec_a.coefficients[:, None], spec_b.coefficients)
    final = _complex_product(refs[..., None], amps)
    return PureState._from_rows(layout, labels.reshape(-1, len(layout)), final.ravel())


def _complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, broadcast, with the rounding of Python's complex product: each
    part from separately rounded float products and one sum.  numpy's
    complex multiply may fuse them and differ in the last bit.  The branch
    amplitudes here and ``uncertainty._sums``'s u conj(v) (a conjugate is
    exact) both use it."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def run_transfer(config: ProtocolConfig) -> DensityOperator:
    """Exact register state after the protocol: the input dephased onto its
    local-number sectors.

    Entry (r, r') is amp_r conj(amp_r') when both labels carry the same
    (n_A, n_B) and zero otherwise, over the labels of the register basis
    in ``config.register_terms`` order.  See the module docstring for why
    this equals tracing the field modes out of ``transfer_final_state(config)``.
    """
    reg_layout, basis, amps, n_a, n_b = config.register_terms
    same_sector = (n_a[:, None] == n_a[None, :]) & (n_b[:, None] == n_b[None, :])
    mat = np.where(same_sector, np.outer(amps, amps.conj()), 0.0)
    return DensityOperator(reg_layout, basis, mat)


def mode_overlap_integral(k: int, spec: AncillaSpec, theta: float) -> complex:
    """Closed form of the phase-averaged sink/reference overlap integral:
    sum_{m=k}^{M} |c_m|^2 / (M+1) * e^{i k theta}.

    For k beyond the truncation the integral vanishes identically; a warning
    flags the degenerate call.  An angle that is not finite raises
    ``ValueError``.
    """
    _check_angles(theta)
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if k > spec.M:
        warnings.warn(f"k={k} exceeds truncation M={spec.M}; integral is 0",
                      stacklevel=2)
        return 0.0 + 0.0j
    weight = float(np.sum(np.abs(spec.coefficients[max(0, k - spec.lo):]) ** 2))
    return weight / (spec.M + 1) * np.exp(1j * k * theta)


def _grid_sink_kernel(n: np.ndarray, M: int, K: int) -> np.ndarray:
    """Grid-averaged sink overlaps G[r, r'] of the branches with local particle
    numbers n[r], n[r'] at a site of truncation M, kept-line and boundary
    histories counted separately.

    For shift n the post-hiding sink at angle theta is
    S_n(theta) = sum_{k=n}^{M+n} e^{-i(M+n-k)theta} |k> / sqrt(M+1); its kept
    line is the unshifted phase state carrying the accumulated phase,
    I_n(theta) = e^{-i n theta} psi(theta), and the boundary remainder is
    S_n - I_n.  Every overlap among these is e^{-i(n-n')theta} times a count of
    shared levels over M+1, and the grid average of e^{-i(n-n')theta_j} is
    [K divides n - n'], so <I_n'|I_n> + <B_n'|B_n> averages to
    [K | n-n'] (2 + (c(|n-n'|) - c(n) - c(n')) / (M+1)), c(x) = max(0, M+1-x).
    """
    diff = n[:, None] - n[None, :]
    shared = np.maximum(0, M + 1 - np.abs(diff))
    kept = np.maximum(0, M + 1 - n)
    overlap = 2.0 + (shared - kept[:, None] - kept[None, :]) / (M + 1)
    return np.where(diff % K == 0, overlap, 0.0)


def phase_grid_register_state(config: ProtocolConfig, K: int) -> DensityOperator:
    """Register state reconstructed from a uniform grid over both local phases.

    Each grid point (theta_j, phi_l) prepares the sinks in pure truncated
    phase states, runs the exact protocol, and contributes its register
    reduction; the kept-line and truncation-boundary components of each sink
    enter as distinct statistical branches rather than coherent parts of one
    vector.  The grid average is closed-form: entry (r, r') is
    amp_r conj(amp_r') G_A(n_A,r, n_A,r') G_B(n_B,r, n_B,r') with the sink
    kernels of ``_grid_sink_kernel``, so, like ``run_transfer``, the result
    is confined to coherences between labels whose local numbers agree modulo
    K.  Retaining the boundary branches overcounts their weight,
    G_Z(n, n) = 1 + 2n/(M_Z+1) for n <= M_Z+1 (3 past it).  For K > N the
    result is the ``run_transfer`` output with each sector (n_A, n_B) scaled
    by G_A(n_A, n_A) G_B(n_B, n_B) >= 1, so it sits at trace distance
    (trace - 1)/2 <= N/(M+1) + N^2/(2(M+1)^2) from it, M the smaller truncation.
    """
    M_a, M_b = config.ancilla_a.M, config.ancilla_b.M
    K_min = 2 * max(M_a, M_b) + 3
    if K < K_min:
        raise GridError(f"grid size {K} below the exactness bound {K_min}")

    reg_layout, basis, amps, n_a, n_b = config.register_terms
    kernel = _grid_sink_kernel(n_a, M_a, K) * _grid_sink_kernel(n_b, M_b, K)
    mat = np.outer(amps, amps.conj()) * kernel
    return DensityOperator(reg_layout, basis, mat, check_trace=False)


@dataclass(frozen=True)
class MeasurementOutcome:
    outcome_a: str
    outcome_b: str
    probability: float
    entanglement: float


def equal_different_measurement(rho: DensityOperator) -> list[MeasurementOutcome]:
    """Local equal-vs-different projection on two binary registers per site.

    Both parties compare their two registers; the joint state is projected
    onto the four (equal/different, equal/different) outcomes.  Returns the
    outcomes with probability at least 1e-12, each with its sector-projected
    entanglement.  Two binary registers agree exactly when their site's
    register number n is 0 or 2, so a site's outcome is its n modulo 2 and
    each outcome is a union of site-A register-number sectors: one
    decomposition keyed by (outcome pair, n_A) gives every outcome's
    probability p (the diagonal weight of its rows) and entanglement
    sum_n (w_n / p) E_n.
    """
    layout = rho.layout
    if any(m.kind != "register" or m.capacity != 1 for m in layout.modes):
        raise LayoutError("measurement needs binary register modes only")
    for site in ("A", "B"):
        count = len(layout.indices(site=site))
        if count != 2:
            raise LayoutError(f"site {site} must hold exactly two registers, got {count}")
    n_a = _register_numbers(rho)
    kinds = ("equal", "different")
    pairs = [(kinds[a % 2], kinds[b % 2]) for a, b in zip(n_a, _register_numbers(rho, "B"))]
    probability = dict.fromkeys(itertools.product(kinds, repeat=2), 0.0)
    for pair, weight in zip(pairs, rho.matrix.diagonal().real.tolist()):
        probability[pair] += weight
    kept = {pair for pair, p in probability.items() if p >= 1e-12}
    # Rows of a skipped outcome join no sector.
    keys = [(pair, n) if pair in kept else None for pair, n in zip(pairs, n_a)]
    entanglement = dict.fromkeys(kept, 0.0)
    for (pair, _), weight, entropy in _register_sector_blocks(rho, keys):
        entanglement[pair] += weight / probability[pair] * entropy
    return [MeasurementOutcome(*pair, p, entanglement[pair])
            for pair, p in probability.items() if pair in kept]


def reference_phase_shift(rho: DensityOperator, theta: float, phi: float) -> DensityOperator:
    """Conjugate a register operator by local phase rotations
    e^{i theta N_A} e^{i phi N_B} (N = register occupation at the site).
    An angle that is not finite raises ``ValueError``; the result is checked
    as ``with_matrix`` checks, so ``rho`` must have unit trace."""
    _check_angles(theta, phi)
    layout = rho.layout
    if any(m.kind != "register" for m in layout.modes):
        raise LayoutError("reference phase shift acts on register-only operators")
    n_a, n_b = (_register_numbers(rho, site) for site in ("A", "B"))
    phases = np.array([np.exp(1j * (theta * a + phi * b)) for a, b in zip(n_a, n_b)])
    mat = (phases[:, None] * rho.matrix) * np.conj(phases)[None, :]
    return rho.with_matrix(mat)
