"""Brute-force reference computations used by the test suite only.

Each oracle evaluates its target through an independent route (explicit
sums, grid quadrature) so the library implementations are checked against
something they do not share code with.
"""

import decimal
import functools
import json
import math

import numpy as np

# The resolution kernel that visibility() no longer forms.  It stays defined
# in epsim.phase only because the benchmark's traced entry points name it
# there; its body moves here once they no longer do.
from epsim.phase import resolution_kernel  # noqa: F401


def dense(spec):
    """An ancilla's amplitudes on all of its levels 0..M: the stored span
    c_lo..c_hi with the zeros around it filled back in."""
    full = np.zeros(spec.M + 1, dtype=complex)
    full[spec.lo:spec.lo + spec.coefficients.size] = spec.coefficients
    return full


def truncated_phase_state(M, theta, mode=None):
    """Uniform-amplitude phase state sum_n e^{-i(M-n)theta} |n> / sqrt(M+1)
    as a sparse state on one field mode (default capacity M)."""
    from epsim.fock import ModeDescriptor, PureState, layout_of

    if mode is None:
        mode = ModeDescriptor("psi", "A", "field", M)
    amps = {
        (n,): np.exp(-1j * (M - n) * theta) / math.sqrt(M + 1)
        for n in range(M + 1)
    }
    return PureState(layout_of(mode), amps)


def overlap_integral_quadrature(k, spec, theta, grid=None):
    """Phase-average of the sink/reference overlap products:

        I = (1/K) sum_j sum_n sum_m <n|psi(theta)><psi(theta_j)|n>
                                    <m|c(theta)><c(theta_j)|m> e^{i k theta_j}

    with |psi> the truncated phase state and |c> the rotated reference.
    """
    m_tr = spec.M
    K = grid if grid is not None else 2 * m_tr + 3
    ns = np.arange(m_tr + 1)
    coeffs = dense(spec)

    def psi(angle):
        return np.exp(-1j * (m_tr - ns) * angle) / np.sqrt(m_tr + 1)

    def cvec(angle):
        return coeffs * np.exp(1j * ns * angle)

    psi_theta = psi(theta)
    c_theta = cvec(theta)
    total = 0.0 + 0.0j
    for j in range(K):
        angle = 2 * np.pi * j / K
        sink_sum = 0.0 + 0.0j
        for n in ns:
            sink_sum += psi_theta[n] * np.conj(psi(angle)[n])
        ref_sum = 0.0 + 0.0j
        for n in ns:
            ref_sum += c_theta[n] * np.conj(cvec(angle)[n])
        total += sink_sum * ref_sum * np.exp(1j * k * angle)
    return total / K


def register_order(config):
    """The transfer's field modes in register order, and one register mode
    per field mode, stated here, not read from the library: site A's modes
    first, each site's in input layout order (a stable sort by site)."""
    from epsim.fock import ModeDescriptor

    fields = sorted(config.input_state.layout.modes, key=lambda m: m.site)
    return fields, [ModeDescriptor(config.register_id(f.id), f.site, "register", f.capacity)
                    for f in fields]


def phase_grid_oracle(config, K):
    """Register matrix of the phase-ensemble route, rebuilt point by point.

    For every grid angle the post-hiding sink vector of each distinct local
    particle number is produced by the actual hiding gate acting on a pure
    truncated phase state; its kept line e^{-in theta} psi(theta) and the
    boundary remainder enter the mixture as separate histories.  Each site's
    sink overlaps at one angle are one Gram matrix of those histories, and
    the K^2 grid points (theta_j, phi_l) are summed one by one with no
    kernel formula: an independent route to the same object as
    phase_grid_register_state.
    """
    from epsim.fock import ModeDescriptor, PureState, layout_of
    from epsim.protocol import hiding_operation
    from epsim.sectors import local_particle_number

    layout = config.input_state.layout
    positions = [layout.index(f.id) for f in register_order(config)[0]]
    entries = []
    for label, amp in config.input_state.amplitudes.items():
        entries.append((tuple(label[p] for p in positions), amp,
                        local_particle_number(layout, label, "A"),
                        local_particle_number(layout, label, "B")))
    entries.sort(key=lambda e: e[0])

    def sunk_vector(m, angle, shift, dim):
        """Post-hiding sink amplitudes via the real gate."""
        base = truncated_phase_state(
            m, angle, ModeDescriptor("sink", "A", "field", dim - 1))
        if shift == 0:
            moved = base
        else:
            src = ModeDescriptor("src", "A", "field", shift)
            reg = ModeDescriptor("reg", "A", "register", shift)
            joint = PureState(
                layout_of(base.layout.modes[0], src, reg),
                {(k,) + (shift, shift): a for (k,), a in base.amplitudes.items()})
            moved = hiding_operation(joint, "reg", "src", "sink")
        vec = np.zeros(dim, dtype=complex)
        for lab, a in moved.amplitudes.items():
            vec[lab[0]] = a
        return vec

    def kept_line(m, angle, shift, dim):
        vec = np.zeros(dim, dtype=complex)
        ns = np.arange(m + 1)
        vec[: m + 1] = (np.exp(-1j * shift * angle)
                        * np.exp(-1j * (m - ns) * angle) / np.sqrt(m + 1))
        return vec

    def site_overlaps(m, numbers, dim):
        """Per grid angle, <I_n'|I_n> + <B_n'|B_n> for every entry pair."""
        shifts, inverse = np.unique(numbers, return_inverse=True)
        grams = []
        for j in range(K):
            angle = 2 * np.pi * j / K
            rows = []
            for shift in shifts:
                kept = kept_line(m, angle, shift, dim)
                rows.append(np.concatenate([kept, sunk_vector(m, angle, shift, dim) - kept]))
            hist = np.array(rows)
            gram = hist @ hist.conj().T
            grams.append(gram[np.ix_(inverse, inverse)])
        return grams

    m_a, m_b = config.ancilla_a.M, config.ancilla_b.M
    n_max = config.total_particles
    amps = np.array([e[1] for e in entries], dtype=complex)
    grams_a = site_overlaps(m_a, np.array([e[2] for e in entries]), m_a + n_max + 1)
    grams_b = site_overlaps(m_b, np.array([e[3] for e in entries]), m_b + n_max + 1)
    outer = np.outer(amps, amps.conj())
    mat = np.zeros((len(entries), len(entries)), dtype=complex)
    for ka in grams_a:
        for kb in grams_b:
            mat += outer * ka * kb
    return [e[0] for e in entries], mat / K ** 2


def mixture(ensemble):
    """Density operator of the convex mixture sum_i p_i |psi_i><psi_i| of
    pure states sharing one layout, given as (p_i, psi_i) pairs, over the
    sorted union of their labels."""
    from epsim.fock import DensityOperator, LayoutError, StateValidationError

    if not ensemble:
        raise StateValidationError("empty ensemble")
    layout = ensemble[0][1].layout
    labels = sorted({l for _, s in ensemble for l in s.amplitudes})
    index = {l: i for i, l in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for p, s in ensemble:
        if s.layout.ids() != layout.ids():
            raise LayoutError("mixture members must share a layout")
        vec = np.zeros(len(labels), dtype=complex)
        for l, a in s.amplitudes.items():
            vec[index[l]] = a
        mat += p * np.outer(vec, vec.conj())
    return DensityOperator(layout, labels, mat)


def partial_trace_oracle(state, keep):
    """Reduction of a pure state onto the modes in ``keep`` (by id), summed
    bucket by bucket: amplitudes grouped by their traced-out label, each
    bucket adding its rank-one outer product on the kept labels.  The
    reference for partial_trace's Psi Psi^dagger."""
    from epsim.fock import DensityOperator

    keep_idx = [i for i, m in enumerate(state.layout.modes) if m.id in set(keep)]
    drop_idx = [i for i in range(len(state.layout)) if i not in keep_idx]
    buckets = {}
    for label, amp in state.amplitudes.items():
        bucket = buckets.setdefault(tuple(label[i] for i in drop_idx), {})
        kept = tuple(label[i] for i in keep_idx)
        bucket[kept] = bucket.get(kept, 0.0) + amp
    basis = sorted({kept for bucket in buckets.values() for kept in bucket})
    index = {label: i for i, label in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for bucket in buckets.values():
        for l1, a1 in bucket.items():
            for l2, a2 in bucket.items():
                mat[index[l1], index[l2]] += a1 * a2.conjugate()
    return DensityOperator(state.layout.sublayout(keep_idx), basis, mat)


def schmidt_entropy_oracle(state):
    """Entropy of entanglement (bits) of a pure state split at site A, from
    one SVD of that state's own amplitude matrix Psi[A label, B label]:
    squared singular values over their sum, values at or below EIG_CLIP
    dropped.  The per-state route that the batched Schmidt kernel replaced."""
    from epsim.fock import EIG_CLIP

    a_idx = state.layout.indices(site="A")
    b_idx = [i for i in range(len(state.layout)) if i not in a_idx]
    rows = sorted({tuple(label[i] for i in a_idx) for label in state.amplitudes})
    cols = sorted({tuple(label[i] for i in b_idx) for label in state.amplitudes})
    psi = np.zeros((len(rows), len(cols)), dtype=complex)
    for label, amp in state.amplitudes.items():
        psi[rows.index(tuple(label[i] for i in a_idx)),
            cols.index(tuple(label[i] for i in b_idx))] = amp
    probs = np.linalg.svd(psi, compute_uv=False) ** 2
    probs = probs / probs.sum()
    probs = probs[probs > EIG_CLIP]
    return max(0.0, float(-np.sum(probs * np.log2(probs))))


def sector_table_oracle(state):
    """(n, P_n, E_n) of each site-A sector, one sector at a time: the
    normalized ``sector_decompose`` states, each through its own SVD."""
    from epsim.sectors import sector_decompose

    return [(s.n, s.probability, schmidt_entropy_oracle(s.state))
            for s in sector_decompose(state).sectors]


def register_sector_oracle(rho):
    """(n, weight, E_n) of each site-A register-number sector of ``rho``, one
    block at a time: the block's own ``np.ix_`` and ``eigh``, the purity
    check, and the Schmidt entropy of its top eigenvector."""
    from epsim.fock import PureState, StateValidationError
    from epsim.sectors import PURITY_TOL, SECTOR_DROP_TOL

    idx = rho.layout.indices(site="A", kind="register")
    groups = {}
    for i, label in enumerate(rho.basis):
        groups.setdefault(sum(label[j] for j in idx), []).append(i)
    out = []
    for n, rows in sorted(groups.items()):
        block = rho.matrix[np.ix_(rows, rows)]
        weight = float(np.real(np.trace(block)))
        if weight < SECTOR_DROP_TOL:
            continue
        evals, evecs = np.linalg.eigh(block)
        if evals[-1] < weight * (1.0 - PURITY_TOL):
            raise StateValidationError(f"sector n={n} is not pure")
        top = PureState(rho.layout, {rho.basis[i]: evecs[k, -1] for k, i in enumerate(rows)},
                        normalize=True)
        out.append((n, weight, schmidt_entropy_oracle(top)))
    return out


def register_block_stack_oracle(rho, keys):
    """The zero-padded (G, size, size) stack of the register sector blocks
    of ``rho`` whose rows are keyed by ``keys`` (None: no sector), one
    ``np.ix_`` copy per sector, in increasing key; a sector is kept when its
    diagonal weight reaches SECTOR_DROP_TOL."""
    from epsim.sectors import SECTOR_DROP_TOL

    groups = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    diagonal = rho.matrix.diagonal().real
    blocks = [rows for _, rows in sorted(groups.items())
              if sum(diagonal[i] for i in rows) >= SECTOR_DROP_TOL]
    size = max((len(rows) for rows in blocks), default=0)
    stack = np.zeros((len(blocks), size, size), dtype=complex)
    for g, rows in enumerate(blocks):
        stack[g, :len(rows), :len(rows)] = rho.matrix[np.ix_(rows, rows)]
    return stack


def equal_different_oracle(rho):
    """(outcome_a, outcome_b, p, E) of each equal/different outcome of two
    binary registers per site, one outcome at a time: its rows projected
    out, renormalized into its own validated ``DensityOperator`` and passed
    through ``register_sector_entanglement``.  The per-outcome route that
    the single keyed decomposition of ``equal_different_measurement``
    replaced."""
    import itertools

    from epsim.fock import DensityOperator, LayoutError
    from epsim.sectors import register_sector_entanglement

    layout = rho.layout
    if any(m.kind != "register" or m.capacity != 1 for m in layout.modes):
        raise LayoutError("measurement needs binary register modes only")
    pair_idx = {}
    for site in ("A", "B"):
        idx = layout.indices(site=site, kind="register")
        if len(idx) != 2:
            raise LayoutError(f"site {site} must hold exactly two registers, got {len(idx)}")
        pair_idx[site] = idx

    def outcome_of(label, site):
        i, j = pair_idx[site]
        return "equal" if label[i] == label[j] else "different"

    outcomes = []
    for oa, ob in itertools.product(("equal", "different"), repeat=2):
        rows = [i for i, label in enumerate(rho.basis)
                if outcome_of(label, "A") == oa and outcome_of(label, "B") == ob]
        if not rows:
            continue
        block = rho.matrix[np.ix_(rows, rows)]
        prob = float(np.real(np.trace(block)))
        if prob < 1e-12:
            continue
        conditional = DensityOperator(layout, [rho.basis[i] for i in rows], block / prob)
        outcomes.append((oa, ob, prob, register_sector_entanglement(conditional)))
    return outcomes


def two_mode_ancilla_state(spec, sink, ref):
    """Two-mode ancilla sum_n c_n |M-n, n> over (sink, reference) modes."""
    from epsim.fock import CapacityError, PureState, layout_of

    M = spec.M
    if sink.capacity < M:
        raise CapacityError(f"sink capacity {sink.capacity} below M={M}")
    amps = {(M - n, n): c for n, c in zip(spec.levels.tolist(), spec.coefficients)}
    return PureState(layout_of(sink, ref), amps)


def gate_final_state(config):
    """The full post-protocol state by the gate route: both two-mode
    ancillas (sinks of capacity M + N), the input and zeroed registers
    tensored together, then the occupation CNOT and the hiding gate run on
    every field mode, site A first.  The brute-force reference for
    transfer_final_state's closed form."""
    from functools import reduce

    from epsim.fock import ModeDescriptor, ModeLayout, PureState, tensor_product
    from epsim.protocol import hiding_operation, occupation_cnot

    pieces = []
    for site, spec in (("A", config.ancilla_a), ("B", config.ancilla_b)):
        sink = ModeDescriptor(config.sink_id(site), site, "field",
                              spec.M + config.total_particles)
        ref = ModeDescriptor(config.ref_id(site), site, "field", spec.M)
        pieces.append(two_mode_ancilla_state(spec, sink, ref))
    pieces.append(config.input_state)
    fields, regs = register_order(config)
    pieces.append(PureState(ModeLayout(tuple(regs)), {(0,) * len(regs): 1.0}))
    state = reduce(tensor_product, pieces)

    for f, reg in zip(fields, regs):
        state = occupation_cnot(state, control=f.id, target=reg.id)
        state = hiding_operation(state, control=reg.id, source=f.id,
                                 sink=config.sink_id(f.site))
    return state


def gate_register_state(config):
    """Register state by the gate route: the field modes traced out of
    gate_final_state, the brute-force reference for run_transfer's sector
    dephasing (independent of the closed-form transfer_final_state)."""
    return partial_trace_oracle(gate_final_state(config),
                                [m.id for m in register_order(config)[1]])


def povm_identity_residual(dim_a, dim_b, varphi_grid):
    """Max deviation of the varphi-integrated phase-difference POVM from the
    identity on the truncated pair space."""
    total = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for varphi in varphi_grid:
        elem = np.zeros_like(total)
        for na in range(dim_a):
            for nb in range(dim_b):
                for ma in range(dim_a):
                    for mb in range(dim_b):
                        if na + nb != ma + mb:
                            continue
                        elem[na * dim_b + nb, ma * dim_b + mb] = (
                            np.exp(1j * (nb - mb) * varphi) / (2 * np.pi))
        total += elem * (2 * np.pi / len(varphi_grid))
    return float(np.max(np.abs(total - np.eye(dim_a * dim_b))))


def moment_list(spec):
    """Circular moments sum_n conj(c_n) c_{n+k}, k = 0..W over the stored
    span c_lo..c_hi (W = hi - lo; the moments do not depend on lo), one
    explicit sum per lag: the O(W^2) reference for the FFT autocorrelation
    in canonical_phase_distribution."""
    c = spec.coefficients
    return np.array([np.sum(np.conj(c[: len(c) - k]) * c[k:]) for k in range(len(c))])


def ancilla_check_oracle(M, coefficients, lo=0):
    """The multi-pass checks ``AncillaSpec`` made before each became one
    reduction: an ``isfinite`` pass, ``np.linalg.norm`` and two ``argmax``
    passes for the span.  Returns (lo, stored span) of an accepted input; a
    rejected one raises the exception and message the constructor raised."""
    from epsim.fock import NORM_TOL, StateValidationError

    if M < 1:
        raise ValueError("ancilla truncation M must be >= 1")
    coeffs = np.array(coefficients, dtype=complex)
    if coeffs.ndim != 1 or not 0 <= lo <= lo + coeffs.size - 1 <= M:
        raise ValueError(f"{coeffs.shape} coefficients from level {lo} do not fit "
                         f"in levels 0..{M}")
    if not np.all(np.isfinite(coeffs)):
        raise StateValidationError("ancilla coefficients must be finite")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > NORM_TOL:
        raise StateValidationError(f"ancilla coefficients have norm {norm}, not 1")
    nonzero = coeffs != 0
    first, stop = int(nonzero.argmax()), coeffs.size - int(nonzero[::-1].argmax())
    return lo + first, coeffs[first:stop]


def ancilla_moments_oracle(spec):
    """(mean, variance) in two separate passes, each rebuilding the levels
    and |c_n|^2."""
    def levels():
        return np.arange(spec.lo, spec.lo + spec.coefficients.size)

    mean = float(np.sum(levels() * np.abs(spec.coefficients) ** 2))
    probs = np.abs(spec.coefficients) ** 2
    return mean, float(np.sum((levels() - mean) ** 2 * probs))


def first_moment_oracle(spec):
    """sum_n conj(c_n) c_{n+1} as an elementwise product and one sum."""
    c = spec.coefficients
    return complex(np.sum(np.conj(c[:-1]) * c[1:]))


def phase_density_check_oracle(values):
    """The checks ``PhaseDistribution`` made with a separate ``isfinite``
    pass before its minimum and its integral: the values as floats, or the
    exception and message the class raised."""
    from epsim.fock import NORM_TOL, StateValidationError

    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise StateValidationError("density has non-finite values")
    if values.min() < -1e-12:
        raise StateValidationError(f"negative density value {values.min()}")
    total = 2.0 * math.pi / len(values) * float(values.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise StateValidationError(f"density integrates to {total}, not 1")
    return values


# The cut coherent_coefficients documents: a level whose log weight lies
# more than 130 ln 2 below the peak's weighs under 2^-130 of the total, so at
# most 2^24 dropped levels weigh at most 2^-106 together.
COHERENT_LOG_WEIGHT_FLOOR = -130.0 * math.log(2.0)


@functools.lru_cache(maxsize=1)
def _coherent_log_weights(nbar, M):
    """n log nbar - lgamma(n + 1) over all of 0..M, minus its maximum
    (read-only: the cut and uncut amplitudes of one reference share it)."""
    ns = np.arange(M + 1)
    if nbar == 0.0:
        log_w = np.where(ns == 0, 0.0, -np.inf)
    else:
        log_w = ns * math.log(nbar) - np.array([math.lgamma(n + 1) for n in ns])
    log_w -= log_w.max()
    log_w.flags.writeable = False
    return log_w


def coherent_amplitudes_full_range(nbar, M, floor=-math.inf):
    """Truncated coherent amplitudes with one lgamma call per level over all
    of 0..M.  Levels whose log weight lies below ``floor`` from the peak's
    are set to zero, and the rest normalized over their non-zero span.  With
    ``floor=COHERENT_LOG_WEIGHT_FLOOR`` it has the support of the library's
    windowed computation, and its values match it within this route's own
    rounding, about an ulp of n |log nbar| + lgamma(n + 1) in each log
    weight; the default keeps every level whose amplitude does not
    underflow."""
    log_w = _coherent_log_weights(nbar, M)
    amps = np.where(log_w >= floor, np.exp(0.5 * log_w), 0.0)
    kept = np.flatnonzero(amps)
    span = amps[kept[0]:kept[-1] + 1]
    amps[kept[0]:kept[-1] + 1] = span / np.linalg.norm(span)
    return amps


def coherent_moments_decimal(nbar, lo, hi):
    """Coherent amplitudes on the levels lo..hi, normalized over them, with
    their mean, variance and first moment sum_n c_n c_{n+1}, all in 40-digit
    decimal arithmetic and rounded to floats at the end.

    The weights are w_n / w_lo = prod_{k=lo+1}^{n} nbar / k, the definition
    nbar^n / n! with its common factor divided out: one decimal division and
    one square root per level, no logarithm, so nothing is shared with the
    library's float route, and over W + 1 levels each weight carries about
    W 10^-40 relative rounding."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(nbar)
        weights = [decimal.Decimal(1)]
        for k in range(lo + 1, hi + 1):
            weights.append(weights[-1] * x / k)
        total = sum(weights)
        probs = [w / total for w in weights]
        amps = [p.sqrt() for p in probs]
        mean = sum((lo + i) * p for i, p in enumerate(probs))
        variance = sum((lo + i - mean) ** 2 * p for i, p in enumerate(probs))
        first = sum(a * b for a, b in zip(amps, amps[1:]))
        return (np.array([float(a) for a in amps]), float(mean), float(variance),
                float(first))


def phase_difference_povm_oracle(state, mode_a, mode_b, varphi):
    """apply_phase_difference_povm by per-term dict grouping: each group
    (spectator field occupations, pair total) collects its register vector
    term by term, and the outer products are summed one group at a time."""
    from epsim.fock import DensityOperator

    layout = state.layout
    ia, ib = layout.index(mode_a), layout.index(mode_b)
    reg_idx = layout.indices(kind="register")
    rest_idx = [i for i in range(len(layout)) if i not in (ia, ib) and i not in reg_idx]
    groups = {}
    for label, amp in state.amplitudes.items():
        key = (tuple(label[i] for i in rest_idx), label[ia] + label[ib])
        reg = tuple(label[i] for i in reg_idx)
        bucket = groups.setdefault(key, {})
        bucket[reg] = bucket.get(reg, 0.0) + amp * np.exp(-1j * label[ib] * varphi)
    basis = sorted({reg for bucket in groups.values() for reg in bucket})
    index = {r: i for i, r in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for bucket in groups.values():
        vec = np.zeros(len(basis), dtype=complex)
        for reg, val in bucket.items():
            vec[index[reg]] += val
        mat += np.outer(vec, vec.conj())
    mat /= 2 * np.pi
    density = float(np.real(np.trace(mat)))
    return density, DensityOperator(layout.sublayout(reg_idx), basis, mat / density)


def phase_angles(s, theta0=0.0):
    """Pegg-Barnett phase angles theta_m = theta0 + 2 pi m / (s+1)."""
    return theta0 + 2.0 * np.pi * np.arange(s + 1) / (s + 1)


def phase_states(s, theta0=0.0):
    """Columns are the orthonormal phase states |theta_m> on s+1 levels."""
    return np.exp(1j * np.outer(np.arange(s + 1), phase_angles(s, theta0))) / np.sqrt(s + 1)


def pegg_barnett_exponential(s, theta0=0.0):
    """Dense e^{i phase-operator} = V diag(e^{i theta_m}) V^dagger from the
    phase-state projectors (the library uses the cyclic shift it equals)."""
    v = phase_states(s, theta0)
    return v @ np.diag(np.exp(1j * phase_angles(s, theta0))) @ v.conj().T


def phase_difference_trig(s, theta0=0.0):
    """Dense cos / sin of the phase difference on the (s+1)^2 pair space,
    acting on the row-major flattened amplitude matrix Psi[n_A, n_B]."""
    e = pegg_barnett_exponential(s, theta0)
    x = np.kron(e, e.conj().T)
    cos = (x + x.conj().T) / 2.0
    sin = (x - x.conj().T) / 2.0j
    return cos, sin


def matrix_sums(psi):
    """The uncertainty layer's sums from an (s+1)x(s+1) amplitude matrix
    Psi[n_A, n_B], any two-mode state: the O(d^2) reference for the factor
    route.  E lowers the occupation cyclically, so E_A^k E_B^{dagger k} maps
    Psi[n_A, n_B] to Psi[n_A + k, n_B - k] (indices mod s+1), and x_k is the
    overlap of Psi with that rolled copy."""
    from epsim.uncertainty import _Sums

    psi = np.asarray(psi, dtype=complex)
    prob = np.abs(psi) ** 2
    x1, x2 = (np.vdot(psi, np.roll(psi, (-k, k), axis=(0, 1))) for k in (1, 2))
    n_a, n_b = (np.arange(size, dtype=float) for size in psi.shape)
    pa, pb = prob.sum(axis=1), prob.sum(axis=0)
    return _Sums(complex(x1), complex(x2), pa, pb, float(n_a @ pa), float(n_b @ pb))


def stack_sums(rows):
    """One-state ``matrix_sums`` records as the stack ``_sums`` returns:
    each field's entries in one array, row by row."""
    from epsim.uncertainty import _Sums

    return _Sums(*(np.array(column) for column in zip(*rows)))


def matrix_sums_per_row(a, b):
    """``_sums`` of (k, s+1) factor stacks through ``matrix_sums`` on each
    row's amplitude matrix ``np.outer(a[i], b[i])``."""
    return stack_sums([matrix_sums(np.outer(x, y)) for x, y in zip(a, b)])


def random_uncorrelated_pair_oracle(space, rng):
    """``random_uncorrelated_pair`` drawn with four ``randn(w + 1)`` calls,
    the real and imaginary parts of each factor in turn, each factor
    normalized and zero-padded on its own."""
    w = space.s // 2

    def factor():
        vec = rng.randn(w + 1) + 1j * rng.randn(w + 1)
        padded = np.zeros(space.dim, dtype=complex)
        padded[:w + 1] = vec / np.linalg.norm(vec)
        return padded

    return factor(), factor()


def round_floats(obj):
    """Recursively round floats to ``SIG_DIGITS`` significant digits: the
    first of the two tree walks of the standard library route."""
    from epsim.statefile import SIG_DIGITS

    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{SIG_DIGITS}g}")
    if isinstance(obj, complex):
        return [round_floats(obj.real), round_floats(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj))
    if isinstance(obj, (np.complexfloating,)):
        return round_floats(complex(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json_oracle(data):
    """The standard library route to ``statefile.dump_json(data)``: round
    every float, then let ``json`` indent and sort the whole tree."""
    return json.dumps(round_floats(data), indent=2, sort_keys=True)


def cli_out_oracle(run):
    """The ``--out`` text of a subcommand's ``_Run`` by the standard library
    route: the CSV text as is, the bare results, or ``{"results": ...}``."""
    if run.out is not None:
        return run.out
    return dump_json_oracle(run.results if run.bare else {"results": run.results}) + "\n"
