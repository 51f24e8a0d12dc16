"""Hypothesis strategies shared by the property tests."""

import functools
import itertools
import warnings

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from epsim import (
    AncillaSpec,
    ModeDescriptor,
    ModeLayout,
    PhaseOperatorSpace,
    PureState,
    coherent_coefficients,
)
from epsim.uncertainty import coherent_pair_state

AMPLITUDES = st.builds(lambda r, phi: r * np.exp(1j * phi),
                       st.floats(0.1, 1.0), st.floats(0.0, 2.0 * np.pi))


def _random_ancilla(draw, m):
    coeffs = np.array(draw(st.lists(AMPLITUDES, min_size=m + 1, max_size=m + 1)))
    return AncillaSpec(m, coeffs / np.linalg.norm(coeffs))


@st.composite
def random_ancillas(draw, max_m):
    """Random complex unit-norm ancilla amplitudes with 1 <= M <= max_m."""
    return _random_ancilla(draw, draw(st.integers(1, max_m)))


@st.composite
def ancilla_specs(draw, max_m=12):
    """Uniform, coherent or random complex ancilla with M <= max_m."""
    m = draw(st.integers(1, max_m))
    kind = draw(st.sampled_from(("uniform", "coherent", "random")))
    if kind == "uniform":
        return AncillaSpec.uniform(m)
    if kind == "coherent":
        nbar = draw(st.floats(0.0, 6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return coherent_coefficients(nbar, m)
    return _random_ancilla(draw, m)


@st.composite
def transfer_inputs(draw, max_particles=3, fixed_total=None, shuffled=False):
    """Random two-site state: 1 to max_particles particles, 1-2 modes per
    site, either a fixed total particle number or any total up to the
    maximum (drawn, unless ``fixed_total`` picks one).  The site-A modes come
    first, unless ``shuffled`` draws a permutation of the mode order."""
    particles = draw(st.integers(1, max_particles))
    fixed = draw(st.booleans()) if fixed_total is None else fixed_total
    modes = []
    for site in ("A", "B"):
        for k in range(draw(st.integers(1, 2))):
            modes.append(ModeDescriptor(f"{site.lower()}{k}", site, "field",
                                        draw(st.integers(1, particles))))
    labels = [label for label in itertools.product(*(range(m.capacity + 1) for m in modes))
              if (sum(label) == particles if fixed else sum(label) <= particles)]
    assume(labels)
    support = draw(st.lists(st.sampled_from(labels), min_size=1,
                            max_size=len(labels), unique=True))
    amps = {label: draw(AMPLITUDES) for label in support}
    if shuffled:
        order = draw(st.permutations(range(len(modes))))
        modes = [modes[i] for i in order]
        amps = {tuple(label[i] for i in order): amp for label, amp in amps.items()}
    return PureState(ModeLayout(tuple(modes)), amps, normalize=True)


@st.composite
def binary_pair_inputs(draw):
    """Random state on two capacity-1 field modes per site, the input whose
    transfer leaves two binary registers per site: either of one drawn
    total particle number (0 to 4) or of any totals."""
    modes = tuple(ModeDescriptor(f"{site.lower()}{k}", site, "field", 1)
                  for site in ("A", "B") for k in range(2))
    labels = list(itertools.product((0, 1), repeat=4))
    if draw(st.booleans()):
        total = draw(st.integers(0, 4))
        labels = [label for label in labels if sum(label) == total]
    support = draw(st.lists(st.sampled_from(labels), min_size=1,
                            max_size=len(labels), unique=True))
    amps = {label: draw(AMPLITUDES) for label in support}
    return PureState(ModeLayout(modes), amps, normalize=True)


@st.composite
def amplitude_matrices(draw, max_s=40):
    """Unit-norm complex (s+1)x(s+1) amplitude matrix with 1 <= s <= max_s and
    every entry's modulus in [0.1, 1] before normalization, so the rows and
    columns at the truncation boundary carry weight."""
    s = draw(st.integers(1, max_s))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (s + 1, s + 1)
    psi = rng.uniform(0.1, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))
    return psi / np.linalg.norm(psi)


@st.composite
def factor_pairs(draw, max_s=64):
    """Two unit-norm complex factor vectors ``(a, b)`` of length s+1 with
    1 <= s <= max_s.  Each factor is supported on [0, top]; top = s (an
    unpadded support that reaches the truncation boundary) for about half of
    the factors and uniform in [0, s] otherwise.  About a third of the
    entries are zeroed, as in number states, and one entry of the support is
    set to 1 so the factor is never zero."""
    s = draw(st.integers(1, max_s))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for _ in range(2):
        top = draw(st.one_of(st.just(s), st.integers(0, s)))
        vec = np.zeros(s + 1, dtype=complex)
        vec[:top + 1] = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
        vec[rng.random(s + 1) < 1.0 / 3.0] = 0.0
        vec[rng.integers(top + 1)] = 1.0
        factors.append(vec / np.linalg.norm(vec))
    return tuple(factors)


@st.composite
def coherent_pairs(draw, max_s=256):
    """A truncation 16 <= s <= max_s and the factors ``(a, b)`` of two
    coherent states on it, each mean in [0, s]: the larger means leave tail
    mass above the physicality cutoff s - sqrt(s), or are clipped."""
    space = PhaseOperatorSpace(draw(st.integers(16, max_s)))
    nbars = [draw(st.floats(0.0, float(space.s))) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return space, coherent_pair_state(*nbars, space)


def frontier_factor(s, lam):
    """The frontier vector of strength ``lam`` on 0..s: the top eigenvector
    of the real tridiagonal H = (S + S^T)/2 - lam (n - n0)^2, n0 = s/2 and S
    the lowering shift |n> -> |n-1> without wrap-around, signed so its
    entries are non-negative.  It maximizes Re<E> - lam <(n - n0)^2>, so
    over lam it traces the frontier of |<E>|^2 against Var N: the
    minimum-uncertainty number-phase states (Jackiw, J. Math. Phys. 9, 339
    (1968); Carruthers & Nieto, RMP 40, 411 (1968)).  Var N is close to
    1/(2 sqrt(2 lam)) while that spread stays above one level."""
    n = np.arange(s + 1.0)
    h = np.diag(-lam * (n - s / 2) ** 2) + 0.5 * (np.eye(s + 1, k=1) + np.eye(s + 1, k=-1))
    vec = np.linalg.eigh(h)[1][:, -1]
    return (vec * np.sign(vec.sum())).astype(complex)


def _log_uniform(draw, lo, hi):
    return 10.0 ** draw(st.floats(np.log10(lo), np.log10(hi)))


def _frontier_lam(draw, s):
    """A strength whose frontier vector on 0..s keeps eight standard
    deviations between n0 and the physicality cutoff s - sqrt(s), so its
    tail is far below the physicality tolerance: strengths from 10, near
    a number state, down to that of Var N = ((s/2 - sqrt(s))/8)^2, which
    is 851 at s = 512."""
    var_max = ((s / 2 - np.sqrt(s)) / 8.0) ** 2
    return _log_uniform(draw, 1.0 / (8.0 * var_max ** 2), 10.0)


def _rows(draw, row):
    return [row() for _ in range(draw(st.integers(1, 3)))]


@st.composite
def frontier_pairs(draw, max_s=512):
    """A truncation 16 <= s <= max_s and 1 to 3 rows ``(a, b)`` on it, each
    factor a frontier vector of its own strength."""
    space = PhaseOperatorSpace(draw(st.integers(16, max_s)))
    return space, _rows(draw, lambda: tuple(frontier_factor(space.s, _frontier_lam(draw, space.s))
                                            for _ in range(2)))


@st.composite
def frontier_coherent_pairs(draw, max_s=512):
    """A truncation 64 <= s <= max_s and 1 to 3 rows on it, each a frontier
    vector beside a coherent state of mean in [0, s/4] (physical from
    s = 64 on), in either order."""
    space = PhaseOperatorSpace(draw(st.integers(64, max_s)))

    def row():
        frontier = frontier_factor(space.s, _frontier_lam(draw, space.s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coherent, _ = coherent_pair_state(draw(st.floats(0.0, space.s / 4.0)), 0.0, space)
        return (frontier, coherent) if draw(st.booleans()) else (coherent, frontier)

    return space, _rows(draw, row)


# Strengths of the near-saturating rows at s = 512: Var N from about 12
# down to 3 for the factor under test, and from about 790 down to 320 for
# its partner.  A fixed grid lets each vector's eigh run once per session.
_NEAR_LAM_A = tuple(np.geomspace(8e-4, 1.2e-2, 6).tolist())
_NEAR_LAM_B = tuple(np.geomspace(2e-7, 1.2e-6, 4).tolist())


@functools.cache
def _frontier_512(lam):
    vec = frontier_factor(512, lam)
    vec.flags.writeable = False
    return vec


@st.composite
def near_saturating_pairs(draw):
    """1 to 3 frontier rows at s = 512 that come within a few 1e-3 of the
    C2_A cap: a factor of Var N_A from about 3 to 12 beside a partner of
    Var N_B from about 320 to 790, whose |<E_B>|^2 is close to 1."""
    space = PhaseOperatorSpace(512)
    return space, _rows(draw, lambda: (_frontier_512(draw(st.sampled_from(_NEAR_LAM_A))),
                                       _frontier_512(draw(st.sampled_from(_NEAR_LAM_B)))))
