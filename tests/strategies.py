"""Hypothesis strategies shared by the property tests."""

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
