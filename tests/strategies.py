"""Hypothesis strategies shared by the property tests."""

import itertools
import warnings

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from epsim import AncillaSpec, ModeDescriptor, ModeLayout, PureState, coherent_coefficients

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
def transfer_inputs(draw, max_particles=3):
    """Random two-site state: 1 to max_particles particles, 1-2 modes per
    site, either a fixed total particle number or any total up to the
    maximum."""
    particles = draw(st.integers(1, max_particles))
    fixed = draw(st.booleans())
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
    return PureState(ModeLayout(tuple(modes)), amps, normalize=True)


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
def perturbed_products(draw, max_s=40):
    """Unit-norm (s+1)x(s+1) matrix a (x) b + eps E with complex Gaussian a, b
    and E, 1 <= s <= max_s, eps in {0} u [1e-14, 1e-12] u [1e-5, 1]: exact,
    rounding-level and clearly correlated inputs on either side of the 1e-8
    product tolerance.  About half of the entries of a and of b are zeroed, as
    in number states and windowed supports, so Psi[0, 0] is often zero."""
    s = draw(st.integers(1, max_s))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-14, 1e-12), st.floats(1e-5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = gaussian(s + 1), gaussian(s + 1)
    for vec in (a, b):
        vec[rng.random(s + 1) < 0.5] = 0.0
        vec[rng.integers(s + 1)] = 1.0
    psi = np.outer(a, b) + eps * gaussian(s + 1, s + 1)
    return psi / np.linalg.norm(psi)
