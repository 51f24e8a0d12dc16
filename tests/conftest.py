import os

import numpy as np
import pytest

# One line per acceptance criterion, shown in the terminal summary of every
# run that includes test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from epsim import (
    ModeDescriptor,
    ModeLayout,
    PureState,
    layout_of,
    tensor_product,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def outcome(check, *args):
    """("ok", value) of ``check(*args)``, or the type and message of the
    exception it raised, warnings under an "error" filter included."""
    try:
        return "ok", check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def two_mode_layout() -> ModeLayout:
    return layout_of(
        ModeDescriptor("a", "A", "field", 1),
        ModeDescriptor("b", "B", "field", 1),
    )


def shared_single() -> PureState:
    """(|1,0> + |0,1>) / sqrt(2): one particle coherently shared A/B."""
    s = 1.0 / np.sqrt(2.0)
    return PureState(two_mode_layout(), {(1, 0): s, (0, 1): s})


def shared_double() -> PureState:
    """Two independently shared particles on four field modes."""
    s = 1.0 / np.sqrt(2.0)
    first = PureState(
        layout_of(ModeDescriptor("a1", "A", "field", 1),
                  ModeDescriptor("b1", "B", "field", 1)),
        {(1, 0): s, (0, 1): s})
    second = PureState(
        layout_of(ModeDescriptor("a2", "A", "field", 1),
                  ModeDescriptor("b2", "B", "field", 1)),
        {(1, 0): s, (0, 1): s})
    return tensor_product(first, second)


def random_two_site_state(rng: np.random.RandomState, particles: int,
                          modes_per_site: int = 2,
                          capacity: int | None = None,
                          prefix: str = "") -> PureState:
    """Random state with exactly ``particles`` particles over 2 sites."""
    cap = capacity if capacity is not None else particles
    modes = []
    for site in ("A", "B"):
        for k in range(modes_per_site):
            modes.append(ModeDescriptor(f"{prefix}{site.lower()}{k}", site, "field", cap))
    layout = ModeLayout(tuple(modes))
    labels = [label for label in np.ndindex(*[cap + 1] * len(modes))
              if sum(label) == particles]
    amps = {}
    for label in labels:
        amps[tuple(int(x) for x in label)] = rng.randn() + 1j * rng.randn()
    return PureState(layout, amps, normalize=True)


@pytest.fixture
def rng():
    return np.random.RandomState(42)


@pytest.fixture
def decompositions(monkeypatch):
    """Calls of ``np.linalg.svd`` and ``np.linalg.eigh`` made after the
    fixture is set up, by name; reset them with ``update``."""
    counts = {"svd": 0, "eigh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts
