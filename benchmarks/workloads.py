"""Seeded inputs, jobs and per-job output checks of the benchmark workloads.

A workload is one fixed round of jobs, built from the workload seed and
repeated until the run's time is up.  The shapes of the jobs in a round
(particle number, modes, truncation, ntr, s, ...) form a fixed list, so
every seed costs about the same; the seed draws the states, the support,
the ancilla means, the exact ntr values, the POVM angles and the CLI seeds.
Every fourth shape writes ``--out`` twice with identical arguments, and the
second write must match the first byte for byte.

Repeated rounds make each job a clump of nearly equal latencies in the
sorted sample.  A round holds 10k + 5 jobs, so the median and the
nearest-rank 90th percentile fall in the middle of one clump and not on the
edge between two jobs of different cost.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("transfer", "measure", "bounds")
OUT_EVERY = 4


class CheckFailed(Exception):
    """A job's output broke one of its checks."""


@dataclass
class Outcome:
    stdout: str
    value: object = None

    def results(self) -> dict:
        return json.loads(self.stdout)["results"]


@dataclass
class Job:
    label: str
    check: Callable[[Outcome], None]
    argv: list[str] | None = None          # CLI job: epsim.cli.main(argv)
    call: Callable[[], object] | None = None  # library job
    out: str | None = None                 # --out path written by this job
    same_as_previous: bool = False         # --out bytes must equal the previous write


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _with_out(jobs: list[Job], index: int, make: Callable[[list[str]], Job],
              out_dir: Path, name: str) -> None:
    """Append the job built by ``make``; every OUT_EVERY-th shape runs twice
    with the same ``--out`` file."""
    if index % OUT_EVERY:
        jobs.append(make([]))
        return
    path = str(out_dir / f"{name}.out")
    first = make(["--out", path])
    first.out = path
    second = make(["--out", path])
    second.out = path
    second.same_as_previous = True
    jobs.extend([first, second])


def max_safe_nbar(m: int) -> float:
    """Largest coherent mean with m >= nbar + 10 sqrt(nbar), the truncation
    below which ``coherent_coefficients`` warns that it clips the tail."""
    root = (-10.0 + math.sqrt(100.0 + 4.0 * m)) / 2.0
    return root * root


def unit_amplitudes(rng: np.random.Generator, n: int) -> list[complex]:
    """Random complex amplitudes whose norm, as the state-file reader sums it,
    is exactly 1.0, so the file reloads without renormalization."""
    while True:
        amps = [complex(re, im) for re, im in rng.normal(size=(n, 2))]
        for _ in range(4):
            norm = float(np.sqrt(sum(abs(a) ** 2 for a in amps)))
            if norm == 1.0:
                return amps
            amps = [a / norm for a in amps]


def write_state_file(path: Path, rng: np.random.Generator, particles: int,
                     modes_a: int, modes_b: int, terms: int) -> None:
    """Fixed-particle-number state over field modes at both sites, written
    with every float at full precision."""
    modes = ([{"id": f"a{i}", "site": "A", "kind": "field", "capacity": particles}
              for i in range(modes_a)]
             + [{"id": f"b{i}", "site": "B", "kind": "field", "capacity": particles}
                for i in range(modes_b)])
    labels = [occ for occ in itertools.product(range(particles + 1), repeat=len(modes))
              if sum(occ) == particles]
    if terms > len(labels):
        raise ValueError(f"{terms} terms requested, {len(labels)} labels exist")
    support = sorted(rng.choice(len(labels), size=terms, replace=False))
    amps = unit_amplitudes(rng, terms)
    data = {"modes": modes,
            "terms": [{"occ": list(labels[i]), "amp": [a.real, a.imag]}
                      for i, a in zip(support, amps)]}
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


# --------------------------------------------------------------------- transfer

@dataclass(frozen=True)
class TransferShape:
    particles: int
    modes_a: int
    modes_b: int
    terms: int
    M: int
    coherent: bool
    quadrature: bool = False


# Twenty shapes, 25 transfer jobs after the --out repeats.  Sorted by cost,
# the 20 ep jobs come first, then five jobs of the cheapest shape around the
# median, and five of the DEAR shape around the 90th percentile, below the
# two dearest jobs.  M = 64 only with at most 4 terms; quadrature only with
# at most 2 particles.
CHEAP = TransferShape(1, 1, 1, 2, 8, False)
DEAR = TransferShape(2, 1, 1, 3, 64, False)
DEAREST = TransferShape(3, 1, 1, 4, 64, False)
TRANSFER_SHAPES = (
    CHEAP,
    TransferShape(2, 1, 1, 3, 8, True),
    TransferShape(1, 2, 2, 4, 16, False),
    TransferShape(3, 2, 2, 20, 8, True),
    CHEAP,
    TransferShape(1, 1, 1, 2, 32, False, quadrature=True),
    TransferShape(2, 2, 1, 5, 16, True),
    TransferShape(1, 2, 2, 3, 32, True),
    DEAR,
    CHEAP,
    TransferShape(3, 1, 1, 4, 16, True),
    TransferShape(1, 2, 1, 3, 16, False, quadrature=True),
    DEAR,
    TransferShape(2, 2, 2, 8, 8, True),
    TransferShape(3, 2, 2, 12, 16, False),
    DEAR,
    TransferShape(1, 2, 2, 4, 8, True),
    TransferShape(2, 2, 1, 6, 8, False, quadrature=True),
    DEAREST,
    DEAREST,
)


def _ep_check(store: dict, key: str) -> Callable[[Outcome], None]:
    def check(outcome: Outcome) -> None:
        store[key] = {row["n"]: row["p"] for row in outcome.results()["sectors"]}
    return check


def _transfer_check(store: dict, key: str, quadrature: bool) -> Callable[[Outcome], None]:
    def check(outcome: Outcome) -> None:
        r = outcome.results()
        gap = abs(r["transfer_entanglement"] - r["input_particle_entanglement"])
        _require(gap <= 1e-9, f"transfer entanglement off the input E_P by {gap:.3e}")
        _require(key in store, "no ep result for this state file")
        sectors = store[key]
        weights = {int(n): w for n, w in r["sector_weights"].items()}
        _require(set(weights) == set(sectors),
                 f"register sectors {sorted(weights)} != ep sectors {sorted(sectors)}")
        worst = max(abs(weights[n] - sectors[n]) for n in sectors)
        _require(worst <= 1e-10, f"register sector weight off by {worst:.3e}")
        if quadrature:
            q = r["quadrature"]
            _require(q["trace_distance_to_exact"] <= q["distance_bound"],
                     f"quadrature distance {q['trace_distance_to_exact']} above "
                     f"{q['distance_bound']}")
    return check


def build_transfer(rng: np.random.Generator, work: Path) -> list[Job]:
    store: dict[str, dict] = {}
    jobs: list[Job] = []
    for index, shape in enumerate(TRANSFER_SHAPES):
        path = work / f"state{index:02d}.json"
        write_state_file(path, rng, shape.particles, shape.modes_a, shape.modes_b,
                         shape.terms)
        key = str(path)
        options = ["--M", str(shape.M)]
        if shape.coherent:
            nbar = max_safe_nbar(shape.M) * rng.uniform(1.0 - JITTER, 1.0)
            options += ["--nbar", repr(float(nbar))]
        if shape.quadrature:
            options += ["--path", "quadrature"]
        label = str(shape)
        jobs.append(Job(f"ep {label}", _ep_check(store, key), argv=["ep", key]))
        _with_out(jobs, index, lambda extra: Job(
            f"transfer {label}", _transfer_check(store, key, shape.quadrature),
            argv=["transfer", key] + options + extra),
            work, f"transfer{index:02d}")
    return jobs


# ---------------------------------------------------------------------- measure

NTR_GRID = tuple(4.0 * 50.0 ** (k / 6) for k in range(7))   # 4 .. 200, log-spaced
# ("measure", NTR_GRID index, --local-scale) or ("sweep", ntr values).  The
# order puts the --out repeats on two cheap and three mid-cost jobs, so that
# sorted by cost the four M = 24 POVM jobs sit around the median and the five
# M = 40 ones around the 90th percentile.
MEASURE_SHAPES = (
    ("measure", 0, 3.0), ("measure", 0, 10.0), ("measure", 1, 3.0), ("measure", 1, 10.0),
    ("measure", 2, 3.0), ("measure", 2, 10.0), ("measure", 3, 3.0), ("measure", 3, 10.0),
    ("measure", 4, 10.0), ("measure", 4, 3.0), ("measure", 5, 3.0), ("measure", 5, 10.0),
    ("sweep", (10.0, 25.0, 50.0)), ("measure", 6, 3.0), ("measure", 6, 10.0),
    ("sweep", (4.0, 8.0, 16.0)), ("sweep", (12.0, 24.0, 48.0)),
    ("sweep", (15.0, 30.0, 60.0)), ("sweep", (16.0, 32.0, 64.0)),
    ("sweep", (20.0, 40.0, 80.0)),
)
POVM_JOBS = {16: 1, 24: 4, 40: 5}   # truncation M -> POVM jobs per round
POVM_ANGLES = 16
# Relative spread of the seeded ntr values and means around their shape's
# value; kept small so that every seed costs about the same.
JITTER = 0.04


def _jitter(rng: np.random.Generator, value: float, lo: float, hi: float) -> float:
    return float(min(hi, max(lo, value * (1.0 + JITTER * (rng.random() - 0.5)))))


def _measure_check(outcome: Outcome) -> None:
    r = outcome.results()
    gap = abs(r["ef_formula"] - r["ef_oracle"])
    _require(gap <= 1e-9, f"ef_formula off the concurrence oracle by {gap:.3e}")


def _sweep_check(outcome: Outcome) -> None:
    r = outcome.results()
    _require(r["monotone_ef"] is True, "sweep ef not monotone")
    for row in r["rows"]:
        _require(row["ef"] <= row["ef_bound"] + 1e-6,
                 f"ef {row['ef']} above bound {row['ef_bound']} at ntr {row['ntr']}")


def shared_single_particle():
    """One particle shared evenly by the sites, (|10> + |01>) / sqrt 2."""
    from epsim.fock import ModeDescriptor, PureState, layout_of

    layout = layout_of(ModeDescriptor("a1", "A", "field", 1),
                       ModeDescriptor("b1", "B", "field", 1))
    amp = 1.0 / math.sqrt(2.0)
    return PureState(layout, {(1, 0): amp, (0, 1): amp})


def _povm_job(final, spec, angles: list[float], label: str) -> Job:
    import epsim.phase as phase

    def call():
        return [phase.apply_phase_difference_povm(final, "ref_A", "ref_B", varphi)
                for varphi in angles]

    def check(outcome: Outcome) -> None:
        for varphi, (density, post) in zip(angles, outcome.value):
            gap = abs(density - 1.0 / (2.0 * math.pi))
            _require(gap <= 1e-6, f"POVM density off 1/2pi by {gap:.3e} at {varphi}")
            expected = phase.post_measurement_register_state(
                phase.visibility(spec, spec, varphi))
            for i, li in enumerate(post.basis):
                for j, lj in enumerate(post.basis):
                    delta = abs(post.matrix[i, j]
                                - expected.matrix[expected.index(li), expected.index(lj)])
                    _require(delta <= 1e-8,
                             f"post-measurement state off by {delta:.3e} at {varphi}")

    return Job(label, check, call=call)


def build_measure(rng: np.random.Generator, work: Path) -> list[Job]:
    from epsim.protocol import ProtocolConfig, coherent_coefficients, transfer_final_state

    jobs: list[Job] = []
    for index, (command, *params) in enumerate(MEASURE_SHAPES):
        if command == "measure":
            grid_index, scale = params
            ntr = _jitter(rng, NTR_GRID[grid_index], NTR_GRID[0], NTR_GRID[-1])
            argv = ["measure", "--ntr", repr(ntr), "--local-scale", repr(scale)]
            check = _measure_check
        else:
            values = sorted(_jitter(rng, v, 4.0, 100.0) for v in params[0])
            argv = ["sweep", "--ntr-list", ",".join(repr(v) for v in values)]
            check = _sweep_check
        _with_out(jobs, index, lambda extra, argv=argv, check=check: Job(
            " ".join(argv), check, argv=argv + extra), work, f"measure{index:02d}")
    shared = shared_single_particle()
    for m, count in POVM_JOBS.items():
        nbar = max_safe_nbar(m) * rng.uniform(1.0 - JITTER, 1.0)
        spec = coherent_coefficients(nbar, m)
        final = transfer_final_state(ProtocolConfig(shared, spec, spec))
        for _ in range(count):
            angles = [float(a) for a in rng.uniform(0.0, 2.0 * math.pi, POVM_ANGLES)]
            jobs.append(_povm_job(final, spec, angles, f"povm M={m} nbar={nbar:.3f}"))
    return jobs


# ----------------------------------------------------------------------- bounds

@dataclass(frozen=True)
class BoundsShape:
    s: int
    seeds: int
    nbar: tuple[float, float] | None = None    # adds --nbar a,b


# Twenty shapes, 25 jobs after the --out repeats.  Sorted by cost: ten cheap
# jobs, five (128, 2) jobs around the median, six mid-cost jobs, and four
# (256, 4) jobs around the 90th percentile.
BOUNDS_SHAPES = (
    BoundsShape(128, 2), BoundsShape(64, 1), BoundsShape(64, 3), BoundsShape(128, 3),
    BoundsShape(128, 2), BoundsShape(64, 4), BoundsShape(256, 1),
    BoundsShape(64, 1, nbar=(5.0, 40.0)),
    BoundsShape(256, 4), BoundsShape(128, 1), BoundsShape(256, 2), BoundsShape(128, 2),
    BoundsShape(64, 1), BoundsShape(256, 3), BoundsShape(64, 2),
    BoundsShape(128, 1, nbar=(15.0, 120.0)),
    BoundsShape(64, 2), BoundsShape(256, 4),
    BoundsShape(256, 1, nbar=(25.0, 250.0)),
    BoundsShape(256, 4),
)


def _bounds_check(seeds: int) -> Callable[[Outcome], None]:
    def check(outcome: Outcome) -> None:
        r = outcome.results()
        _require(r["violations"] == 0, f"{r['violations']} inequality violations")
        _require(r["states"] == seeds, f"{r['states']} states, expected {seeds}")
        residual = abs(r["trig_identity_max_residual"])
        _require(residual <= 1e-9, f"trig identity residual {residual:.3e}")
    return check


def build_bounds(rng: np.random.Generator, work: Path) -> list[Job]:
    jobs: list[Job] = []
    for index, shape in enumerate(BOUNDS_SHAPES):
        argv = ["bounds", "--s", str(shape.s), "--seeds", str(shape.seeds),
                "--seed", str(int(rng.integers(0, 2 ** 31)))]
        if shape.nbar is not None:
            a, b = (v * rng.uniform(1.0 - JITTER, 1.0) for v in shape.nbar)
            argv += ["--nbar", f"{a!r},{b!r}"]
        _with_out(jobs, index, lambda extra, argv=argv, seeds=shape.seeds: Job(
            " ".join(argv), _bounds_check(seeds), argv=argv + extra),
            work, f"bounds{index:02d}")
    return jobs


BUILDERS = {"transfer": build_transfer, "measure": build_measure, "bounds": build_bounds}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """The round of jobs for ``workload``; the same seed gives the same round."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    jobs = BUILDERS[workload](rng, work)
    if len(jobs) % 10 != 5:
        raise ValueError(f"{workload} round has {len(jobs)} jobs, not 10k + 5")
    return jobs
