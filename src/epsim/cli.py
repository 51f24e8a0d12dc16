"""Command-line front end.

Subcommands::

    epsim ep STATEFILE                 sector table and particle entanglement
    epsim transfer STATEFILE           register state via the exact protocol
                                       (sector dephasing of the input;
                                       --path quadrature adds the grid route)
    epsim measure --ntr N              phase-difference measurement analysis
    epsim sweep --ntr-list 25,50,100   visibility / formation-entanglement table
    epsim bounds --seeds N --s S       Robertson / visibility-bound sweep

Exit codes: 0 success, 2 usage error (missing or unknown subcommand or
option, or a malformed or out-of-range option value), state-file parse
error, mode-layout error (modes at one site only, or register-kind or
reserved mode ids in a transfer input), a transfer input whose site-A
particle number pairs with several site-B numbers, a transfer --path
quadrature input of N >= 2M + 3 particles, or option values that would size
arrays past 2^24 coherent levels in measure/sweep or past s = 2048 in
bounds, 3 capacity overflow (kept for library errors; no current CLI input
reaches it), 4 unwritable output, 5 a numerical cross-check or an
uncertainty inequality failed, each with a one-line ``error:`` on stderr,
after any ``warning:`` lines.
Every run prints a JSON report to stdout; ``--out`` additionally writes a
deterministic result file (the stdout report carries wall time, which
covers the subcommand, rendering its results and writing --out; the file
does not, so identical inputs give byte-identical files; --seed is one of
the inputs of bounds and the only seed any subcommand takes).  Both carry
the same results text, rendered once.
``--format csv`` (sweep only) writes that file as CSV.
An argv that starts with a subcommand name is parsed in one pass by that
subcommand's own parser, with the namespace and usage errors the top-level
parser gives it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import warnings
from typing import NamedTuple

import numpy as np

from .fock import (
    CapacityError,
    LayoutError,
    entropy_of_entanglement,
    trace_distance,
)
from .phase import (
    CrossCheckError,
    coherent_visibility_model,
    concurrence_ef_oracle,
    ef_large_visibility,
    ef_upper_bound,
    entanglement_of_formation_x,
    post_measurement_register_state,
    visibility,
)
from .protocol import (
    AncillaSpec,
    GridError,
    ProtocolConfig,
    coherent_coefficients,
    equal_different_measurement,
    phase_grid_register_state,
    run_transfer,
)
from .sectors import (
    particle_entanglement,
    particle_sector_table,
    register_sector_table,
)
from .statefile import (
    StateFileError,
    density_to_dict,
    dump_json,
    dump_members,
    format_float,
    load_state,
    state_to_dict,
)
from .uncertainty import (
    PhaseOperatorSpace,
    PhysicalityError,
    coherent_pair_state,
    pair_state,
    random_uncorrelated_pair,
    robertson_checks,
    visibility_bound_check,
    visibility_caps,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_VIOLATION = 5

SWEEP_COLUMNS = ("ntr", "vis2_full", "vis2_model", "ef", "ef_bound")

# Size limits derived from option values, checked before anything is
# allocated: levels of one ancilla or coherent reference in
# transfer/measure/sweep, and the bounds truncation s (also after growing it
# for --nbar).
MAX_COHERENT_LEVELS = 2 ** 24
MAX_BOUNDS_S = 2048
# Complex entries per factor stack of one bounds block: the random states
# are drawn and checked this many levels at a time, so memory does not grow
# with --seeds.
BOUNDS_BLOCK_ENTRIES = 2 ** 14


class InequalityViolation(RuntimeError):
    """An uncertainty inequality came out below the slack tolerance."""


# The one-line error path: the first matching type gives the exit code.
_EXIT_CODES = {
    StateFileError: EXIT_PARSE,
    GridError: EXIT_PARSE,
    LayoutError: EXIT_PARSE,
    CapacityError: EXIT_CAPACITY,
    OSError: EXIT_IO,
    InequalityViolation: EXIT_VIOLATION,
    CrossCheckError: EXIT_VIOLATION,
}


class _Run(NamedTuple):
    """What a subcommand hands back to ``main``."""

    inputs: dict
    results: dict
    out: str | None = None                  # --out text in place of JSON (sweep CSV)
    bare: bool = False                      # JSON --out is the results, not {"results": ...}
    failure: Exception | None = None        # raised once the report is out


def _checked(base, ok, requirement: str):
    """An argparse ``type``: ``base`` of the text, finite and passing ``ok``,
    or a usage error "must be <requirement>, got <value>" (exit 2)."""
    def parse(text: str):
        value = base(text)
        if not (-math.inf < value < math.inf and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    parse.__name__ = base.__name__          # argparse's "invalid int value: 'abc'"
    return parse


_NON_NEGATIVE = _checked(float, lambda x: x >= 0.0, "finite and >= 0")
_AT_LEAST_ONE = _checked(float, lambda x: x >= 1.0, "finite and >= 1")
_POSITIVE = _checked(float, lambda x: x > 0.0, "finite and > 0")
# A comma-separated option: its text, as the report echoes it, and its values.
_Numbers = NamedTuple("_Numbers", [("text", str), ("values", list)])


def _numbers(item, count: int | None = None):
    """An argparse ``type``: comma-separated values, each read by ``item``,
    exactly ``count`` of them or at least one."""
    def parse(text: str) -> _Numbers:
        values = [item(x) for x in text.split(",") if x.strip()]
        if not values or count not in (None, len(values)):
            raise argparse.ArgumentTypeError(
                f"must be {count or 'one or more'} numbers, got {text!r}")
        return _Numbers(text, values)
    parse.__name__ = "number list"          # argparse's "invalid number list value: '5,x'"
    return parse


def cmd_ep(args) -> _Run:
    state = load_state(args.statefile)
    sector_rows = particle_sector_table(state)
    results = {
        # The same sum over the same rows as particle_entanglement(state).
        "particle_entanglement": sum(row["p"] * row["entanglement"] for row in sector_rows),
        "entropy_of_entanglement": entropy_of_entanglement(state),
        "sectors": sector_rows,
    }
    return _Run({"statefile": args.statefile}, results)


def cmd_transfer(args) -> _Run:
    state = load_state(args.statefile)
    # No result reads the ancilla amplitudes, only M, so the default is the
    # one-level reference of mean 0, whatever M is.
    spec = coherent_coefficients(0.0 if args.nbar is None else args.nbar, args.M)
    config = ProtocolConfig(state, spec, spec)
    # Each site-A particle number must pair with one site-B number, or its
    # register sector is a mixture, whose entanglement is undefined.
    _, _, _, n_a, n_b = config.register_terms
    site_b: dict[int, int] = {}
    for a, b in sorted(set(zip(n_a.tolist(), n_b.tolist()))):
        if site_b.setdefault(a, b) != b:
            raise StateFileError("transfer needs one site-B particle number per site-A number "
                                 f"(a fixed total in each sector): site-A number {a} pairs "
                                 f"with site-B numbers {site_b[a]} and {b}")
    grid = 2 * args.M + 3
    particles = config.total_particles
    if args.path == "quadrature" and particles >= grid:
        raise GridError(f"--path quadrature needs fewer than 2M + 3 = {grid} particles, "
                        f"got {particles}")
    rho = run_transfer(config)
    sector_table = register_sector_table(rho)
    results = {
        "register_state": density_to_dict(rho),
        "sector_weights": {row["n"]: row["weight"] for row in sector_table},
        "sector_entanglements": sector_table,
        "transfer_entanglement": sum(row["weight"] * row["entanglement"]
                                     for row in sector_table),
        "input_particle_entanglement": particle_entanglement(state),
    }
    n_regs = len(rho.layout.modes)
    if (n_regs == 4 and all(m.capacity == 1 for m in rho.layout.modes)
            and len(rho.layout.indices(site="A")) == 2):
        outcomes = equal_different_measurement(rho)
        results["equal_different"] = [
            {"outcome": [o.outcome_a, o.outcome_b], "probability": o.probability,
             "entanglement": o.entanglement}
            for o in outcomes
        ]
        results["average_entanglement"] = sum(
            o.probability * o.entanglement for o in outcomes)
    if args.path == "quadrature":
        approx = phase_grid_register_state(config, grid)
        ratio = particles / (args.M + 1)    # see phase_grid_register_state
        results["quadrature"] = {
            "grid": grid,
            "trace": approx.trace(),
            "trace_distance_to_exact": trace_distance(approx, rho),
            "distance_bound": ratio + ratio ** 2 / 2 + 1e-12,  # rounding margin
        }
    inputs = {"statefile": args.statefile, "M": args.M, "path": args.path, "nbar": args.nbar}
    return _Run(inputs, results)


def _coherent_truncation(nbar: float) -> int:
    """Truncation nbar + 10 sqrt(nbar) of a coherent reference (exit 2 when
    it exceeds MAX_COHERENT_LEVELS levels)."""
    top = nbar + 10.0 * math.sqrt(nbar)
    if not top <= MAX_COHERENT_LEVELS - 1:
        raise StateFileError(f"coherent reference of mean {nbar:g} needs more than "
                             f"{MAX_COHERENT_LEVELS} levels")
    return max(1, math.ceil(top))


def _coherent_references(ntr: float, local_scale: float) -> tuple[AncillaSpec, AncillaSpec]:
    """A transported coherent reference of mean ntr and a local one whose
    amplitude is ``local_scale`` times larger (mean occupation
    local_scale^2 * ntr), each sized by ``_coherent_truncation``."""
    try:
        nbar_local = local_scale ** 2 * ntr
    except OverflowError:
        nbar_local = math.inf
    m_tr, m_local = _coherent_truncation(ntr), _coherent_truncation(nbar_local)
    return coherent_coefficients(ntr, m_tr), coherent_coefficients(nbar_local, m_local)


def cmd_measure(args) -> _Run:
    transported, local = _coherent_references(args.ntr, args.local_scale)
    c = visibility(transported, local)
    mean, variance = transported.moments()
    # The C2 relation caps the transported first moment, |m_tr|^2 <= 4V/(1 + 4V),
    # and |C| = |m_tr||m_loc| <= |m_tr|; E_F grows with |C|, so this caps ef_formula.
    cap = math.sqrt(4.0 * variance / (1.0 + 4.0 * variance))
    results = {
        "c": c,
        "visibility_sq": abs(c) ** 2,
        "ef_formula": entanglement_of_formation_x(c),
        "ef_oracle": concurrence_ef_oracle(post_measurement_register_state(c)),
        "visibility_sq_model": coherent_visibility_model(args.ntr),
        "ef_bound": entanglement_of_formation_x(cap),
        "transported_mean": mean,
        "transported_variance": variance,
    }
    return _Run({"ntr": args.ntr, "local_scale": args.local_scale}, results)


def sweep_rows(ntr_values: list[float], local_scale: float) -> list[dict]:
    rows = []
    for ntr in ntr_values:
        c = visibility(*_coherent_references(ntr, local_scale))
        rows.append({
            "ntr": ntr,
            "vis2_full": abs(c) ** 2,
            "vis2_model": coherent_visibility_model(ntr),
            "ef": ef_large_visibility(c),
            "ef_bound": ef_upper_bound(ntr),
        })
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_float(float(row[c])) for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> _Run:
    ntr_values = args.ntr_list.values
    rows = sweep_rows(ntr_values, args.local_scale)
    efs = [r["ef"] for r in rows]
    results = {"rows": rows, "monotone_ef": all(b > a for a, b in zip(efs, efs[1:]))}
    inputs = {"ntr_list": ntr_values, "local_scale": args.local_scale, "format": args.format}
    csv = args.out and args.format == "csv"
    return _Run(inputs, results, out=sweep_csv(rows) if csv else None, bare=True)


def _fold_checks(summary: dict, report) -> int:
    """Fold one report's checks into the per-inequality summary; returns how
    many of them fail."""
    failed = 0
    for check in report.checks:
        entry = summary.setdefault(check.name, {"min_slack": math.inf, "violations": 0})
        entry["min_slack"] = min(entry["min_slack"], check.slack)
        if not check.holds:
            entry["violations"] += 1
            failed += 1
    return failed


def _coherent_pair_check(nbar_pair: list[float], space: PhaseOperatorSpace):
    """Truncation and visibility report of the coherent pair ``--nbar``.

    The truncation starts at max(s, nbar + 12 sqrt(nbar)) for the larger
    mean and grows one level at a time until the pair passes the check's
    own tail test: the 12 sqrt(nbar) margin bounds a Gaussian tail, and a
    small-mean Poisson tail is heavier (nbar = 2 at s = 16 needs 21).
    """
    nbar_max = max(nbar_pair)
    top = nbar_max + 12.0 * math.sqrt(nbar_max)
    s_pair = max(space.s, math.ceil(min(top, MAX_BOUNDS_S + 1)))
    while s_pair <= MAX_BOUNDS_S:
        pair_space = space if s_pair == space.s else PhaseOperatorSpace(s_pair)
        try:
            return s_pair, visibility_bound_check(
                coherent_pair_state(*nbar_pair, pair_space), pair_space)
        except PhysicalityError:
            s_pair += 1
    raise StateFileError(f"--nbar {nbar_max:g} needs a truncation above {MAX_BOUNDS_S}")


@functools.cache
def _bounds_rng() -> np.random.RandomState:
    """The legacy Mersenne Twister of ``bounds``, built on first use.

    Per-process shared state, reseeded at the start of every run:
    ``seed(n)`` redoes the legacy seeding and drops the cached Gaussian, so
    the draws are exactly those of a fresh ``RandomState(n)``, without
    building the 624-word state through ``SeedSequence`` each time.  Not
    thread-safe, like ``main``, whose ``warnings.catch_warnings`` swaps the
    process-wide filters.
    """
    return np.random.RandomState()


def cmd_bounds(args) -> _Run:
    space = PhaseOperatorSpace(args.s)
    if args.nbar:
        s_pair, pair_rep = _coherent_pair_check(args.nbar.values, space)
    rng = _bounds_rng()
    rng.seed(args.seed)
    block = max(1, BOUNDS_BLOCK_ENTRIES // space.dim)
    # Each block of up to ``block`` states is checked in one pass, and each
    # report is folded in as it comes out; none is kept.
    summary: dict[str, dict] = {}
    violations = 0
    trig_max = 0.0
    offenders = []
    for start in range(0, args.seeds, block):
        a, b = random_uncorrelated_pair(space, rng, min(block, args.seeds - start))
        for row, report in enumerate(robertson_checks((a, b), space)):
            # The caps read the moments of the Robertson report: one pass per state.
            failed = sum(_fold_checks(summary, rep) for rep in (report, visibility_caps(report)))
            trig_max = max(trig_max, abs(report.trig_identity_residual))
            if failed:
                violations += failed
                offenders.append(state_to_dict(pair_state(a[row], b[row])))
    results = {
        "states": args.seeds,
        # A draw lies below the tail cutoff at every --s, so none is redrawn.
        "resampled": 0,
        "trig_identity_max_residual": trig_max,
        "inequalities": summary,
    }
    if offenders:
        results["violating_states"] = offenders
    if args.nbar:
        results["trig_identity_max_residual"] = max(trig_max,
                                                    abs(pair_rep.trig_identity_residual))
        results["coherent_pair"] = {
            "nbar": args.nbar.values,
            "s": s_pair,
            "visibility_sq": pair_rep.visibility_sq,
            "checks": {c.name: {"lhs": c.lhs, "rhs": c.rhs, "slack": c.slack}
                       for c in pair_rep.checks},
        }
        violations += sum(not c.holds for c in pair_rep.checks)
    results["violations"] = violations
    failure = None
    if violations:
        failure = InequalityViolation(f"{violations} inequality violations")
    return _Run({"seeds": args.seeds, "s": args.s, "nbar": args.nbar and args.nbar.text},
                results, failure=failure)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of printing usage and exiting, so they take
    main's one-line exit-2 path.  ``subcommands`` maps each subcommand name
    to its parser (empty on a subcommand's own parser)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.subcommands: dict[str, _Parser] = {}

    def error(self, message):
        raise StateFileError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser; parsing leaves it unchanged, so it is built once."""
    parser = _Parser(prog="epsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="write a deterministic result file")
        p.set_defaults(func=func)
        parser.subcommands[name] = p
        return p

    p_ep = add("ep", cmd_ep, "particle entanglement of a state file")
    p_ep.add_argument("statefile")

    p_tr = add("transfer", cmd_transfer, "run the register transfer protocol")
    p_tr.add_argument("statefile")
    p_tr.add_argument("--M", type=_checked(int, lambda m: 1 <= m < MAX_COHERENT_LEVELS,
                                           f"in [1, {MAX_COHERENT_LEVELS - 1}]"),
                      default=32, help="ancilla truncation")
    p_tr.add_argument("--path", choices=("exact", "quadrature"), default="exact")
    p_tr.add_argument("--nbar", type=_NON_NEGATIVE, default=None,
                      help="coherent ancilla mean (default: 0, a one-level ancilla)")

    p_me = add("measure", cmd_measure, "phase-difference measurement analysis")
    p_me.add_argument("--ntr", type=_AT_LEAST_ONE, default=100.0,
                      help="mean transported particle number")
    p_me.add_argument("--local-scale", type=_POSITIVE, default=10.0,
                      help="local/transported coherent amplitude ratio "
                           "(local mean occupation is scale^2 * ntr)")

    p_sw = add("sweep", cmd_sweep, "visibility / formation entanglement table")
    p_sw.add_argument("--ntr-list", type=_numbers(_AT_LEAST_ONE), required=True,
                      help="comma-separated ntr values")
    p_sw.add_argument("--local-scale", type=_POSITIVE, default=10.0)
    p_sw.add_argument("--format", choices=("json", "csv"), default="json",
                      help="--out file format")

    p_bo = add("bounds", cmd_bounds, "uncertainty inequality sweep")
    p_bo.add_argument("--seeds", type=_checked(int, lambda n: n >= 1, ">= 1"), default=100,
                      help="number of random states")
    p_bo.add_argument("--s", type=_checked(int, lambda s: 16 <= s <= MAX_BOUNDS_S,
                                           f"in [16, {MAX_BOUNDS_S}]"),
                      default=256, help="phase-space truncation")
    p_bo.add_argument("--nbar", type=_numbers(_NON_NEGATIVE, count=2), default=None,
                      help="comma pair, e.g. 25,250: add a coherent-pair check")
    p_bo.add_argument("--seed", type=_checked(int, lambda n: 0 <= n < 2 ** 32,
                                              f"in [0, {2 ** 32 - 1}]"),
                      default=42, help="seed of the random draws, 0 to 2^32 - 1 (default 42)")
    return parser


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` returns, or its
    usage error, in one pass when ``argv`` starts with a subcommand name.

    Such an argv is parsed by that subcommand's own parser with ``command``
    preset, as the top-level parser hands it on; arguments left over go to
    the top-level ``error``, which words them as the top-level route does.
    Every other argv (none, ``-h``, an unknown name) takes the top-level route.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Parse, run one subcommand, write ``--out`` and print the report: a
    ``warning:`` line per warning, an exit code and ``error:`` line per failure."""
    try:
        args = _parse_args(argv)
        started = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                run = args.func(args)
            finally:
                sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
        # Rendered once: the --out document and the report carry this text.
        results = dump_json(run.results, depth=1)
        if args.out:
            text = run.out
            if text is None:
                # A JSON string holds no raw newline, so every "\n  " is a
                # line break plus the depth-1 indent, and dropping that
                # indent gives the depth-0 text.
                text = (results.replace("\n  ", "\n") if run.bare
                        else dump_members({"results": results})) + "\n"
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        report = {"command": args.command, "inputs": run.inputs}
        if "seed" in args:
            report["seed"] = args.seed
        report["wall_time_s"] = time.perf_counter() - started
        members = {key: dump_json(value, depth=1) for key, value in report.items()}
        members["results"] = results
        print(dump_members(members))
        if run.failure is not None:
            raise run.failure
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
