"""Command-line front end.

Subcommands::

    epsim ep STATEFILE                 sector table and particle entanglement
    epsim transfer STATEFILE           register state via the exact protocol
                                       (sector dephasing of the input;
                                       --path quadrature adds the grid route)
    epsim measure --ntr N              phase-difference measurement analysis
    epsim sweep --ntr-list 25,50,100   visibility / formation-entanglement table
    epsim bounds --seeds N --s S       Robertson / visibility-bound sweep
                                       (--seed in [0, 2^32 - 1], default 42,
                                       seeds the draws)

Exit codes: 0 success, 2 usage error (missing or unknown subcommand or
option, or a malformed option value), state-file parse error, mode-layout
error (modes at one site only, or register-kind or reserved mode ids in a
transfer input), a transfer input whose site-A particle number pairs with
several site-B numbers, or invalid option value (also a value that would size
arrays past 2^24 coherent levels in transfer/measure/sweep, a --grid past
2^63 - 1, or s past 2048 in bounds), 3 capacity overflow (kept for library
errors; no current CLI input reaches it), 4 unwritable output, 5 a
numerical cross-check or an uncertainty inequality failed, each with a
one-line ``error:`` on stderr.
Every run prints a JSON report to stdout; ``--out`` additionally writes a
deterministic result file (the stdout report carries wall time, which
covers the subcommand, rendering its results and writing --out; the file
does not, so identical inputs give byte-identical files; --seed is one of
the inputs of bounds and the only seed any subcommand takes).  Both carry
the same results text, rendered once.
``--format csv`` (sweep only) writes that file as CSV.
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
    StateValidationError,
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


def _transfer_ancilla(m: int, nbar: float | None) -> AncillaSpec:
    """Uniform or coherent ancilla; a clipped coherent tail is reported as
    one ``warning:`` line on stderr."""
    if nbar is None:
        return AncillaSpec.uniform(m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = coherent_coefficients(nbar, m)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return spec


def _check_option(name: str, value: float, ok: bool, requirement: str) -> None:
    """Reject a non-finite option value or one failing ``ok`` (exit 2)."""
    if not (math.isfinite(value) and ok):
        raise StateFileError(f"{name} must be finite and {requirement}, got {value}")


def _float_list(name: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise StateFileError(f"{name} must be comma-separated numbers, got {text!r}") from None


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
    if not 1 <= args.M <= MAX_COHERENT_LEVELS - 1:
        raise StateFileError(f"--M must be in [1, {MAX_COHERENT_LEVELS - 1}], got {args.M}")
    if args.nbar is not None:
        _check_option("--nbar", args.nbar, args.nbar >= 0.0, ">= 0")
    if args.grid is not None and args.path != "quadrature":
        raise StateFileError("--grid needs --path quadrature")
    # The grid sink kernel takes particle-number differences modulo the grid
    # in int64.
    if args.grid is not None and args.grid > np.iinfo(np.int64).max:
        raise StateFileError(f"--grid must be at most {np.iinfo(np.int64).max}, "
                             f"got {args.grid}")
    state = load_state(args.statefile)
    spec = _transfer_ancilla(args.M, args.nbar)
    config = ProtocolConfig(state, spec, spec)
    rho = run_transfer(config)
    try:
        sector_table = register_sector_table(rho)
    except StateValidationError as exc:
        # A site-A sector is pure only when its particle number comes with
        # one site-B number; the register entanglement is undefined otherwise.
        raise StateFileError("transfer needs one site-B particle number per site-A "
                             f"number (a fixed total in each sector): {exc}") from exc
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
        grid = 2 * args.M + 3 if args.grid is None else args.grid
        approx = phase_grid_register_state(config, grid)
        results["quadrature"] = {
            "grid": grid,
            "trace": approx.trace(),
            "trace_distance_to_exact": trace_distance(approx, rho),
            "distance_bound": 3.0 / (args.M + 1),
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


def _reference_truncations(ntr: float, local_scale: float) -> tuple[int, float, int]:
    """(M_tr, local mean, M_local) for a transported reference of mean ntr and
    a local one whose amplitude is ``local_scale`` times larger."""
    try:
        nbar_local = local_scale ** 2 * ntr
    except OverflowError:
        nbar_local = math.inf
    return _coherent_truncation(ntr), nbar_local, _coherent_truncation(nbar_local)


def _coherent_references(ntr: float, local_scale: float) -> tuple[AncillaSpec, AncillaSpec]:
    """A transported coherent reference of mean ntr and a local one whose
    amplitude is ``local_scale`` times larger (mean occupation
    local_scale^2 * ntr)."""
    m_tr, nbar_local, m_local = _reference_truncations(ntr, local_scale)
    return coherent_coefficients(ntr, m_tr), coherent_coefficients(nbar_local, m_local)


def cmd_measure(args) -> _Run:
    _check_option("--ntr", args.ntr, args.ntr >= 1.0, ">= 1")
    _check_option("--local-scale", args.local_scale, args.local_scale > 0.0, "> 0")
    transported, local = _coherent_references(args.ntr, args.local_scale)
    c = visibility(transported, local)
    variance = transported.variance
    results = {
        "c": c,
        "visibility_sq": abs(c) ** 2,
        "ef_formula": entanglement_of_formation_x(c),
        "ef_oracle": concurrence_ef_oracle(post_measurement_register_state(c)),
        "visibility_sq_model": coherent_visibility_model(args.ntr),
        "ef_bound": ef_upper_bound(variance),
        "transported_mean": transported.mean,
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
    ntr_values = _float_list("--ntr-list", args.ntr_list)
    if not ntr_values:
        raise StateFileError("empty --ntr-list")
    _check_option("--local-scale", args.local_scale, args.local_scale > 0.0, "> 0")
    for value in ntr_values:
        _check_option("every --ntr-list value", value, value >= 1.0, ">= 1")
        _reference_truncations(value, args.local_scale)
    rows = sweep_rows(ntr_values, args.local_scale)
    efs = [r["ef"] for r in rows]
    results = {"rows": rows, "monotone_ef": all(b > a for a, b in zip(efs, efs[1:]))}
    inputs = {"ntr_list": ntr_values, "local_scale": args.local_scale, "format": args.format}
    return _Run(inputs, results, out=sweep_csv(rows) if args.format == "csv" else None,
                bare=True)


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


def cmd_bounds(args) -> _Run:
    if not 16 <= args.s <= MAX_BOUNDS_S:
        raise StateFileError(f"--s must be in [16, {MAX_BOUNDS_S}], got {args.s}")
    if args.seeds < 1:
        raise StateFileError(f"--seeds must be >= 1, got {args.seeds}")
    if not 0 <= args.seed <= 2 ** 32 - 1:
        raise StateFileError(f"--seed must be in [0, {2 ** 32 - 1}], got {args.seed}")
    space = PhaseOperatorSpace(args.s)
    nbar_pair = None
    if args.nbar is not None:
        nbar_pair = _float_list("--nbar", args.nbar)
        if len(nbar_pair) != 2:
            raise StateFileError(f"--nbar takes two values, got {args.nbar!r}")
        for value in nbar_pair:
            _check_option("every --nbar value", value, value >= 0.0, ">= 0")
        s_pair, pair_rep = _coherent_pair_check(nbar_pair, space)
    rng = np.random.RandomState(args.seed)
    # Each report is folded in as it comes out; none is kept.
    summary: dict[str, dict] = {}
    violations = 0
    trig_max = 0.0
    offenders = []
    resampled = 0
    produced = 0
    while produced < args.seeds:
        a, b = random_uncorrelated_pair(space, rng)
        try:
            report = robertson_checks((a, b), space)
        except PhysicalityError:
            resampled += 1
            continue
        # The caps read the moments of the Robertson report: one pass per state.
        failed = sum(_fold_checks(summary, rep) for rep in (report, visibility_caps(report)))
        trig_max = max(trig_max, abs(report.trig_identity_residual))
        if failed:
            violations += failed
            offenders.append(state_to_dict(pair_state(a, b)))
        produced += 1
    results = {
        "states": produced,
        "resampled": resampled,
        "trig_identity_max_residual": trig_max,
        "inequalities": summary,
    }
    if offenders:
        results["violating_states"] = offenders
    if nbar_pair:
        results["trig_identity_max_residual"] = max(trig_max,
                                                    abs(pair_rep.trig_identity_residual))
        results["coherent_pair"] = {
            "nbar": nbar_pair,
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
    return _Run({"seeds": args.seeds, "s": args.s, "nbar": args.nbar}, results,
                failure=failure)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of printing usage and exiting, so they take
    main's one-line exit-2 path."""

    def error(self, message):
        raise StateFileError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; parsing leaves it unchanged, so it is built once."""
    parser = _Parser(prog="epsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="write a deterministic result file")
        p.set_defaults(func=func)
        return p

    p_ep = add("ep", cmd_ep, "particle entanglement of a state file")
    p_ep.add_argument("statefile")

    p_tr = add("transfer", cmd_transfer, "run the register transfer protocol")
    p_tr.add_argument("statefile")
    p_tr.add_argument("--M", type=int, default=32, help="ancilla truncation")
    p_tr.add_argument("--grid", type=int, default=None, help="--path quadrature grid size")
    p_tr.add_argument("--path", choices=("exact", "quadrature"), default="exact")
    p_tr.add_argument("--nbar", type=float, default=None,
                      help="coherent ancilla mean (default: uniform amplitudes)")

    p_me = add("measure", cmd_measure, "phase-difference measurement analysis")
    p_me.add_argument("--ntr", type=float, default=100.0,
                      help="mean transported particle number")
    p_me.add_argument("--local-scale", type=float, default=10.0,
                      help="local/transported coherent amplitude ratio "
                           "(local mean occupation is scale^2 * ntr)")

    p_sw = add("sweep", cmd_sweep, "visibility / formation entanglement table")
    p_sw.add_argument("--ntr-list", required=True, help="comma-separated ntr values")
    p_sw.add_argument("--local-scale", type=float, default=10.0)
    p_sw.add_argument("--format", choices=("json", "csv"), default="json",
                      help="--out file format")

    p_bo = add("bounds", cmd_bounds, "uncertainty inequality sweep")
    p_bo.add_argument("--seeds", type=int, default=100, help="number of random states")
    p_bo.add_argument("--s", type=int, default=256, help="phase-space truncation")
    p_bo.add_argument("--nbar", default=None,
                      help="comma pair, e.g. 25,250: add a coherent-pair check")
    p_bo.add_argument("--seed", type=int, default=42, help="seed of the random draws")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, run one subcommand, write ``--out``, print the report and map
    every expected failure to its exit code with a one-line ``error:``."""
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        run = args.func(args)
        # Rendered once: the --out document and the report carry this text.
        results = dump_json(run.results, depth=1)
        if args.out:
            text = run.out
            if text is None:
                text = (dump_json(run.results) if run.bare
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
