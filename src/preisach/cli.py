"""Command-line driver: simulate, loop, chord, decompose, verify.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 property
suite failure. All CSV output uses shortest round-trip float formatting,
so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import fileio
from .classical import SupportError, _max_gap, from_agents, minor_loop, require_cycle
from .memory import load_memory, save_memory
from .signal import ReversalSequence, extract_reversals
from .verify import residual_limit, run_suite

USAGE_ERROR = 1
DATA_ERROR = 2
SUITE_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


# Every option, declared once; each subcommand takes only those it reads.
_OPTIONS = {
    "model": dict(choices=("classical", "generalized", "shifted"), default="classical",
                  help="which aggregate to run (default: classical)"),
    "agents": dict(required=True, help="agent file (CSV or JSON per model)"),
    "input": dict(help="sampled series CSV with time,u columns"),
    "history": dict(help="inline comma-separated reversal values"),
    "start": dict(type=float, help="starting input value (default 0)"),
    "memory-in": dict(help="resume from a memory JSON written earlier"),
    "memory-out": dict(help="write the final memory JSON here"),
    "grid-n": dict(type=int, help="classical only: bin agents into an n x n grid and "
                                  "evaluate via region sums"),
    "bounds": dict(help="grid support as LO,HI (default: agent extent; needs --grid-n)"),
    "tol": dict(type=float, default=1e-12, help="comparison tolerance"),
    "out": dict(default="-", help="output path (default: stdout)"),
    "u-minus": dict(type=float, required=True),
    "u-plus": dict(type=float, required=True),
    "n-points": dict(type=int, help="points on the cycle (default 101)"),
    "at": dict(type=float, help="single probe input instead of a grid"),
    "seed": dict(type=int, default=0),
}
_SHARED_OPTIONS = {"model", "agents", "grid-n", "bounds", "out"}
_RUN_OPTIONS = {*_SHARED_OPTIONS, "input", "history", "start", "memory-in", "memory-out"}
_CYCLE_OPTIONS = {*_SHARED_OPTIONS, "u-minus", "u-plus", "n-points"}
# Defaults of options that another option overrides; they are filled in
# after parsing, so giving one alongside its overrider is a usage error.
_OVERRIDDEN = {"start": ("memory_in", 0.0), "n_points": ("at", 101)}
_DASH_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_dash_values(argv: list[str]) -> list[str]:
    """Each ``--option VALUE`` whose VALUE starts with ``-`` and a number, as
    ``--option=VALUE``: argparse takes a token such as ``-1.5,1.2`` or
    ``-inf,1`` for an option unless it is a plain negative number. Every
    option in ``_OPTIONS`` takes one value; its name may be abbreviated."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev[:2] == "--" and prev[2:] and _DASH_NUMBER.match(token) \
                and any(f"--{name}".startswith(prev) for name in _OPTIONS):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _load_model(args):
    kind = args.model
    if kind == "classical":
        pop = fileio.read_agents_csv(args.agents)
        if args.grid_n is not None:
            if args.grid_n < 2:
                raise ValueError("--grid-n must be at least 2")
            if args.bounds is not None:
                try:
                    lo, hi = (float(x) for x in args.bounds.split(","))
                except ValueError as exc:
                    raise ValueError(
                        f"bad --bounds value {args.bounds!r}: expected LO,HI"
                    ) from exc
            else:
                lo, hi = pop.support_bounds()
            return from_agents(pop, args.grid_n, (lo, hi))
        return pop
    if kind == "generalized":
        return fileio.read_generalized_json(args.agents)
    return fileio.read_shift_json(args.agents)


def _input_values(args, start_u: float) -> tuple[float, ...]:
    """The input moves to drive, from --input or --history (``main`` requires just one)."""
    if args.input:
        return fileio.read_series_csv(args.input).values
    return _history_seq(args, start_u).extrema


def _history_seq(args, start_u: float) -> ReversalSequence:
    """History as a reversal sequence (empty when none was given); building it checks it."""
    if args.input:
        return extract_reversals(fileio.read_series_csv(args.input), start_u)
    if not args.history:
        return ReversalSequence(start_u)
    try:
        values = [float(x) for x in args.history.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --history value: {exc}") from exc
    if not values:
        raise ValueError("empty --history")
    try:
        return ReversalSequence(start_u, tuple(values))
    except ValueError as exc:
        if getattr(args, "memory_in", None) is None:
            raise
        raise ValueError(f"{exc}; --history continues {args.memory_in}, "
                         f"whose current input is {start_u!r}") from exc


def _write_rows(args, header, rows) -> None:
    fileio.write_rows_csv(sys.stdout if args.out == "-" else args.out, header, rows)


def _drive(args, header, row) -> int:
    """Drive the model through the input moves, one ``row(step, u, simulator)`` each."""
    model = _load_model(args)
    mem_in = load_memory(args.memory_in) if args.memory_in else None
    start = args.start if mem_in is None else mem_in.current_u
    values = _input_values(args, start)
    sim = model.simulator(start, mem_in)
    rows = []
    for step, u in enumerate(values, start=1):
        sim.push(u)
        rows.append(row(step, u, sim))
    _write_rows(args, header, rows)
    if args.memory_out:
        save_memory(sim.memory, args.memory_out)
    return 0


def cmd_simulate(args) -> int:
    return _drive(args, ["step", "u", "f"], lambda step, u, sim: (step, u, sim.value()))


def cmd_decompose(args) -> int:
    def row(step, u, sim):
        irr, rev, offset = sim.parts()
        return u, irr, rev, offset, irr + rev + offset

    return _drive(args, ["u", "f_irreversible", "G", "F", "f_total"], row)


def cmd_loop(args) -> int:
    model = _load_model(args)
    history = _history_seq(args, args.start)
    trace = minor_loop(model, history, args.u_minus, args.u_plus, args.n_points)
    chord_loop = trace.chord()
    chord_formula = np.array(
        [model.chord(args.u_minus, args.u_plus, float(u)) for u in trace.us]
    )
    mismatch = _max_gap(chord_loop, chord_formula)
    if mismatch <= residual_limit(args.tol, (trace.f_ascending, trace.f_descending)):
        header = ["u", "f_ascending", "f_descending", "chord"]
        rows = zip(trace.us, trace.f_ascending, trace.f_descending, chord_loop)
    else:
        # Dual computation disagrees: emit both so the discrepancy is visible.
        header = ["u", "f_ascending", "f_descending", "chord", "chord_formula"]
        rows = zip(trace.us, trace.f_ascending, trace.f_descending, chord_loop, chord_formula)
        print(
            f"warning: chord mismatch up to {mismatch:.3e} between loop and formula",
            file=sys.stderr,
        )
    _write_rows(args, header, rows)
    return 0


def cmd_chord(args) -> int:
    model = _load_model(args)
    require_cycle(args.u_minus, args.u_plus, args.n_points)
    if args.at is not None:
        us = [args.at]
    else:
        us = np.linspace(args.u_minus, args.u_plus, args.n_points)
    rows = [(float(u), model.chord(args.u_minus, args.u_plus, float(u))) for u in us]
    _write_rows(args, ["u", "chord"], rows)
    return 0


def cmd_verify(args) -> int:
    model = _load_model(args)
    results = run_suite(model, seed=args.seed, tol=args.tol)
    for res in results:
        print(res.line())
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(r) for r in results], fh, indent=2)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else SUITE_FAILURE


_SUBCOMMANDS = (
    ("simulate", cmd_simulate, "drive a model along an input record", _RUN_OPTIONS),
    ("loop", cmd_loop, "trace the steady cycle between two bounds",
     {*_CYCLE_OPTIONS, "input", "history", "start", "tol"}),
    ("chord", cmd_chord, "vertical chord profile of a cycle", {*_CYCLE_OPTIONS, "at"}),
    ("decompose", cmd_decompose, "split the output along the input record", _RUN_OPTIONS),
    ("verify", cmd_verify, "run the structural property suite",
     {*_SHARED_OPTIONS, "tol", "seed"}),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="preisach", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for option, spec in _OPTIONS.items():
            if option in options:
                sub.add_argument(f"--{option}", **spec)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        if args.model != "classical" and (args.grid_n is not None or args.bounds is not None):
            parser.error("--grid-n and --bounds apply to --model classical only")
        if args.bounds is not None and args.grid_n is None:
            parser.error("--bounds applies only with --grid-n")
        if not 0 <= getattr(args, "tol", 0.0) < math.inf:  # nan fails too
            parser.error("--tol must be finite and at least 0")
        if getattr(args, "seed", 0) < 0:
            parser.error("--seed must be at least 0")
        if getattr(args, "input", None) and getattr(args, "history", None):
            parser.error("give either --input or --history, not both")
        if args.command in ("simulate", "decompose") and not (args.input or args.history):
            parser.error("an input is required: --input CSV or --history values")
        for name, (other, default) in _OVERRIDDEN.items():
            if getattr(args, name, default) is None:
                setattr(args, name, default)
            elif getattr(args, other, None) is not None:
                parser.error(f"--{name} does not apply with --{other}".replace("_", "-"))
    except SystemExit as exc:
        # argparse exits itself for --help (0) and via _Parser.error (1)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        hint = ""
        if isinstance(exc, SupportError) and args.bounds is None:
            hint = " (the default grid covers only the agent extent; pass --bounds LO,HI)"
        print(f"preisach: error: {exc}{hint}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
