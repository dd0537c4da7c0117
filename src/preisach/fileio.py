"""File formats: CSV series and agent tables, JSON agents and shift models.

Each file is parsed once and checked by its model's one validity rule. A CSV
table is parsed by numpy, or where numpy cannot, by a row loop that only parses.
An agent at fault is named by its CSV line or JSON index, a shift table by name.

All real numbers are written with ``repr`` (shortest round-trip form) so
identical inputs always produce byte-identical output files.
"""

from __future__ import annotations

import csv
import itertools
import warnings

import numpy as np

from .classical import AgentPopulation, _relay_fault
from .generalized import GeneralizedPopulation, ShiftModel
from .hysteron import PiecewiseLinear, _branch_fault
from .memory import read_json
from .signal import SampledSeries


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _columns(path, names: tuple[str, ...], check=lambda cols: None):
    """The columns ``names`` under the header row as contiguous float arrays: one
    ``np.loadtxt`` pass, or the row loop where that fails. Before the loop names a
    line it cannot read, ``check`` runs on the columns above, so their faults come first."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns about a file without rows
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                               encoding="utf-8")
    except (ValueError, OSError):  # whatever numpy cannot read, the row loop reads
        table = np.empty((0, 0))
    if not len(table) or table.shape[1] < len(names):
        rows = []
        try:
            rows.extend(values for _, values in _rows(path, names))
        except ValueError:
            check(np.reshape(rows, (-1, len(names))).T)
            raise
        table = np.reshape(rows, (-1, len(names)))
    return [np.ascontiguousarray(col) for col in table.T[:len(names)]]


def _rows(path, names: tuple[str, ...]):
    """The row loop: ``(line number, values)`` of each non-blank row, cells through ``float``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header; a file without one has no rows either
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(names):
                raise ValueError(f"{path}:{lineno}: expected {','.join(names)} columns")
            try:
                yield lineno, [float(cell) for cell in row[:len(names)]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc


def read_series_csv(path) -> SampledSeries:
    """Parse a ``time,u`` CSV (header row required) into a series."""
    times, values = _columns(path, ("time", "u"))
    try:
        return SampledSeries(tuple(times.tolist()), tuple(values.tolist()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_agents_csv(path) -> AgentPopulation:
    """Parse an ``alpha,beta,nu`` CSV (header row required) into a population."""
    names = ("alpha", "beta", "nu")

    def check(cols):
        fault = _relay_fault(*cols)
        if fault is not None:
            lineno, _ = next(itertools.islice(_rows(path, names), fault[0], None))
            raise ValueError(f"{path}:{lineno}: {fault[1]}")

    cols = _columns(path, names, check)
    if not len(cols[0]):
        raise ValueError(f"{path}: empty agent file")
    check(cols)
    return AgentPopulation(*cols)


def read_generalized_json(path) -> GeneralizedPopulation:
    """Parse a JSON array of soft-branch agents.

    Each entry is ``{"alpha":..., "beta":..., "f_plus": [[u, f], ...],
    "f_minus": [[u, f], ...]}``.
    """
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array of agents")
    fields = [], [], [], []  # alpha, beta, f_plus and f_minus of the agents read
    try:
        for k, entry in enumerate(data):
            try:
                for key, values in zip(("alpha", "beta", "f_plus", "f_minus"), fields):
                    values.append([(float(u), float(f)) for u, f in entry[key]]
                                  if key.startswith("f_") else float(entry[key]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                # a fault of an earlier agent, then of this agent's f_plus, is named first
                GeneralizedPopulation(*(values[:k] for values in fields))
                fault = _branch_fault(fields[2][k]) if len(fields[2]) > k else None
                raise ValueError(f"agent {k}: {fault or exc}") from exc
        return GeneralizedPopulation(*fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_shift_json(path) -> ShiftModel:
    """Parse a shift model: base agents plus breakpoint tables for g1, g2.

    ``{"agents": [{"alpha":..., "beta":..., "nu":...}, ...],
       "g1": [[u, shift], ...], "g2": [[u, shift], ...]}``
    """
    data = read_json(path)
    try:
        maps = []
        try:
            fields = _relay_fields(data["agents"])
            for name in ("g1", "g2"):
                knots = data[name]
                try:
                    maps.append(PiecewiseLinear(knots))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{name}: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed shift model: {exc}") from exc
        return ShiftModel(AgentPopulation(*fields), *maps)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _relay_fields(rows) -> tuple[list, list, list]:
    """``alpha``, ``beta`` and ``nu`` of JSON relay agents, in one pass; an agent
    with a field that cannot be read is named after a fault of an earlier agent."""
    fields = alphas, betas, nus = [], [], []
    for k, row in enumerate(rows):
        try:
            alphas.append(float(row["alpha"]))
            betas.append(float(row["beta"]))
            nus.append(float(row["nu"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            AgentPopulation(*(values[:k] for values in fields))
            raise ValueError(f"agent {k}: {exc}") from exc
    return fields


def write_rows_csv(path_or_file, header: list[str], rows) -> None:
    """Write rows of floats under a header, deterministically formatted."""

    def _emit(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")

    if hasattr(path_or_file, "write"):
        _emit(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            _emit(fh)
