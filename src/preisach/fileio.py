"""File formats: CSV series and agent tables, JSON agents and shift models.

CSV tables are read in one numpy pass; if it or a check fails, a row loop
names the line at fault. Soft-branch agents are read in one pass, with no fallback.

All real numbers are written with ``repr`` (shortest round-trip form) so
identical inputs always produce byte-identical output files.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .classical import AgentPopulation
from .generalized import GeneralizedPopulation, ShiftModel
from .hysteron import BranchFunction, PiecewiseLinear
from .memory import read_json
from .signal import SampledSeries


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _columns(path, k: int):
    """The first ``k`` columns under the header row as contiguous float arrays,
    or None if numpy cannot parse them or one is short or not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns about a file without rows
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                               encoding="utf-8")
    except (ValueError, OSError):  # whatever numpy cannot read, the row loop reports
        return None
    ok = len(table) and table.shape[1] >= k and np.isfinite(table[:, :k]).all()
    return [np.ascontiguousarray(col) for col in table.T[:k]] if ok else None


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
    cols = _columns(path, 2)
    if cols is not None and (np.diff(cols[0]) > 0).all():
        return SampledSeries(tuple(cols[0].tolist()), tuple(cols[1].tolist()))
    return _series_by_row(path)


def _series_by_row(path) -> SampledSeries:
    rows = [values for _, values in _rows(path, ("time", "u"))]
    if not rows:
        raise ValueError(f"{path}: empty series")
    try:
        return SampledSeries.from_pairs(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_agents_csv(path) -> AgentPopulation:
    """Parse an ``alpha,beta,nu`` CSV (header row required) into a population."""
    cols = _columns(path, 3)
    if cols is not None and (cols[0] >= cols[1]).all() and (cols[2] >= 0).all():
        return AgentPopulation(*cols)
    return _agents_by_row(path)


def _agents_by_row(path) -> AgentPopulation:
    names = ("alpha", "beta", "nu")
    rows = []
    for lineno, (a, b, v) in _rows(path, names):
        for name, x in zip(names, (a, b, v)):
            if not math.isfinite(x):
                raise ValueError(f"{path}:{lineno}: non-finite {name}")
        if a < b:
            raise ValueError(f"{path}:{lineno}: alpha < beta ({a!r} < {b!r})")
        if v < 0:
            raise ValueError(f"{path}:{lineno}: negative capacity {v!r}")
        rows.append((a, b, v))
    if not rows:
        raise ValueError(f"{path}: empty agent file")
    return AgentPopulation(*zip(*rows))


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
                GeneralizedPopulation.from_knots(*(values[:k] for values in fields))
                try:
                    if len(fields[2]) > k:
                        BranchFunction(fields[2][k])
                except ValueError as fault:
                    exc = fault
                raise ValueError(f"agent {k}: {exc}") from exc
        return GeneralizedPopulation.from_knots(*fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_shift_json(path) -> ShiftModel:
    """Parse a shift model: base agents plus breakpoint tables for g1, g2.

    ``{"agents": [{"alpha":..., "beta":..., "nu":...}, ...],
       "g1": [[u, shift], ...], "g2": [[u, shift], ...]}``
    """
    data = read_json(path)
    try:
        rows = data["agents"]
        alphas = [float(r["alpha"]) for r in rows]
        betas = [float(r["beta"]) for r in rows]
        nus = [float(r["nu"]) for r in rows]
        g1 = PiecewiseLinear([(float(u), float(s)) for u, s in data["g1"]])
        g2 = PiecewiseLinear([(float(u), float(s)) for u, s in data["g2"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed shift model: {exc}") from exc
    try:
        return ShiftModel(AgentPopulation(alphas, betas, nus), g1=g1, g2=g2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
