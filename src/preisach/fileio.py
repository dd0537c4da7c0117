"""File formats: CSV series and agent tables, JSON agents and shift models.

All real numbers are written with ``repr`` (shortest round-trip form) so
identical inputs always produce byte-identical output files.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .classical import AgentPopulation
from .generalized import GeneralizedPopulation, ShiftModel
from .hysteron import BranchFunction, GeneralizedHysteron, PiecewiseLinear
from .signal import SampledSeries


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def read_series_csv(path) -> SampledSeries:
    """Parse a ``time,u`` CSV (header row required) into a series."""
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty series")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected time,u columns")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty series")
    try:
        return SampledSeries.from_pairs(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_agents_csv(path) -> AgentPopulation:
    """Parse an ``alpha,beta,nu`` CSV (header row required) into a population."""
    alphas: list[float] = []
    betas: list[float] = []
    nus: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty agent file")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{lineno}: expected alpha,beta,nu columns")
            try:
                a, b, v = float(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if a < b:
                raise ValueError(f"{path}:{lineno}: alpha < beta ({a!r} < {b!r})")
            if v < 0:
                raise ValueError(f"{path}:{lineno}: negative capacity {v!r}")
            alphas.append(a)
            betas.append(b)
            nus.append(v)
    if not alphas:
        raise ValueError(f"{path}: empty agent file")
    return AgentPopulation(alphas, betas, nus)


def _branch_from_json(data, where: str) -> BranchFunction:
    try:
        return BranchFunction([(float(u), float(f)) for u, f in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def read_generalized_json(path) -> GeneralizedPopulation:
    """Parse a JSON array of soft-branch agents.

    Each entry is ``{"alpha":..., "beta":..., "f_plus": [[u, f], ...],
    "f_minus": [[u, f], ...]}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array of agents")
    agents = []
    for k, entry in enumerate(data):
        where = f"{path}: agent {k}"
        try:
            agents.append(
                GeneralizedHysteron(
                    alpha=float(entry["alpha"]),
                    beta=float(entry["beta"]),
                    f_plus=_branch_from_json(entry["f_plus"], where),
                    f_minus=_branch_from_json(entry["f_minus"], where),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return GeneralizedPopulation(agents)


def read_shift_json(path) -> ShiftModel:
    """Parse a shift model: base agents plus breakpoint tables for g1, g2.

    ``{"agents": [{"alpha":..., "beta":..., "nu":...}, ...],
       "g1": [[u, shift], ...], "g2": [[u, shift], ...]}``
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        rows = data["agents"]
        alphas = [float(r["alpha"]) for r in rows]
        betas = [float(r["beta"]) for r in rows]
        nus = [float(r["nu"]) for r in rows]
        g1 = PiecewiseLinear([(float(u), float(s)) for u, s in data["g1"]])
        g2 = PiecewiseLinear([(float(u), float(s)) for u, s in data["g2"]])
    except (KeyError, TypeError, ValueError) as exc:
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
