"""Independent output oracle for the benchmark, in plain numpy.

Nothing here imports the program under test. The oracle reads the same
generated input files the CLI reads and re-derives the model semantics from
their definitions:

* relays switch up on a rising move to ``u >= alpha`` and down on a falling
  move to ``u <= beta`` (closed ties), all starting DOWN;
* a grid model is the population binned into ``n x n`` cells, each cell a
  point mass at its centre;
* the shift model compares ``u + g2(u)`` with up-thresholds and
  ``u + g1(u)`` with down-thresholds, and outputs the signed capacity of
  the agents still bistable at the current input;
* a soft-branch agent outputs ``f_minus(u)`` while up and ``f_plus(u)``
  while down, each an ``np.interp`` over its knots.

Relay states at a step come from a fold that never walks the agents step by
step: an agent is up iff the last rising move that reached its
up-threshold comes after the last falling move that reached its
down-threshold. Suffix maxima (minima) of the rising (falling) moves turn
both "last move" lookups into one ``searchsorted`` per checkpoint.

Only checkpoint rows are compared with the oracle, at the pinned acceptance
tolerance of 1e-12 relative to the aggregate scale. Every row's step and
input columns are compared exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

TOL = 1e-12  # tests/test_acceptance.py: identities at 1e-12, relative to max(1, scale)
CHECKPOINTS = 40


@dataclass
class Model:
    """Agents as arrays; ``nu`` for relay models, branch tables for soft agents."""

    kind: str  # "direct", "grid", "shifted" or "soft"
    alpha: np.ndarray
    beta: np.ndarray
    nu: np.ndarray | None = None
    g1: tuple[np.ndarray, np.ndarray] | None = None
    g2: tuple[np.ndarray, np.ndarray] | None = None
    branches: list | None = None  # soft: [(up_knots, f_plus, dn_knots, f_minus)]

    @property
    def scale(self) -> float:
        if self.kind == "soft":
            total = sum(max(np.abs(fp).max(), np.abs(fm).max())
                        for _, fp, _, fm in self.branches)
        else:
            total = float(np.abs(self.nu).sum())
        return max(1.0, float(total))


def load_agents_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def direct_model(path) -> Model:
    alpha, beta, nu = load_agents_csv(path)
    return Model("direct", alpha, beta, nu)


def grid_model(path, n: int, bounds: tuple[float, float]) -> Model:
    """Bin by truncation into n x n cells; each occupied cell is one point agent."""
    alpha, beta, nu = load_agents_csv(path)
    lo, hi = bounds
    width = (hi - lo) / n
    rows = np.clip(((alpha - lo) / width).astype(int), 0, n - 1)
    cols = np.clip(((beta - lo) / width).astype(int), 0, n - 1)
    mass = np.bincount(rows * n + cols, weights=nu, minlength=n * n)
    cells = np.flatnonzero(mass)
    centres = lo + (np.arange(n) + 0.5) * width
    return Model("grid", centres[cells // n], centres[cells % n], mass[cells])


def shifted_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    agents = data["agents"]
    table = lambda rows: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))  # noqa: E731
    return Model(
        "shifted",
        np.array([a["alpha"] for a in agents]),
        np.array([a["beta"] for a in agents]),
        np.array([a["nu"] for a in agents]),
        g1=table(data["g1"]),
        g2=table(data["g2"]),
    )


def soft_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        agents = json.load(fh)
    branches = []
    for a in agents:
        fp = np.array(a["f_plus"], dtype=float)
        fm = np.array(a["f_minus"], dtype=float)
        branches.append((fp[:, 0], fp[:, 1], fm[:, 0], fm[:, 1]))
    return Model(
        "soft",
        np.array([a["alpha"] for a in agents]),
        np.array([a["beta"] for a in agents]),
        branches=branches,
    )


def compare_values(model: Model, path: np.ndarray):
    """(up, down): the values compared with alpha and with beta at each input."""
    if model.kind == "shifted":
        return path + np.interp(path, *model.g2), path + np.interp(path, *model.g1)
    return path, path


def fold_states(model: Model, start: float, path: np.ndarray, steps):
    """Yield relay states (+1/-1 per agent) after each step count in ``steps``.

    ``path`` holds the inputs after ``start``; step t means ``path[:t]`` has
    been applied (t = 0 is the start state, every relay DOWN).
    """
    prev = np.concatenate(([start], path[:-1]))
    up, down = compare_values(model, path)
    up = np.where(path > prev, up, -np.inf)
    down = np.where(path < prev, down, np.inf)
    for t in steps:
        last_up = np.maximum.accumulate(up[:t][::-1])[::-1]  # non-increasing
        last_down = np.minimum.accumulate(down[:t][::-1])[::-1]  # non-decreasing
        n_up = np.searchsorted(-last_up, -model.alpha, side="right")
        n_down = np.searchsorted(last_down, model.beta, side="right")
        yield np.where(n_up > n_down, 1.0, -1.0)


def outputs(model: Model, start: float, path: np.ndarray, steps) -> np.ndarray:
    """Aggregate output after each step count in ``steps``."""
    steps = list(steps)
    current = np.array([path[t - 1] if t else start for t in steps])
    if model.kind == "soft":
        # one np.interp per branch over all the checkpoint inputs at once
        f_plus = np.array([np.interp(current, uk, fk) for uk, fk, _, _ in model.branches])
        f_minus = np.array([np.interp(current, uk, fk) for _, _, uk, fk in model.branches])
    if model.kind == "shifted":
        up_now, down_now = compare_values(model, current)
    out = np.empty(len(steps))
    for k, states in enumerate(fold_states(model, start, path, steps)):
        if model.kind == "soft":
            out[k] = np.where(states > 0, f_minus[:, k], f_plus[:, k]).sum()
        elif model.kind == "shifted":
            band = (model.alpha > up_now[k]) & (model.beta < down_now[k])
            out[k] = model.nu[band] @ states[band]
        else:
            out[k] = model.nu @ states
    return out


def checkpoint_rows(n_rows: int, rng) -> np.ndarray:
    """Evenly spaced rows, a few seeded random ones, and the last row."""
    even = np.linspace(0, n_rows - 1, min(n_rows, CHECKPOINTS)).astype(int)
    extra = rng.integers(0, n_rows, min(n_rows, CHECKPOINTS // 4))
    return np.unique(np.concatenate((even, extra, [n_rows - 1])))


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return header, np.array(body, dtype=float).reshape(len(body), len(header))


class Expected:
    """Oracle values for one invocation, computed once and reused per session."""

    def __init__(self, model: Model, start: float, inv, rng, loop: dict | None = None):
        self.inv = inv
        self.scale = model.scale
        if inv.kind == "simulate":
            self.rows = checkpoint_rows(inv.samples, rng)
            self.u = inv.path[inv.offset:inv.offset + inv.samples]
            self.f = outputs(model, start, inv.path, inv.offset + 1 + self.rows)
        elif inv.kind == "loop":
            p = loop["n_points"]
            self.us = np.linspace(loop["u_minus"], loop["u_plus"], p)
            head = np.concatenate((loop["history"], [loop["u_minus"], loop["u_plus"],
                                                     loop["u_minus"]]))
            self.path = np.concatenate((head, self.us[1:], self.us[-2::-1]))
            self.rows = checkpoint_rows(p, rng)
            h = len(head)
            self.f_asc = outputs(model, start, self.path, h + self.rows)
            self.f_desc = outputs(model, start, self.path, h + 2 * (p - 1) - self.rows)

    def check(self, text: str) -> str | None:
        """None when the output matches, else what is wrong."""
        try:
            return self._check(text)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"

    def _check(self, text: str) -> str | None:
        inv = self.inv
        if inv.kind == "verify":
            report = json.loads(text)
            failed = [r["name"] for r in report if not r["passed"]]
            return f"verify checks failed: {failed}" if failed or not report else None
        header, data = read_csv(text)
        tol = TOL * self.scale
        if inv.kind == "simulate":
            if header != ["step", "u", "f"]:
                return f"header {header}"
            if len(data) != inv.samples:
                return f"{len(data)} rows, expected {inv.samples}"
            if not np.array_equal(data[:, 0], np.arange(1, inv.samples + 1)):
                return "step column"
            if not np.array_equal(data[:, 1], self.u):
                return f"u column differs at row {np.flatnonzero(data[:, 1] != self.u)[0]}"
            dev = np.abs(data[self.rows, 2] - self.f)
        else:
            if header != ["u", "f_ascending", "f_descending", "chord"]:
                return f"header {header}"
            if not np.array_equal(data[:, 0], self.us):
                return "u column"
            if not np.array_equal(data[:, 3], data[:, 2] - data[:, 1]):
                return "chord column is not f_descending - f_ascending"
            dev = np.maximum(np.abs(data[self.rows, 1] - self.f_asc),
                             np.abs(data[self.rows, 2] - self.f_desc))
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            return (f"row {int(self.rows[worst]) + 1}: deviation {dev[worst]:.3e} "
                    f"> {tol:.3e}")
        return None


def corrupt_row(text: str, row: int) -> str:
    """The same CSV with the last field of data row ``row`` nudged by a millionth."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-6)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def self_test(expected: Expected, text: str) -> str | None:
    """The oracle must accept ``text`` and reject it with one checkpoint row corrupted."""
    problem = expected.check(text)
    if problem is not None:
        return f"oracle rejects the program's output: {problem}"
    row = int(expected.rows[len(expected.rows) // 2])
    if expected.check(corrupt_row(text, row)) is None:
        return f"oracle missed a corrupted output row {row + 1}"
    return None
