"""Exact ties: thresholds, shifts and inputs drawn from a one-decimal grid.

Random floats almost never land a history value exactly on a threshold, so
the dual-path identities are checked here on values where they do. The
draws are derandomized, so every run checks the same examples.
"""

import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (branch_at, eval_direct, grid_cells, grid_of, grid_reference,
                     masked_parts, raw_relay_states, series_from_values, soft_exact,
                     soft_population)
from preisach import (
    AgentPopulation,
    GeneralizedPopulation,
    PiecewiseLinear,
    ReversalSequence,
    ShiftModel,
    eval_generalized,
    eval_geometric,
    extract_reversals,
    memory_from_sequence,
    relay_fold,
    states_of,
)
from preisach.cli import main

RS = ReversalSequence
TIES = settings(derandomize=True, database=None, deadline=None, max_examples=60)

tenths = st.integers(-15, 15).map(lambda k: k / 10)
histories = st.lists(tenths, min_size=1, max_size=7)
KNOTS = (-1.5, -0.5, 0.5, 1.5)
# A composite map u + g2(u) that is flat on [0.5, 2]: 0.5 + g2(0.5) is 0.3
# but 0.9 + g2(0.9) summed directly is 0.29999999999999993.
FLAT_G2 = [(-2.0, 1.5), (-0.5, 0.4), (0.5, -0.2), (2.0, -1.7)]
# g1 and g2 both tabulate g(u) = -0.5 - 0.5u, on different knots, so in floats
# up_compare exceeds down_compare at some inputs: at 0.8 they are
# -0.09999999999999998 and -0.10000000000000009, around the threshold -0.1.
SAME_LINE = ([(-1.5, 0.25), (1.5, -1.25)], [(-1.5, 0.25), (-0.5, -0.25), (0.5, -0.75), (1.5, -1.25)])


@st.composite
def thresholds(draw, max_agents=6):
    pairs = draw(st.lists(st.tuples(tenths, tenths), min_size=1, max_size=max_agents))
    return np.array([max(p) for p in pairs]), np.array([min(p) for p in pairs])


F_PLUS = [(-2.0, -1.0), (0.0, -0.5), (2.0, -0.2)]
F_MINUS = [(-2.0, 0.5), (0.0, 1.0), (2.0, 1.5)]


def shared_branch_population(alpha, beta) -> GeneralizedPopulation:
    """Soft agents on these thresholds, all with the branches ``F_PLUS`` and ``F_MINUS``."""
    return GeneralizedPopulation(alpha, beta, [F_PLUS] * len(alpha), [F_MINUS] * len(alpha))


@st.composite
def shift_tables(draw):
    """(g1, g2) knot tables with non-decreasing composites, often flat on a stretch."""
    steps = st.sampled_from((0.0, 0.0, 0.1, 0.5))
    c2 = np.cumsum([draw(tenths)] + [draw(steps) for _ in KNOTS[1:]])
    c1 = c2 + draw(st.sampled_from((0.0, 0.2, 1.0)))
    g2 = list(zip(KNOTS, (c2 - KNOTS).tolist()))
    g1 = list(zip(KNOTS, (c1 - KNOTS).tolist()))
    c = draw(tenths)
    if draw(st.integers(0, 3)) == 0:
        return SAME_LINE
    return (draw(st.sampled_from((g1, [(0.0, 2.0)], [(0.0, c)]))),
            draw(st.sampled_from((g2, FLAT_G2, [(0.0, c - 0.3)]))))


def shift_model(alpha, beta, g1, g2, nu=None):
    try:
        return ShiftModel(AgentPopulation(alpha, beta, np.ones(alpha.size) if nu is None else nu),
                          g1=PiecewiseLinear(g1), g2=PiecewiseLinear(g2))
    except ValueError:
        # rounding in u + g(u) at the knots can make a flat composite
        # decrease by an ulp; the constructor rightly rejects those tables
        return None


@st.composite
def soft_agents(draw):
    """``(alpha, beta, f_plus, f_minus)`` of a soft-branch agent on one-decimal
    knots, or of a rectangular one (constant branches -nu and +nu)."""
    alpha, beta = sorted((draw(tenths), draw(tenths)), reverse=True)
    if draw(st.booleans()):
        nu = draw(tenths) + 1.5
        return alpha, beta, [(0.0, -nu)], [(0.0, nu)]

    def branch(values):
        us = sorted(set(draw(st.lists(tenths, min_size=1, max_size=6))))
        fs = sorted(draw(st.lists(values, min_size=len(us), max_size=len(us))))
        return list(zip(us, fs))

    # f_plus <= 0 <= f_minus everywhere, so every draw is a valid agent
    return (alpha, beta, branch(st.integers(-15, 0).map(lambda k: k / 10)),
            branch(st.integers(0, 15).map(lambda k: k / 10)))


def driven(model, start, values, resume=False):
    sim = model.simulator(start)
    for u in values:
        sim.push(u)
    if resume:
        sim = model.simulator(memory=sim.memory)
    return sim


class TestFoldAgreesWithRawRelays:
    @given(thresholds(), tenths, histories)
    @TIES
    def test_fold_and_memory_replay(self, th, start, values):
        alpha, beta = th
        seq = extract_reversals(series_from_values(values), start)
        want = raw_relay_states(alpha, beta, seq)
        assert np.array_equal(relay_fold(alpha, beta, seq.steps()), want)
        assert np.array_equal(states_of(memory_from_sequence(seq), alpha, beta), want)

    @given(thresholds(), tenths, histories, st.booleans())
    @TIES
    def test_direct_and_soft_simulators(self, th, start, values, resume):
        alpha, beta = th
        seq = extract_reversals(series_from_values(values), start)
        want = raw_relay_states(alpha, beta, seq)
        gpop = shared_branch_population(alpha, beta)
        for model in (AgentPopulation(alpha, beta, np.ones(alpha.size)), gpop):
            sim = driven(model, start, values, resume)
            assert np.array_equal(sim.states, want)
        # the soft split read from the compressed memory adds up to the raw fold
        whole = eval_generalized(gpop, seq, seq.extrema[-1] if seq.extrema else seq.start_u)
        parts = gpop.simulator(memory=memory_from_sequence(seq)).parts()
        assert abs(sum(parts) - whole) <= 1e-12 * max(1.0, abs(whole), *map(abs, parts))

    @given(thresholds(), tenths, histories, tenths, st.booleans())
    @TIES
    def test_shifted_simulator_with_constant_shift(self, th, start, values, shift, resume):
        # With g1 == g2 == c the shift model is the classical one driven by
        # u + c, a strictly increasing map on these values.
        alpha, beta = th
        sm = shift_model(alpha, beta, [(0.0, shift)], [(0.0, shift)])
        seq = extract_reversals(series_from_values(values), start)
        moved = RS(start + shift, tuple(v + shift for v in seq.extrema))
        sim = driven(sm, start, values, resume)
        assert np.array_equal(sim.states, raw_relay_states(alpha, beta, moved))


class TestShiftTies:
    def test_dual_path_regression(self):
        pop = AgentPopulation([0.5, 0.1, 0.6, 0.9, 0.6], [0.1, 0.1, 0.3, 0.5, 0.5], np.ones(5))
        sm = ShiftModel(pop, g1=PiecewiseLinear([(0.0, -0.2)]), g2=PiecewiseLinear([(0.0, -0.5)]))
        seq = RS(-1.0, (1.5, 1.0, 1.4, -0.4, 1.4))
        resumed = sm.simulator(memory=memory_from_sequence(seq))
        assert resumed.value() == eval_generalized(sm, seq, 1.4)

    @given(thresholds(), tenths, histories, shift_tables())
    @TIES
    def test_dual_path_on_tie_grid(self, th, start, values, tables):
        sm = shift_model(*th, *tables)
        if sm is None:
            return
        seq = extract_reversals(series_from_values(values), start)
        q = seq.extrema[-1] if seq.extrema else seq.start_u
        resumed = sm.simulator(memory=memory_from_sequence(seq))
        assert resumed.value() == eval_generalized(sm, seq, q)

    def test_same_line_tables_cross_in_floats(self):
        sm = shift_model(np.array([0.0]), np.array([0.0]), *SAME_LINE)
        assert sm.up_compare(0.8) > -0.1 > sm.down_compare(0.8)

    def test_resume_on_flat_composite_regression(self):
        sm = shift_model(np.array([0.3]), np.array([0.0]), [(0.0, 2.0)], FLAT_G2)
        assert sm.up_compare(0.5) == sm.up_compare(0.9) == 0.3
        values = (-0.7, -1.1, 0.5, 0.9)
        full = driven(sm, -1.0, values)
        assert full.states.tolist() == [1.0]
        assert driven(sm, -1.0, values, resume=True).states.tolist() == [1.0]

    @given(shift_tables(), st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.integers(0, 3))
    @example(([(0.0, 2.0)], FLAT_G2), 0.5, 0.4, 0)
    @TIES
    def test_compare_maps_non_decreasing(self, tables, u1, gap, ulps):
        sm = shift_model(np.array([0.0]), np.array([0.0]), *tables)
        if sm is None:
            return
        u2 = u1 + gap
        for _ in range(ulps):
            u2 = float(np.nextafter(u2, np.inf))
        assert sm.up_compare(u1) <= sm.up_compare(u2)
        assert sm.down_compare(u1) <= sm.down_compare(u2)

    @given(shift_tables(), tenths, st.floats(-3.0, 3.0))
    @TIES
    def test_compare_maps_exact_at_knots_and_for_constant_shifts(self, tables, c, u):
        constant = shift_model(np.array([0.0]), np.array([0.0]), [(0.0, c)], [(0.0, c)])
        assert constant.up_compare(u) == constant.down_compare(u) == u + c
        sm = shift_model(np.array([0.0]), np.array([0.0]), *tables)
        if sm is None:
            return
        g1, g2 = tables
        assert all(sm.down_compare(k) == k + shift for k, shift in g1)
        assert all(sm.up_compare(k) == k + shift for k, shift in g2)


# Capacities over more than 600 decades, zero and the smallest subnormal included.
SPREAD = (0.0, 5e-324, 3e-310, 1.5e-200, 1e-100, 0.1, 1.0, 3.0, 7.25e50, 1e200, 1e300)
capacities = st.lists(st.one_of(st.sampled_from(SPREAD), st.floats(0.0, 1e300)),
                      min_size=6, max_size=6)


def relay_models(alpha, beta, nu, tables):
    """The three relay kinds on the same thresholds (the shift model if its tables pass)."""
    sm = shift_model(alpha, beta, *tables, nu)
    return [AgentPopulation(alpha, beta, nu), shared_branch_population(alpha, beta),
            *([] if sm is None else [sm])]


def reference_states(model, start, values):
    """``relay_fold`` over the raw pushes, each repeated value dropped as a push drops it."""
    steps, prev = [], start
    for v in values:
        if v != prev:
            steps.append((v, v > prev))
            prev = v
    return steps, relay_fold(model.alpha, model.beta, steps, None,
                             model.up_compare, model.down_compare)


def same_bits(x: float, y: float) -> bool:
    return float(x).hex() == float(y).hex()


def same_parts(sim) -> bool:
    """Whether a capacity simulator's ``parts``, read from its exact total, have
    the bits of the masked ``math.fsum`` sums of ``helpers.masked_parts``."""
    ref = masked_parts(sim.model, sim.states, sim.memory.current_u)
    return all(map(same_bits, sim.parts(), ref))


def same_band_bits(sim) -> bool:
    """Whether a shifted simulator's ``value`` and its model's ``output``, read from the
    ledger, have the bits of the masked ``math.fsum`` of the band."""
    u = sim.memory.current_u
    band = masked_parts(sim.model, sim.states, u)[0]
    return same_bits(sim.value(), band) and same_bits(sim.model.output(sim.states, u), band)


def same_direct_bits(sim, lo: float, hi: float) -> bool:
    """Whether a direct simulator's ``value``, its population's ``output`` and the
    ``chord`` of the cycle ``[lo, hi]`` at the current input have the bits of
    ``math.fsum``, which rounds the exact sum once."""
    pop, u = sim.model, sim.memory.current_u
    exact = math.fsum(pop.nu * sim.states)
    chord = 2.0 * math.fsum(pop.nu[pop.flipped(lo, hi, u)])
    return (same_bits(sim.value(), exact) and same_bits(pop.output(sim.states, u), exact)
            and same_bits(pop.chord(lo, hi, u), chord))


class TestRelayIndex:
    """The sorted-index steps and the exact shifted readout against the references."""

    # g(u) = -0.3 - 0.4u on both sides: up_compare(0.9) is 0.24000000000000005,
    # down_compare(0.9) is 0.24, and a relay sits on each value
    ULP_TABLES = ([(-1.0, 0.10000000000000003), (1.0, -0.7)],
                  [(-1.0, 0.10000000000000003), (0.3, -0.42), (2.0, -1.1)])

    def test_ulp_bounds_regression(self):
        g1, g2 = self.ULP_TABLES
        thresholds = np.array([0.24, 0.24000000000000005])
        sm = ShiftModel(AgentPopulation(thresholds, thresholds, [1.0, 2.0]),
                        g1=PiecewiseLinear(g1), g2=PiecewiseLinear(g2))
        assert sm.up_compare(0.9) == 0.24000000000000005 and sm.down_compare(0.9) == 0.24
        # the fall from 0.9 must switch the relay at up_compare(0.9) DOWN, and
        # the rise from 0.9 the one at down_compare(0.9) UP
        values = [0.9, -1.0, 2.0, 0.9, 2.0]
        sim = sm.simulator(-1.0)
        for k, u in enumerate(values, start=1):
            sim.push(u)
            steps, want = reference_states(sm, -1.0, values[:k])
            assert sim.states.tolist() == want.tolist(), u
            assert sm.fold(steps).tolist() == want.tolist(), u
            assert same_band_bits(sim), u
        assert sim.states.tolist() == [1.0, 1.0]

    @given(thresholds(), capacities, tenths, histories, shift_tables(), st.integers(0, 7))
    @example((np.array([0.3, 0.0, -0.4]), np.array([-0.2, 0.0, -0.4])), [1.0] * 6, 0.0,
             [-0.5, -0.9, 0.3, 0.3, -0.1], ([(0.0, 0.0)], [(0.0, 0.0)]), 2)  # virgin fall, rise
    @example((np.array([-0.1, -0.1]), np.array([-0.1, -0.3])), [5e-324, 1e300, 0, 0, 0, 0], -1.0,
             [0.8, -1.0, 1.2, 0.8, 1.2], SAME_LINE, 3)
    @example((np.array([0.1, 0.2, 0.3]), np.array([-0.1, -0.2, -0.3])), [0.1, 0.2, 0.3, 0, 0, 0],
             0.0, [0.5, -0.5, 0.4], ([(0.0, 0.0)], [(0.0, 0.0)]), 2)  # 0.1 + 0.2 + 0.3 != 0.6
    @TIES
    def test_steps_and_readout_on_tie_grid(self, th, nu, start, values, tables, split):
        alpha, beta = th
        span = min(start, *values), max(start, *values)
        for model in relay_models(alpha, beta, np.array(nu[:alpha.size]), tables):
            def check(s, want, k):
                assert np.array_equal(s.states, want), (model, k)
                if isinstance(model, ShiftModel):  # also before the first push
                    assert same_band_bits(s), k
                if isinstance(model, AgentPopulation):
                    assert same_direct_bits(s, *span), k
                if isinstance(model, (AgentPopulation, ShiftModel)):
                    assert same_parts(s), (model, k)

            sim, resumed = model.simulator(start), None
            check(sim, np.full(alpha.size, -1.0), 0)
            for k, u in enumerate(values, start=1):
                if k == split:
                    resumed = model.simulator(memory=sim.memory)
                    check(resumed, sim.states, k)
                steps, want = reference_states(model, start, values[:k])
                assert np.array_equal(model.fold(steps), want), (model, k)
                for s in (sim, resumed):
                    if s is not None:
                        s.push(u)
                        check(s, want, k)
            seq = extract_reversals(series_from_values(values), start)
            q = seq.extrema[-1] if seq.extrema else seq.start_u
            reference = relay_fold(alpha, beta, seq.steps_to(q), None,
                                   model.up_compare, model.down_compare)
            assert np.array_equal(model.fold(seq.steps_to(q)), reference)

    def test_deep_staircase_resume(self):
        # 120 nested pairs (1 - k/128, -1 + k/128) and a live rise to 0; every
        # threshold sits on a stored value or on one moved by the shift below,
        # which is wider than the innermost pairs
        tops = [1 - k / 128 for k in range(120)]
        bottoms = [-1 + k / 128 for k in range(120)]
        path = [v for pair in zip(tops, bottoms) for v in pair] + [0.0]
        mem = memory_from_sequence(RS(-2.0, tuple(path)))
        assert len(mem.vertex_pairs) == 120
        values = np.array(path)
        on_values = np.concatenate((values, values - 0.125, values + 0.125))
        rng = np.random.default_rng(3)
        pairs = np.sort(rng.choice(on_values, (300, 2)), axis=1)
        alpha, beta = pairs[:, 1], pairs[:, 0]
        nu = rng.choice(SPREAD, 300)
        models = relay_models(alpha, beta, nu, ([(0.0, 0.125)], [(0.0, -0.125)]))
        assert len(models) == 3

        def check(sim, n_pairs):
            assert len(sim.memory.vertex_pairs) == n_pairs
            want = relay_fold(alpha, beta, sim.memory.steps(), None,
                              sim.model.up_compare, sim.model.down_compare)
            assert np.array_equal(sim.states, want), (sim.model, n_pairs)
            if isinstance(sim.model, ShiftModel):
                assert same_band_bits(sim), n_pairs
            if isinstance(sim.model, AgentPopulation):
                assert same_direct_bits(sim, -2.0, 1.0), n_pairs  # the history's span
            if isinstance(sim.model, (AgentPopulation, ShiftModel)):
                assert same_parts(sim), (sim.model, n_pairs)

        for model in models:
            sim = model.simulator(memory=mem)
            check(sim, 120)
            sim.push(bottoms[60])  # swallows the 60 innermost pairs
            check(sim, 61)


def same_soft_readout(gpop, agents, sim, lo: float, hi: float) -> bool:
    """Whether a soft simulator's ``value`` and ``parts``, its population's ``output`` and
    the ``chord`` of the cycle ``[lo, hi]`` at the current input have the bits of the
    agents' branch values summed exactly and rounded once (``helpers.soft_exact``)."""
    u = sim.memory.current_u
    value, parts, chord = soft_exact(agents, sim.states, u, lo, hi)
    return (same_bits(sim.value(), value) and same_bits(gpop.output(sim.states, u), value)
            and all(map(same_bits, sim.parts(), parts)) and same_bits(gpop.chord(lo, hi, u), chord))


TOP = 1.7976931348623157e308  # the largest double


class TestSoftReadout:
    """The soft readout is one ``math.fsum`` of the branch levels per sum: each output,
    part and chord is the exact sum of the agents' branch values rounded once."""

    @given(st.lists(soft_agents(), min_size=1, max_size=8), tenths, histories, st.booleans())
    @TIES
    def test_exact_sums_on_thresholds_and_knots(self, agents, start, values, resume):
        # thresholds, knots and inputs share the one-decimal grid, so inputs land on them
        gpop = soft_population(agents)
        span = min(start, *values), max(start, *values)
        sim = gpop.simulator(start)
        assert same_soft_readout(gpop, agents, sim, *span)
        for u in values:
            sim.push(u)
            assert same_soft_readout(gpop, agents, sim, *span), u
        if resume:
            assert same_soft_readout(gpop, agents, gpop.simulator(memory=sim.memory), *span)

    def test_subnormal_levels(self):
        # each part halves an exact sum rounded once, so it is the exact half rounded once:
        # half of 5e-324 rounds to 0 (ties to even) and half of 1.5e-323 to 1e-323, so
        # there the parts need not add up to the output
        for top, half in ((5e-324, 0.0), (1.5e-323, 1e-323)):
            agents = [(0.5, -0.5, [(0.0, 0.0)], [(0.0, top)])]
            gpop = soft_population(agents)
            sim = gpop.simulator(-1.0)
            sim.push(0.6)
            sim.push(0.0)  # UP in the band
            assert sim.value() == top
            assert sim.parts() == (half, 0.0, half)
            assert same_soft_readout(gpop, agents, sim, -1.0, 0.6)

    def test_levels_near_the_float_range(self):
        # the agents' largest values add up to TOP + 2**969, which rounds to TOP: the rule
        # passes them, and every sum the readout forms stays a double
        agents = [(0.5, -0.5, [(-1.0, -TOP / 4), (1.0, 0.0)], [(-1.0, 0.0), (1.0, TOP / 4)]),
                  (0.25, -0.25, [(0.0, -TOP / 4)], [(0.0, TOP / 4)]),
                  (0.0, 0.0, [(0.0, 0.0)], [(0.0, 2.0 ** 969)])]
        gpop = soft_population(agents)
        sim = gpop.simulator(-1.0)
        for u in (1.0, -0.25, 0.5, -1.0, 0.0, 1.0, 0.25):
            sim.push(u)
            assert same_soft_readout(gpop, agents, sim, -1.0, 1.0), u
            assert all(map(math.isfinite, (sim.value(), *sim.parts(), gpop.chord(-1.0, 1.0, u))))


class TestPackedReadout:
    @given(st.lists(soft_agents(), min_size=1, max_size=8),
           st.lists(st.integers(-25, 25).map(lambda k: k / 10), max_size=6))
    @TIES
    def test_bit_identical_to_per_agent_interp(self, agents, queries):
        # every knot, below the first, past the last, and drawn inputs between
        gpop = soft_population(agents)
        knots = [u for h in agents for f in h[2:] for u, _ in f]
        for u in [*queries, *knots, min(knots) - 0.1, max(knots) + 0.1]:
            gap = np.array([0.5 * (branch_at(fm, u) - branch_at(fp, u)) for *_, fp, fm in agents])
            mid = np.array([0.5 * (branch_at(fm, u) + branch_at(fp, u)) for *_, fp, fm in agents])
            assert gpop.loop_gap_at(u).tobytes() == gap.tobytes(), u
            assert gpop.midline_at(u).tobytes() == mid.tobytes(), u


def cell_points(n):
    """Cell centers and edges of an n-cell axis over [0, 1], ascending."""
    return sorted({*((np.arange(n) + 0.5) / n).tolist(), *(np.arange(n + 1) / n).tolist()})


@st.composite
def grid_paths(draw):
    """A weight grid, a start and an input path over its cell centers and edges.

    The path joins drawn values with nested-cycle staircases (one stored
    pair per cycle), each followed by a drawn value that may swallow
    several pairs or wipe all of them out.
    """
    n = draw(st.sampled_from((2, 3, 8, 13, 64)))
    mass = np.tril(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n)))
    points = cell_points(n)
    index = st.integers(0, len(points) - 1)
    path = []
    for _ in range(draw(st.integers(1, 4))):
        path += [points[k] for k in draw(st.lists(index, max_size=6))]
        depth = draw(st.integers(0, len(points) // 2))
        for k in range(depth):
            path += [points[-1 - k], points[k]]
        path.append(points[draw(index)])
    return grid_of(mass), points[draw(index)], path


def deep_grid_case():
    """64 stored pairs, falls that swallow 3 and then 36 of them, a wipe-out."""
    points = cell_points(64)
    staircase = [v for k in range(64) for v in (points[-1 - k], points[k])]
    path = [*staircase, points[60], points[24], points[100], 1.0, 0.0]
    return grid_of(np.tril(np.random.default_rng(7).random((64, 64)))), 0.5, path


class TestStreamedGrid:
    @given(grid_paths(), st.integers(0, 200))
    @example(deep_grid_case(), 90)
    @TIES
    def test_bit_identical_to_stateless_route(self, case, split):
        grid, start, path = case
        sim = grid.simulator(start)
        resumed = None
        for k, u in enumerate(path):
            if k == min(split, len(path) - 1):
                resumed = grid.simulator(memory=sim.memory)
            for s in (sim, resumed):
                if s is not None:
                    s.push(u)
                    # the stateless route, rebuilt from the memory, is the reference
                    assert s.value() == eval_geometric(grid, s.memory), (k, u)

    @given(grid_paths())
    @example(deep_grid_case())
    @TIES
    def test_exact_sums_rounded_once(self, case):
        # each cell a relay at its center, its state folded over the memory, and each
        # output and part an exact sum of the cells' masses rounded once
        grid, start, path = case
        cells = grid_cells(grid)
        sim = grid.simulator(start)
        for u in [start, *path]:
            if u != sim.memory.current_u:
                sim.push(u)
            assert (sim.value(), sim.parts()) == grid_reference(grid, cells, sim.memory), u


class TestDirectVsGeometricTies:
    @given(st.sampled_from((8, 16)), st.integers(0, 2**32 - 1), st.data())
    @TIES
    def test_equal_on_dyadic_grid(self, n, seed, data):
        # dyadic centers and edges are exact, and integer masses sum exactly,
        # so the two routes must agree bit for bit at every tie
        mass = np.tril(np.random.default_rng(seed).integers(0, 4, (n, n))).astype(float)
        grid = grid_of(mass)
        rows, cols = np.nonzero(mass)
        pop = AgentPopulation(grid.centers[rows], grid.centers[cols], mass[rows, cols])
        points = st.sampled_from(cell_points(n))
        start = data.draw(points)
        values = data.draw(st.lists(points, min_size=1, max_size=12))
        seq = extract_reversals(series_from_values(values), start)
        sim = grid.simulator(start)
        for u in values:
            sim.push(u)
            # the grid's parts, read from its stack, are the direct model's
            assert sim.parts() == pop.simulator(memory=sim.memory).parts(), u
        mem = memory_from_sequence(seq)
        assert eval_direct(pop, seq)[-1] == eval_geometric(grid, mem) == sim.value()


def _write_series(path, values):
    with open(path, "w") as fh:
        fh.write("time,u\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values)))


def _rows(path):
    """Each output row's text after its first column (simulate's step numbers restart per run)."""
    with open(path) as fh:
        return [line.split(",", 1)[1] for line in fh.read().splitlines()[1:]]


def _agent_file(kind, alpha, beta, tables, tmp):
    if kind in ("classical", "grid"):
        path = os.path.join(tmp, "agents.csv")
        with open(path, "w") as fh:
            fh.write("alpha,beta,nu\n" + "".join(f"{a},{b},1.5\n" for a, b in zip(alpha, beta)))
        return path
    if kind == "generalized":
        data = [{"alpha": a, "beta": b, "f_plus": F_PLUS, "f_minus": F_MINUS}
                for a, b in zip(alpha.tolist(), beta.tolist())]
    else:
        data = {"agents": [{"alpha": a, "beta": b, "nu": 1.5}
                           for a, b in zip(alpha.tolist(), beta.tolist())],
                "g1": tables[0], "g2": tables[1]}
    path = os.path.join(tmp, "agents.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


MODEL_ARGS = {
    "classical": [],
    "grid": ["--grid-n", "6", "--bounds=-1.5,1.5"],
    "generalized": ["--model", "generalized"],
    "shifted": ["--model", "shifted"],
}


@pytest.mark.parametrize("kind, command", [
    pytest.param(kind, command, id=kind if command == "simulate" else f"{kind}-{command}")
    for command in ("simulate", "decompose") for kind in sorted(MODEL_ARGS)
])
@given(th=thresholds(), start=tenths, values=st.lists(tenths, min_size=2, max_size=6),
       tables=shift_tables())
@example(th=(np.array([0.3]), np.array([0.0])), start=-1.0, values=[-0.7, -1.1, 0.5, 0.9, 0.9],
         tables=([(0.0, 2.0)], FLAT_G2))
@settings(TIES, max_examples=25)
def test_split_run_is_byte_identical(kind, command, th, start, values, tables):
    alpha, beta = th
    if kind == "shifted" and shift_model(alpha, beta, *tables) is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = functools.partial(os.path.join, tmp)
        base = [command, "--agents", _agent_file(kind, alpha, beta, tables, tmp),
                *MODEL_ARGS[kind]]
        _write_series(path("all.csv"), values)
        assert main([*base, "--start", repr(start), "--input", path("all.csv"),
                     "--out", path("full.csv")]) == 0
        for k in range(1, len(values)):
            _write_series(path("a.csv"), values[:k])
            _write_series(path("b.csv"), values[k:])
            assert main([*base, "--start", repr(start), "--input", path("a.csv"),
                         "--memory-out", path("m.json"), "--out", path("1.csv")]) == 0
            assert main([*base, "--input", path("b.csv"), "--memory-in", path("m.json"),
                         "--out", path("2.csv")]) == 0
            assert _rows(path("1.csv")) + _rows(path("2.csv")) == _rows(path("full.csv"))


@pytest.mark.parametrize("kind", sorted(MODEL_ARGS))
@given(th=thresholds(), start=tenths, values=st.lists(tenths, min_size=1, max_size=6),
       tables=shift_tables())
@settings(TIES, max_examples=25)
def test_decompose_rows_reassemble_simulate(kind, th, start, values, tables):
    # decompose's f_total rounds its three parts' sum, so it matches simulate's
    # f only to 1e-12 relative; a shifted f is the band part itself, f_irreversible
    alpha, beta = th
    if kind == "shifted" and shift_model(alpha, beta, *tables) is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = functools.partial(os.path.join, tmp)
        _write_series(path("in.csv"), values)
        base = ["--agents", _agent_file(kind, alpha, beta, tables, tmp), *MODEL_ARGS[kind],
                "--start", repr(start), "--input", path("in.csv")]
        assert main(["simulate", *base, "--out", path("f.csv")]) == 0
        assert main(["decompose", *base, "--out", path("parts.csv")]) == 0
        for f_row, parts_row in zip(_rows(path("f.csv")), _rows(path("parts.csv")), strict=True):
            f = f_row.split(",")[1]
            f_irreversible, _, _, f_total = parts_row.split(",")
            if kind == "shifted":
                assert f_irreversible == f, (f_row, parts_row)
            else:
                assert abs(float(f_total) - float(f)) <= 1e-12 * max(1.0, abs(float(f))), \
                    (f_row, parts_row)
