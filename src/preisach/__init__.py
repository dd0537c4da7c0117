"""Rate-independent hysteresis as an aggregation of binary agents.

The package models output branching driven purely by the reversal values of
the input: rectangular relays and soft-branch agents (``hysteron``),
reduction of raw inputs to reversal sequences (``signal``), the compressed
dominant-extrema record of a history (``memory``), population aggregates
with direct and summed-area-table evaluation, cycle tracing and vertical
chords (``classical``), soft-weight aggregates and input-dependent
threshold shifts (``generalized``), plus a CLI (``preisach``).
"""

from .signal import (
    ReversalSequence,
    SampledSeries,
    extract_reversals,
)
from .hysteron import PiecewiseLinear, relay_fold
from .memory import (
    StaircaseMemory,
    check_invariants,
    initial_memory,
    load_memory,
    memory_from_sequence,
    push_extremum,
    save_memory,
    states_of,
)
from .classical import (
    AgentPopulation,
    CongruencyReport,
    LoopTrace,
    WeightGrid,
    check_congruency,
    eval_geometric,
    from_agents,
    minor_loop,
)
from .generalized import (
    GeneralizedPopulation,
    ShiftModel,
    chord_generalized,
    eval_generalized,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPopulation",
    "CongruencyReport",
    "GeneralizedPopulation",
    "LoopTrace",
    "PiecewiseLinear",
    "ReversalSequence",
    "SampledSeries",
    "ShiftModel",
    "StaircaseMemory",
    "WeightGrid",
    "check_congruency",
    "check_invariants",
    "chord_generalized",
    "eval_generalized",
    "eval_geometric",
    "extract_reversals",
    "from_agents",
    "initial_memory",
    "load_memory",
    "memory_from_sequence",
    "minor_loop",
    "push_extremum",
    "relay_fold",
    "save_memory",
    "states_of",
]
