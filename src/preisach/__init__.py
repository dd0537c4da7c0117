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
    require_valid,
    validate,
)
from .hysteron import (
    BranchFunction,
    GeneralizedHysteron,
    PiecewiseLinear,
    relay_fold,
)
from .memory import (
    StaircaseMemory,
    apply_sequence,
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
    Decomposition,
    LoopTrace,
    WeightGrid,
    check_congruency,
    decompose_classical,
    eval_direct,
    eval_geometric,
    from_agents,
    minor_loop,
    uniform_grid,
    vertical_chord,
)
from .generalized import (
    EqualChordsReport,
    GeneralizedPopulation,
    ShiftModel,
    check_equal_chords,
    chord_generalized,
    eval_generalized,
    eval_irreversible,
    eval_shifted,
    midline_offset,
    saturation_term,
)

__version__ = "0.1.0"

__all__ = [
    "AgentPopulation",
    "BranchFunction",
    "CongruencyReport",
    "Decomposition",
    "EqualChordsReport",
    "GeneralizedHysteron",
    "GeneralizedPopulation",
    "LoopTrace",
    "PiecewiseLinear",
    "ReversalSequence",
    "SampledSeries",
    "ShiftModel",
    "StaircaseMemory",
    "WeightGrid",
    "apply_sequence",
    "check_congruency",
    "check_equal_chords",
    "check_invariants",
    "chord_generalized",
    "decompose_classical",
    "eval_direct",
    "eval_generalized",
    "eval_geometric",
    "eval_irreversible",
    "eval_shifted",
    "extract_reversals",
    "from_agents",
    "initial_memory",
    "load_memory",
    "memory_from_sequence",
    "midline_offset",
    "minor_loop",
    "push_extremum",
    "relay_fold",
    "require_valid",
    "saturation_term",
    "save_memory",
    "states_of",
    "uniform_grid",
    "validate",
    "vertical_chord",
]
