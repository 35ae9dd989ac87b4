"""Mining communication-flow models from message traces.

The pipeline: parse traces of (source, destination, command)
messages, build a causality graph annotated with occurrence and
pairing supports, find the smallest models that satisfy integer
consistency constraints over the edges, and score the resulting
state machines against traces by acceptance ratio.  A synthetic
generator produces interleaved traces from known flow descriptions
so results can be checked against ground truth.
"""

from .causality import (
    CausalityGraph,
    annotate,
    build_graph,
    causal,
    detect_entries_exits,
    detect_initials,
    detect_terminals,
    dump_graph,
    support_deltas,
)
from .extract import (
    ExtractResult,
    NoFeasibleWindowError,
    PreparedAnnotation,
    annotated_graph,
    auto_window,
    model_extract,
    prepare_annotation,
    reduce_model,
)
from .flows import (
    Flow,
    FlowSpec,
    GenConfig,
    generate,
    ground_truth_fsa,
    parse_flowspec,
)
from .fsa import (
    FSA,
    START,
    STRATEGIES,
    AcceptanceReport,
    acceptance_ratio,
    derive_fsa,
    fsa_from_json,
    fsa_to_json,
    to_dot,
)
from .slicing import SlicePolicy, address_block, labeled_slices, parse_policy, slice_trace
from .solver import (
    ConstraintProblem,
    Solution,
    build_constraints,
    check_solution,
    enumerate_solutions,
    export_smtlib,
    pin_zero,
    solve,
)
from .trace import (
    Message,
    MessageTable,
    ParseError,
    Trace,
    parse_message_table,
    parse_trace,
    serialize_message_table,
    serialize_trace,
    trace_of,
    unique_messages,
)
from .transport import SearchStats, Shortfall, minimum_models, shortfall

__version__ = "0.1.0"
