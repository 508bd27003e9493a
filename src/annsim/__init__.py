"""annsim: round-limited cell-probe search in Hamming space.

A library and simulator for randomized approximate nearest neighbor search
under a probe-counting cost model with limited adaptivity: probes are issued
in at most k parallel batches, every cell read is charged, and all
randomness is a public coin shared between the querier and the virtual
tables. A brute-force oracle verifies every correctness condition the
guarantees rely on.
"""

from .alg_general import (
    build_group_addresses,
    params_general,
    probe_bound_general,
    run_general,
)
from .alg_simple import branching_factor, probe_bound_simple, run_simple
from .core import (
    Database,
    Params,
    Point,
    hamming_dist,
)
from .errors import (
    AnnSimError,
    AssumptionViolated,
    ConfigError,
    DimensionMismatch,
    InvalidRoundBudget,
    RoundBudgetExceeded,
    SessionClosed,
)
from .harness import (
    DatasetSpec,
    ExperimentConfig,
    TrialRecord,
    calibrate,
    gen_database,
    run_experiment,
    selftest,
    summarize,
    write_csv,
)
from .near_search import near_scale, run_near
from .oracle import (
    ScaleSets,
    assumption1_failure,
    assumption2_failure,
    check_assumption1,
    check_assumption2,
    exact_nn,
    exact_sets,
)
from .probe_engine import ProbeSession, ProbeTranscript
from .randomness import PublicCoin, coin_for_trial
from .sketch import (
    SketchMatrix,
    decision_threshold,
    derive_matrix,
    row_collision_prob,
    sketch_apply,
)
from .tables import (
    AuxAddress,
    CellAddress,
    aux_cell,
    main_cell,
    membership_cell,
    table_metadata,
)

__version__ = "0.1.0"

__all__ = [
    "AnnSimError",
    "AssumptionViolated",
    "AuxAddress",
    "CellAddress",
    "ConfigError",
    "Database",
    "DatasetSpec",
    "DimensionMismatch",
    "ExperimentConfig",
    "InvalidRoundBudget",
    "Params",
    "Point",
    "ProbeSession",
    "ProbeTranscript",
    "PublicCoin",
    "RoundBudgetExceeded",
    "ScaleSets",
    "SessionClosed",
    "SketchMatrix",
    "TrialRecord",
    "assumption1_failure",
    "assumption2_failure",
    "aux_cell",
    "branching_factor",
    "build_group_addresses",
    "calibrate",
    "check_assumption1",
    "check_assumption2",
    "coin_for_trial",
    "decision_threshold",
    "derive_matrix",
    "exact_nn",
    "exact_sets",
    "gen_database",
    "hamming_dist",
    "main_cell",
    "membership_cell",
    "near_scale",
    "params_general",
    "probe_bound_general",
    "probe_bound_simple",
    "run_experiment",
    "run_general",
    "run_near",
    "run_simple",
    "selftest",
    "sketch_apply",
    "summarize",
    "table_metadata",
    "write_csv",
]
