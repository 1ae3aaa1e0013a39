"""Opinion dynamics on time-varying directed graphs with opinion-dependent
susceptibility: simulation, invariant checks, limit classification, and
reproducible experiment scenarios.
"""

from .errors import (
    DomainError,
    OpdynError,
    PreconditionError,
    ScheduleExhaustedError,
    SchemaError,
    ShapeError,
    ValidationError,
)
from .rng import SplitMix64, derive_seed
from .graph import (
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    Violation,
    WeightMatrix,
    find_window_parameters,
    is_strongly_connected,
    parse_weight_matrix_text,
    random_strongly_connected_matrix,
    schedule_rjsc_status,
    uniform_complete_matrix,
    verify_repeated_joint_connectivity,
)
from .dynamics import (
    Constant,
    Custom,
    DeGroot,
    StopRule,
    StubbornExtremist,
    StubbornNeutral,
    StubbornPositive,
    SusceptibilityKind,
    TrajectoryCsv,
    TrajectoryRecord,
    opinion_vector,
    simulate,
    step,
    system_matrix,
    write_trajectory_csv,
)
from .analysis import (
    LemmaReport,
    LimitClassification,
    Outcome,
    RateEstimate,
    check_lemmas,
    classify_limit,
    degroot_consensus_value,
    estimate_rate,
    stationary_weights,
)
from .scenario import (
    RunSummary,
    Scenario,
    build_schedule,
    generate_initial,
    initial_opinions,
    load_scenario,
    load_scenario_file,
    run_comparison,
    run_scenario,
    summary_to_dict,
    write_scenario,
    write_summary,
)

__version__ = "0.1.0"
