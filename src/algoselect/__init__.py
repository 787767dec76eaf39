"""Data-driven algorithm selection: offline ERM over parameterized algorithm
families, empirical pseudo-dimension probes, and online no-regret selection."""

from .core import (
    MAXIMIZE,
    MINIMIZE,
    CostValue,
    ErrorReport,
    ShatterReport,
    erm_costs,
    sample_size,
    shatter_probe,
)
from .greedy import (
    KnapsackInstance,
    MwisInstance,
    ParamGreedyFamily,
    erm_breakpoint,
    knapsack_family,
    mwis_family,
    run_greedy,
)
from .gdtune import (
    GdFamily,
    GdInstance,
    erm_stepsize,
    knet,
    run_gd,
    step_map,
    verify_lemmas,
)
from .online import (
    HardInstanceParams,
    RegretTrace,
    SmoothSpec,
    UniformUnion,
    adversary_sequence,
    build_hard_instance,
    run_adversary_online,
    run_smoothed_online,
    smooth_sequence,
    transition_points,
)
from .epm import (
    FeatureMap,
    LinearEpm,
    SelectionTable,
    fit_linear_epm,
    fit_linear_epms,
    fit_selection_table,
    select_per_instance,
)
from .sorter import BucketSorter, SortStats, sort, train_sorter

__version__ = "0.1.0"
