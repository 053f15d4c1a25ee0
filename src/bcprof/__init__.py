"""Exact k-betweenness-centrality profiles of trees.

Exact (rational) computation of bounded-length betweenness profiles,
dip/crossing analysis, worst-case tree families, preferential-attachment
random trees with exact small-n expectations, and a seeded Monte Carlo
experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    BadSpecError,
    BcprofError,
    DiameterTooSmallError,
    DisconnectedError,
    DuplicateEdgeError,
    LengthMismatchError,
    NotASimplePathError,
    NTooLargeError,
    OddMError,
    OutOfDomainError,
    OutOfRangeError,
    OutOfTabulatedRangeError,
    PreconditionViolatedError,
    SearchCapExceededError,
    SelfLoopError,
    UnknownCheckError,
    WrongEdgeCountError,
)
from .tree_core import (
    PathCountTable,
    Profile,
    Tree,
    all_profiles,
    bfs_distances,
    build_tree,
    diameter,
    path_counts_fast,
    path_counts_naive,
    prefix_counts,
    profile,
    read_tree,
    tree_from_parents,
    write_tree,
)
from .profile_analysis import (
    CrossingReport,
    DipReport,
    count_crossings,
    count_dips,
    dominates,
    is_monotone,
    monotonicity_class,
    pair_analysis,
    vertex_analysis,
)
from .tree_families import (
    TellChoice,
    closed_form_gij_pk,
    closed_form_gij_Pk,
    closed_form_gij_Pkv,
    closed_form_path_bck,
    closed_form_path_Pkv,
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
    tabulated_gij_k_values,
)
from .scale_free import (
    PathSignature,
    RecursiveTree,
    all_candidate_paths,
    estimate_expected_profiles,
    exact_expected_pk,
    exact_path_presence_prob,
    injection,
    path_probability,
    sample_tree,
    signature_of_path,
    splitmix64,
    substream_seed,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_csv,
    write_manifest,
)
from .verify import CheckCase, CheckReport, CHECK_NAMES, run_check
