"""Solver library and benchmark harness for the axial multidimensional
assignment problem: construction heuristics, dimensionwise / vectorwise /
variable-depth local searches and their combinations, Chain and Multichain
metaheuristics, reproducible instance generators, and closed-form
neighborhood analysis."""

from .analysis import (
    BoundResult,
    derangements,
    moves_at_most,
    nbhd_size_combined,
    nbhd_size_dv,
    nbhd_size_kopt,
    optimum_probability_bound,
)
from .ap2 import solve_ap2
from .construct import greedy, max_regret, rom, trivial
from .core import (
    Assignment,
    CliqueSum,
    ExplicitTensor,
    Family,
    GeometricPoints,
    Instance,
    LazyRandom,
    Planted,
    ProductWeights,
    SquareRootSquares,
    WeightModel,
    apply_dimension_permutation,
    assignment_weight,
    swap_weight_matrix,
)
from .files import load_assignment, load_instance, save_assignment, save_instance
from .generate import FamilySpec, build_generated_instance, generate, known_optimum, parse_instance_name
from .localsearch import (
    LocalSearchReport,
    build_family,
    combined,
    dv_search,
    k_opt,
    make_local_search,
    v_opt,
)
from .meta import MetaConfig, MetaResult, chain, multichain, perturb

__version__ = "0.1.0"
