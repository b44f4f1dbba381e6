"""Generalized Sierpinski graphs, exact Roman domination, closed-form labelings."""

from .constructions import (
    ConstructionReport,
    bound_value,
    complete_graph_construction,
    cycle_construction,
    lift_base_function,
    path_construction,
    perfect_code_knt,
    roman_graph_bound,
    theorem_upper_bound_construction,
)
from .errors import BudgetError, ContractError, SolveTimeout
from .formulas import (
    KntLowerBound,
    ValueOrBounds,
    gamma_knt,
    gamma_r_knt_upper,
    gamma_r_path_cycle,
    gamma_r_sierpinski_cycle,
    gamma_r_sierpinski_path,
    knt_lower_bound_for_any_graph,
    min_degree_lower_bound,
    universal_vertex_value,
)
from .generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_spanning_subgraph,
    star_graph,
)
from .graphs import (
    Graph,
    format_edge_list,
    is_connected,
    is_spanning_subgraph,
    parse_edge_list,
    to_dot,
)
from .roman import (
    CopyProfile,
    DerivedSets,
    RomanFunction,
    copy_weight_profile,
    derived_sets,
    is_dominating_set,
    is_roman_dominating,
)
from .sierpinski import (
    DEFAULT_VERTEX_BUDGET,
    SierpinskiGraph,
    build,
    check_boundary_adjacency,
    extreme_vertices,
    prefix_vertices,
)
from .solver import (
    Certificate,
    brute_force_gamma_r,
    gamma_exact,
    gamma_r_exact,
)

__version__ = "0.1.0"
