"""Decision/witness algorithms: brute-force oracle and parameterized solvers."""

from .brute import solve_brute
from .paths import solve_on_path
from .dist_clique import solve_dist_clique
from .vertex_cover import solve_vertex_cover
from .edge_clique_cover import solve_edge_clique_cover
from .vertex_clique_cover import solve_vertex_clique_cover
from .co_cluster import solve_co_cluster
from .max_leaf import solve_max_leaf_xp

__all__ = [
    "solve_brute",
    "solve_on_path",
    "solve_dist_clique",
    "solve_vertex_cover",
    "solve_edge_clique_cover",
    "solve_vertex_clique_cover",
    "solve_co_cluster",
    "solve_max_leaf_xp",
]
