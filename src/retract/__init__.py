"""Minimum-stretch retraction of graphs onto an anchor cycle.

Modules:
  core      -- instances, cycle metric, stretch, subdivision, generators, IO
  oracle    -- brute-force ground truth for tiny instances, LP checkers
  approx    -- grid-embedding approximation for arbitrary guests
  planar    -- exact optimal retraction for planar guests
  bounds    -- lower-bound certifiers (distance, Sperner, cycle LP)
  treewidth -- exact DP over nice tree decompositions, arbitrary subgraph hosts
  euclid    -- Euclidean point sets onto a uniform anchor circle
  cli       -- the `retract` command
"""

from .core import (Instance, Retraction, StretchReport, SubgraphHost,
                   ValidationError, SolverError, ResourceError,
                   cycle_dist, stretch, distance_lower_bound, subdivide,
                   gen_grid, gen_column_deleted_grid, gen_random_planar,
                   host_from_cycle, parse_instance, serialize_instance)
from .approx import approx_retract
from .planar import optimal_retract_planar, stretch1_retract
from .bounds import (distance_stretch_lower_bound, lp_feasible,
                     lp_stretch_lower_bound, sperner_certificate)
from .treewidth import optimal_retract_tw, stretch1_tw, tree_decompose
from .euclid import PointSet, euclid_retract, gen_random_points
from .oracle import brute_force_optimal, separation_oracle

__version__ = "0.1.0"

__all__ = [
    "Instance", "Retraction", "StretchReport", "SubgraphHost",
    "ValidationError", "SolverError", "ResourceError",
    "cycle_dist", "stretch", "distance_lower_bound", "subdivide",
    "gen_grid", "gen_column_deleted_grid", "gen_random_planar",
    "host_from_cycle", "parse_instance", "serialize_instance",
    "approx_retract", "optimal_retract_planar", "stretch1_retract",
    "distance_stretch_lower_bound", "lp_feasible", "lp_stretch_lower_bound",
    "separation_oracle", "sperner_certificate",
    "optimal_retract_tw", "stretch1_tw", "tree_decompose",
    "PointSet", "euclid_retract", "gen_random_points",
    "brute_force_optimal", "__version__",
]
