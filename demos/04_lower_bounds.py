"""Three independent ways to prove a retraction cannot be too good.

1. Distance ratio: anchors close in the graph but far on the cycle force
   stretch at least ceil(ell).
2. Sperner colorings: color the cycle in three arcs; any low-stretch
   retraction of a grid induces a coloring with a trichromatic triangle,
   which certifies stretch >= ceil(2m/3) on an m x m grid.
3. An LP relaxation: stretch-s retractions induce edge weights whose sum
   around every short cycle vanishes. The LP at l = ceil(k/s) is infeasible,
   ruling s out, exactly when a rational combination of cycles shorter than
   l sums to the host cycle; one elimination over Horton's candidate cycles
   finds the least such l.
"""

from retract import Instance, gen_grid
from retract.bounds import (distance_stretch_lower_bound, lp_feasible,
                            lp_stretch_lower_bound, retraction_coloring,
                            sperner_certificate)
from retract.planar import optimal_retract_planar

grid = gen_grid(4)
print("grid4 distance bound:", distance_stretch_lower_bound(grid))

ret, rep = optimal_retract_planar(grid)
coloring = retraction_coloring(grid, ret)
tri = sperner_certificate(4, coloring)
print("grid4 optimum %d; trichromatic triangle at %s" % (rep.max_stretch, tri))

# the wheel W4: a hub adjacent to all four anchors of a 4-cycle
w4 = Instance(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                  (0, 4), (1, 4), (2, 4), (3, 4)], (0, 1, 2, 3))
feasible, cert = lp_feasible(w4, 4)
print("W4 LP feasible at l=4:", feasible)
print("  short cycles whose weighted sum is the host cycle:")
for cyc, coef in cert:
    print("    %3s x %s" % (coef, cyc))
print("W4 LP stretch lower bound:", lp_stretch_lower_bound(w4))
print("grid5 LP stretch lower bound:", lp_stretch_lower_bound(gen_grid(5)))
