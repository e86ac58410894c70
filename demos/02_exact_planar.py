"""Exact optimum retractions of planar instances.

The planar solver answers "is there a stretch-1 retraction?" one face at a
time: a face can hold all the winding exactly when it is surrounded by k
vertex-disjoint curves to the anchors, and the solver decides that with a
winding cover, shortest paths from the anchors in as many layers as a dual
path from the face crosses edges, verifying the map it reads off. It decides
stretch l the same way on the instance itself, with every non-host edge of
length l in the cover: the l-subdivision admits a stretch-1 retraction
exactly when the original admits stretch l.
"""

from retract import gen_grid, gen_random_planar, stretch, subdivide
from retract.oracle import brute_force_optimal
from retract.planar import optimal_retract_planar, stretch1_retract

grid = gen_grid(4)
ret, rep = optimal_retract_planar(grid)
print("4x4 grid optimum stretch:", rep.max_stretch)
assert stretch(grid, ret).max_stretch == rep.max_stretch

# the subdivision duality in action
for l in (2, 3):
    sub, _ = subdivide(grid, l)
    print("  %d-subdivision has a stretch-1 retraction: %s"
          % (l, stretch1_retract(sub) is not None))

# cross-check against brute force on random small planar instances
for seed in range(3):
    inst = gen_random_planar(6, 8, seed)
    _, fast = optimal_retract_planar(inst)
    _, slow = brute_force_optimal(inst)
    print("random planar seed=%d: planar=%d oracle=%d"
          % (seed, fast.max_stretch, slow.max_stretch))
    assert fast.max_stretch == slow.max_stretch
