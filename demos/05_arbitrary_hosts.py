"""Exact retraction onto arbitrary connected host subgraphs.

The treewidth solver drops the planarity and cycle-host assumptions: the
host may be any connected subgraph (a path, a tree, a cycle with chords).
A dynamic program over a nice tree decomposition decides, for each target
stretch l, whether a map of stretch l exists. Every l is decided on G's own
decomposition, built once per solve: an introduce node gives the new vertex
an image a only if host.dist(a, g[i]) <= l for the image g[i] of each of its
neighbours in the bag, so no edge is subdivided.
"""

from retract import Instance, SubgraphHost, gen_grid
from retract.treewidth import (host_stretch, optimal_retract_tw,
                               tree_decompose)

grid = gen_grid(3)
decomp = tree_decompose(grid)
print("3x3 grid decomposition width:", decomp.width)

ret, rep = optimal_retract_tw(grid)          # default host: the anchor cycle
print("3x3 grid optimum onto its cycle:", rep.max_stretch)

# C8 retracted onto a 3-edge path host 0-1-2-3
c8 = Instance(8, [(i, (i + 1) % 8) for i in range(8)], tuple(range(8)))
path_host = SubgraphHost([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
ret, rep = optimal_retract_tw(c8, path_host)
print("C8 onto a path host: stretch %d, images %s"
      % (rep.max_stretch, ret.assignment))
assert host_stretch(c8, path_host, ret).max_stretch == rep.max_stretch

# a star (tree) host always admits a finite optimum
w4 = Instance(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                  (0, 4), (1, 4), (2, 4), (3, 4)], (0, 1, 2, 3))
star = SubgraphHost([0, 1, 4], [(0, 4), (1, 4)])
_, rep = optimal_retract_tw(w4, star)
print("W4 onto a star host: stretch", rep.max_stretch)
