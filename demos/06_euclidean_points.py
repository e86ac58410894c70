"""Euclidean point sets: snapping interior points onto anchor circles.

Given points in the plane whose anchors lie evenly spaced on a circle, the
pipeline builds a Delaunay-style spanner, contracts tiny edges, gives each
edge an integer length that mimics its Euclidean length, routes a host cycle
through the anchors by shortest paths on those lengths, solves the weighted
graph problem exactly, and snaps every point to the anchor nearest its
image. All geometry is exact: coordinates are dyadic rationals and every
comparison is made on squared distances.
"""

from retract.euclid import delaunay_spanner, euclid_retract, gen_random_points
from retract.oracle import brute_force_min_ratio

ps = gen_random_points(4, 12, seed=42)
print("point set: %d anchors on a circle + 4 interior points"
      % len(ps.anchor_indices))

g = delaunay_spanner(ps)
print("spanner: %d edges (squared lengths, exact rationals)"
      % len(g.sq_weights))

res = euclid_retract(ps)
moved = [i for i, ptidx in enumerate(res.assignment) if ptidx != i]
print("retraction moves points %s onto anchors %s"
      % (moved, [res.assignment[i] for i in moved]))
print("achieved max distance ratio: %.3f (ratio_sq = %s)"
      % (res.ratio, res.ratio_sq))

_, opt_sq = brute_force_min_ratio(ps)
print("brute-force optimum ratio: %.3f  (pipeline factor %.2f)"
      % (float(opt_sq) ** 0.5, (float(res.ratio_sq / opt_sq)) ** 0.5))
