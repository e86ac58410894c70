"""Frozen expected values used across the test suite.

Each value is either asserted directly from first principles (counting /
definition), derived by hand enumeration recorded here, or cross-checked by
the independent brute-force oracle at test time. Solver implementations are
tested against these constants, never the other way around.
"""

from fractions import Fraction

# --- cycle metric (by definition) ---
CYCLE_DIST_CASES = [
    (8, 0, 5, 3),   # min(5, 3)
    (6, 2, 2, 0),   # identity
    (4, 1, 3, 2),   # min(2, 2)
]

# --- generator counts (counting) ---
GRID_COUNTS = {3: (9, 8, 12), 4: (16, 12, 24), 5: (25, 16, 40)}
# column-deleted grid: interior vertical edges removed -> m(m-1) + 2(m-1) edges
COLGRID_EDGE_COUNTS = {3: 10, 4: 18, 5: 28, 8: 70}

# --- optima (hand enumeration / the oracle re-derives these at test time) ---
# 3x3 grid: single interior vertex adjacent to boundary mids 1,3,5,7 (k=8);
# any corner image c gives max d_H(c, {1,3,5,7}) = 3, any mid image gives 4.
GRID3_OPTIMAL = 3
# 4x4 grid: interior vertices to their nearest corners gives stretch 3 (all
# interior-interior edges land on corner pairs at d_H = 3, boundary edges 1);
# stretch 2 is impossible (the Sperner bound gives >= ceil(2*4/3) = 3).
GRID4_OPTIMAL = 3
# W4: hub adjacent to all four anchors of C4; every anchor image is at d_H
# exactly 2 from the opposite anchor.
W4_OPTIMAL = 2
# column-deleted grids retract with stretch 2 (walk each row to the boundary
# columns); 1 is impossible since the distance lower bound is 2.
COLGRID_OPTIMAL = 2

# --- distance lower bound ---
# exact ratio: extremal pair is a vertical boundary-mid pair, ratio
# min(2c+m-1, 3(m-1)-2c)/(m-1) maximized over columns c; equals 2 only for
# odd m. The integer stretch bound (ceiling) is 2 for all of these.
GRID_DISTANCE_LB_EXACT = {3: Fraction(2), 4: Fraction(5, 3),
                          5: Fraction(2), 8: Fraction(13, 7)}
GRID_DISTANCE_LB_INT = 2

# --- LP expectations (hand Gaussian elimination on W4's four triangles) ---
W4_LP4_FEASIBLE = False
W4_LP3_FEASIBLE = True
# l0 = 4 and ceil(4/s) >= 4 only for s = 1, so stretch 1 is impossible.
W4_LP_LOWER_BOUND = 2
# grid5: unit-square 4-cycles are constrained at l=5 and force 0 = k by the
# face-sum argument, so l0 = 5; every s with ceil(16/s) >= 5 (s <= 3) is
# impossible and the bound is 3 + 1.
GRID5_LP_LOWER_BOUND = 4

# --- subdivision counts ---
# W4, l=2: 9 vertices, 12 edges; 3x3 grid, l=3: 17 vertices.
W4_SUBDIV2 = (9, 12)
GRID3_SUBDIV3_VERTICES = 17

# --- surrounding cycles ---
GRID4_CENTER_FACE_MIN_CYCLE = 4   # its own boundary
CK_INNER_FACE_MIN_CYCLE = "k"     # only one cycle exists

# --- LP threshold on the planar ladder (grids, column-deleted grids, and
# gen_random_planar(nf, k, 100k + nf)): (bound, l0) as computed by the
# binary search of cutting-plane loops that the span threshold replaced.
# grid:6, colgrid:7 and colgrid:8 are the three of 54 to 70 edges.
LADDER_LP = {
    "grid:3": (2, 5), "grid:4": (3, 5), "grid:5": (4, 5), "grid:6": (5, 5),
    "colgrid:5": (2, 11), "colgrid:6": (2, 13), "colgrid:7": (2, 15),
    "colgrid:8": (2, 17),
    "rp:6,4": (2, 4), "rp:6,8": (2, 5), "rp:8,4": (2, 5), "rp:8,8": (3, 4),
    "rp:10,4": (3, 5), "rp:10,8": (4, 4), "rp:12,4": (2, 8), "rp:12,8": (3, 5),
    "rp:14,4": (3, 6), "rp:14,8": (3, 6), "rp:16,4": (4, 5), "rp:16,8": (4, 5),
    "rp:20,4": (5, 5), "rp:20,8": (3, 9),
}

# --- `retract lb --method lp` stdout, byte for byte, as the all-Fraction
# elimination over tree-path candidates printed it; each coef is
# [numerator, denominator].
LB_LP_W4_STDOUT = (
    '{"bound": 2, "certificate": [{"coef": [1, 1], "cycle": [0, 1, 4]}, '
    '{"coef": [-1, 1], "cycle": [0, 3, 4]}, '
    '{"coef": [1, 1], "cycle": [1, 2, 4]}, '
    '{"coef": [1, 1], "cycle": [2, 3, 4]}], "l": 4, "method": "lp"}\n')
# grid 5's certificate is its 16 unit squares, each with coefficient -1.
LB_LP_GRID5_STDOUT = (
    '{"bound": 4, "certificate": ['
    '{"coef": [-1, 1], "cycle": [0, 5, 6, 1]}, '
    '{"coef": [-1, 1], "cycle": [1, 6, 7, 2]}, '
    '{"coef": [-1, 1], "cycle": [2, 7, 8, 3]}, '
    '{"coef": [-1, 1], "cycle": [3, 8, 9, 4]}, '
    '{"coef": [-1, 1], "cycle": [5, 10, 11, 6]}, '
    '{"coef": [-1, 1], "cycle": [6, 11, 12, 7]}, '
    '{"coef": [-1, 1], "cycle": [7, 12, 13, 8]}, '
    '{"coef": [-1, 1], "cycle": [8, 13, 14, 9]}, '
    '{"coef": [-1, 1], "cycle": [10, 15, 16, 11]}, '
    '{"coef": [-1, 1], "cycle": [11, 16, 17, 12]}, '
    '{"coef": [-1, 1], "cycle": [12, 17, 18, 13]}, '
    '{"coef": [-1, 1], "cycle": [13, 18, 19, 14]}, '
    '{"coef": [-1, 1], "cycle": [15, 20, 21, 16]}, '
    '{"coef": [-1, 1], "cycle": [16, 21, 22, 17]}, '
    '{"coef": [-1, 1], "cycle": [17, 22, 23, 18]}, '
    '{"coef": [-1, 1], "cycle": [18, 23, 24, 19]}'
    '], "l": 5, "method": "lp"}\n')
