import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from retract import planar
from retract.core import Instance


def make_w4():
    """C4 plus a hub adjacent to all 4 anchors."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    return Instance(5, edges, (0, 1, 2, 3))


def make_ck(k):
    """G = H = C_k."""
    return Instance(k, [(i, (i + 1) % k) for i in range(k)], tuple(range(k)))


def part_embeddings(inst):
    """(part, embedding) for each part plane_embed splits the 2-connected
    reduction of inst into; the reduction itself when it does not split."""
    reduced, _ = planar.reduce_two_connected(inst)
    emb = planar.plane_embed(reduced)
    if isinstance(emb, planar.PlaneEmbedding):
        return [(reduced, emb)]
    return [(sub, planar.plane_embed(sub)) for sub, _ in emb]
