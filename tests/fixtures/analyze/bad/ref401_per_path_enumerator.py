"""A production module building pair statistics path by path again."""

from repro.model.fastpath import PairBlock
from repro.model.pathstats import compute_pair_stats  # REF401


def pair_block(topo, chidx, src, dst, legs):
    return PairBlock.from_stats(compute_pair_stats(topo, chidx, src, dst), legs)
