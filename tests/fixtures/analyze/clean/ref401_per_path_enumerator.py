"""Pair statistics from the production pipeline's own blocks."""

from repro.model import FastModel


def throughput_and_block(topo, demand, src, dst):
    model = FastModel(topo)
    return model.solve(demand).throughput, model.blocks.get(src, dst)
