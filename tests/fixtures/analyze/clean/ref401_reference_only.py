"""The production entry points; one audited reference use."""

from repro.model import FastModel
from repro.sim import build_network
from repro.sim.network import Network  # the type, for annotations


def saturation(topo, demand, params) -> "Network":
    FastModel(topo).solve(demand)
    return build_network(topo, params, "ugal-l")


def parity_delta(topo, demand) -> float:
    # repro: allow[REF401]: the parity probe compares against it
    from repro.model.lp_model import model_throughput

    return (
        FastModel(topo).solve(demand).throughput
        - model_throughput(topo, demand).throughput
    )
