"""A production module growing a second pipeline back."""

from repro.model.lp_model import model_throughput  # REF401
from repro.sim.network import Network


def saturation(topo, demand, params):
    network = Network(topo, params, 4)  # REF401: the wheel engine, directly
    return model_throughput(topo, demand), network
