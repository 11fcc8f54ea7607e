"""Topology builders for the paper's n-tier configurations."""

from .builder import NTierSystem, build_system, three_tier_graph
from .chain import ChainSystem, build_chain, uniform_chain
from .configs import SystemConfig, server_names
from .consolidation import (
    ConsolidatedPair,
    build_consolidated_pair,
    sysbursty_mix,
)
from .graph import (
    EdgeSpec,
    GraphSystem,
    NodeSpec,
    ServiceGraph,
    ServiceSystem,
    build_graph,
    fan_out,
)

__all__ = [
    "ChainSystem",
    "ConsolidatedPair",
    "EdgeSpec",
    "GraphSystem",
    "NodeSpec",
    "ServiceGraph",
    "ServiceSystem",
    "build_chain",
    "build_graph",
    "fan_out",
    "uniform_chain",
    "NTierSystem",
    "SystemConfig",
    "build_consolidated_pair",
    "build_system",
    "server_names",
    "sysbursty_mix",
    "three_tier_graph",
]
