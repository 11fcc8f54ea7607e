"""Arbitrary-depth tier chains: the "n" in n-tier.

The paper demonstrates CTQO on the classic 3-tier stack, but its
mechanism — blocking RPC propagating queue growth hop by hop — applies
to invocation chains of any depth, and gets *worse* with depth: every
extra synchronous hop adds a thread pool that must drain before the
tiers above it can move.  This module builds linear chains of any
length from :class:`~repro.topology.graph.NodeSpec` tiers, each
carrying its server shape as a
:class:`~repro.servers.policies.TierPolicy` — ``TierPolicy.sync`` for
a thread-pool tier, ``TierPolicy.asynchronous`` for an event loop with
a lightweight queue, or any other composition, remediation included —
with the same substrates as the 3-tier builder.

A chain is the path-graph preset of the service-graph core:
:func:`build_chain` joins its tiers into a linear
:class:`~repro.topology.graph.ServiceGraph` and delegates to
:func:`~repro.topology.graph.build_graph`, which replays the historical
chain construction order — existing seeds build byte-identical systems.

``experiments.deep_chain`` uses it to show multi-hop upstream CTQO: a
millibottleneck in tier 5 of a 5-tier synchronous chain drops packets
at tier 1, while the same chain built async end-to-end absorbs it.
"""

from __future__ import annotations

from .graph import EdgeSpec, GraphSystem, NodeSpec, ServiceGraph, build_graph

__all__ = ["ChainSystem", "build_chain", "uniform_chain"]


def uniform_chain(depth, **overrides):
    """``depth`` identical :class:`~repro.topology.graph.NodeSpec` tiers
    named tier1..tierN.

    Keyword overrides apply to every tier (e.g.
    ``policy=TierPolicy.sync(threads=50)`` or ``backlog=64``).
    """
    if depth < 2:
        raise ValueError(f"a chain needs at least 2 tiers, got {depth}")
    return [NodeSpec(name=f"tier{i + 1}", **overrides) for i in range(depth)]


class ChainSystem(GraphSystem):
    """A built linear chain, with the same surface as NTierSystem."""

    request_kind = "ChainRequest"
    clients_rng_label = "chain-clients"

    @property
    def depth(self):
        return len(self.graph.nodes)

    def __repr__(self):
        kinds = "".join(
            "S" if node.policy.concurrency.kind == "threads" else "A"
            for node in self.graph.nodes
        )
        return f"<ChainSystem depth={self.depth} [{kinds}]>"


def build_chain(nodes, sim=None, seed=42, net_latency=0.0002, rto=3.0,
                max_retransmits=3, streaming=False, pools=None):
    """Build a linear chain from its tiers, front tier first.

    ``pools`` maps a tier name to the size of the caller-side connection
    pool on that tier's calls to the next tier (no entry: unpooled).
    ``streaming=True`` builds the chain's request log in streaming
    mode (O(1) aggregates, exact tail records only — docs/SCALE.md).
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("a chain needs at least 2 tiers")
    names = [node.name for node in nodes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tier names in {names}")
    pools = dict(pools or {})
    unknown = sorted(set(pools) - set(names[:-1]))
    if unknown:
        raise ValueError(
            f"pools keys name no tier with a next tier: {unknown}"
        )
    edges = [
        EdgeSpec(caller.name, callee.name, pool=pools.get(caller.name))
        for caller, callee in zip(nodes, nodes[1:])
    ]
    return build_graph(
        ServiceGraph(nodes, edges), sim=sim, seed=seed,
        net_latency=net_latency, rto=rto, max_retransmits=max_retransmits,
        streaming=streaming, rng_label="chain-app",
        system_factory=lambda sim, graph, fabric: ChainSystem(
            sim, graph, fabric, streaming=streaming
        ),
    )
