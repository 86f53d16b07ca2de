"""Reactive route choice over periodically refreshed shortest-path trees.

For every destination appearing in demand, the router keeps one
attractiveness weight per link. Every refresh it rebuilds the
shortest-path tree into the destination from current link costs,
encodes tree membership as a 0/1 indicator b, and blends it into the
running weights:

    B = (1 - route_weight) * B_prev + route_weight * b

The World's first blend, weight 1 into empty rows on empty links, makes
B the free-flow indicator. Searches walk the World's node index, the
only adjacency there is. Platoons at a node then sample their outgoing
link with probability B / sum(B) over the node's candidates. The
smoothing damps the volatility of instantaneous costs; route_weight = 1
reduces to pure follow-the-latest-tree routing.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from . import kinematics
from .errors import ConsistencyError, NoCandidate

_CONVEXITY_TOL = 1e-12


class AttractivenessTable:
    """Per-destination, per-link sampling weights plus routing metadata.

    B maps destination name to {link name: weight}. reach maps
    destination name to the shortest_costs result of the first,
    free-flow blend, {node: cost}, keyed by exactly the nodes with a
    path to it; it serves the fallback filter, demand checks and delay
    baselines. tree_computations counts shortest-path builds, including
    the free-flow blend.
    """

    __slots__ = ("B", "reach", "tree_computations")

    def __init__(self):
        self.B: dict[str, dict[str, float]] = {}
        self.reach: dict[str, dict[str, float]] = {}
        self.tree_computations = 0


def shortest_costs(nodes, costs: dict[str, float], z: str) -> dict[str, float]:
    """Cost of the cheapest directed path from every node into z.

    Runs a single-destination search backwards over each node's incoming
    links. Nodes with no path to z are absent from the result. nodes is
    the World node index (name -> NodeRuntime); costs maps link name to
    seconds.
    """
    dist = {z: 0.0}
    heap = [(0.0, z)]
    while heap:
        d, node = heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for link in nodes[node].incoming:
            tail = link.spec.from_node
            nd = costs[link.name] + d
            if nd < dist.get(tail, float("inf")):
                dist[tail] = nd
                heappush(heap, (nd, tail))
    return dist


def shortest_path_indicator(nodes, costs, z: str, dist) -> dict[str, int]:
    """0/1 per link: 1 iff the link starts the cheapest route from its tail to z.

    Exactly one outgoing link per reaching node other than z is marked;
    cost ties break on the lexicographically smallest link name. Links
    whose head cannot reach z stay 0, which covers every link whose tail
    cannot. dist is shortest_costs(nodes, costs, z).
    """
    b = {}
    for node in nodes.values():
        best = None
        for link in node.outgoing:
            b[link.name] = 0
            d_head = dist.get(link.spec.to_node)
            if d_head is not None:
                key = (costs[link.name] + d_head, link.name)
                if best is None or key < best:
                    best = key
        if best is not None and node.name != z:
            b[best[1]] = 1
    return b


def update_attractiveness(
    B_prev: dict[str, float], b: dict[str, int], lam: float
) -> dict[str, float]:
    """Blend the fresh tree indicator into the previous weights.

    Elementwise convex combination (1-lam)*B_prev + lam*b over the union
    of keys; each result must land between the two inputs.
    """
    out = {}
    for key in B_prev | b:
        prev = B_prev.get(key, 0.0)
        new = float(b.get(key, 0))
        value = (1.0 - lam) * prev + lam * new
        lo, hi = (prev, new) if prev <= new else (new, prev)
        if value < lo - _CONVEXITY_TOL or value > hi + _CONVEXITY_TOL:
            raise ConsistencyError(
                f"attractiveness update left [{lo}, {hi}]: {value} for {key}"
            )
        out[key] = value
    return out


def weighted_draw(weights, rng: random.Random) -> int | None:
    """Index k drawn with probability weights[k] / total, by one rng.random().

    The total is summed left to right, not by sum(), whose compensated
    summation (Python 3.12+) can move the last bits. Roundoff past the
    last boundary returns the last positive weight; a non-positive total
    returns None without drawing.
    """
    total = 0.0
    for w in weights:
        total += w
    if not total > 0.0:
        return None
    r = rng.random() * total
    acc = 0.0
    last_positive = None
    for k, w in enumerate(weights):
        if w <= 0.0:
            continue
        acc += w
        last_positive = k
        if r < acc:
            return k
    return last_positive


def choose_outgoing(platoon, node, table: AttractivenessTable, rng: random.Random):
    """Sample the platoon's next link among the node's outgoing links.

    Weights come from the platoon's destination row; when the row sums
    to zero (possible on decayed or unreachable rows) the choice falls
    back to a uniform draw over the outgoing links that can still reach
    the destination by topology alone.
    """
    candidates = node.outgoing
    if not candidates:
        raise NoCandidate(f"node {node.name} has no outgoing links")
    if len(candidates) == 1:
        return candidates[0]
    z = platoon.destination
    row = table.B.get(z)
    if row:
        k = weighted_draw([row.get(link.name, 0.0) for link in candidates], rng)
        if k is not None:
            return candidates[k]
    reach = table.reach.get(z, ())
    fallback = [link for link in candidates if link.spec.to_node in reach]
    if not fallback:
        raise NoCandidate(f"no outgoing link from {node.name} reaches {z}")
    if len(fallback) == 1:
        return fallback[0]
    return fallback[weighted_draw([1.0] * len(fallback), rng)]


def blend_trees(world, lam: float, reach: dict | None = None) -> None:
    """Blend each destination's tree under current link costs into its B row.

    An empty link costs its free-flow time. reach, when given, receives
    each destination's shortest_costs result; refreshes keep none.
    """
    table = world.attractiveness
    costs = {link.name: kinematics.instantaneous_travel_time(link) for link in world.links}
    nodes = world.nodes_by_name
    for z in table.B:
        dist = shortest_costs(nodes, costs, z)
        b = shortest_path_indicator(nodes, costs, z, dist)
        table.B[z] = update_attractiveness(table.B[z], b, lam)
        table.tree_computations += 1
        if reach is not None:
            reach[z] = dist


def maybe_refresh(world, i: int) -> AttractivenessTable:
    """Re-blend all destination trees when step i falls on the refresh cadence.

    Off-cadence steps are a no-op.
    """
    if i % world.config.route_update_interval == 0:
        blend_trees(world, world.config.route_weight)
    return world.attractiveness
