"""Reactive route choice over periodically refreshed shortest-path trees.

For every destination appearing in demand, the router keeps a row of
attractiveness weights indexed by LinkState.id. Every refresh one
backward search over current link costs builds the shortest-path tree
into the destination, picking each node's next link, and the tree's 0/1
indicator b is blended into the row:

    B = (1 - route_weight) * B_prev + route_weight * b

so a refresh costs destinations x (one search plus one blend over the
links). A blend scales the row in one pass and writes the tree's links;
a strict test, with no tolerance off the tree, implies the convexity
rule (each value between its two inputs), which is checked per element
only when that test fails. Searches run on integer ids from the World's
node index, the only adjacency there is: node ids, and in_arcs of (link
id, tail node id) pairs. The World's first blend, weight 1 into zero
rows on empty links, makes B the free-flow indicator; its costs are kept
as reach. Platoons at a node then sample their outgoing link with
probability B / sum(B) over the node's candidates. That sum is positive
wherever a platoon chooses: its node reaches the destination, so the
latest tree gave one of its links at least route_weight (with
route_weight 0 the row stays the free-flow indicator). The smoothing
damps the volatility of instantaneous costs; route_weight = 1 follows
the latest tree alone.
"""

from __future__ import annotations

import random
from collections import deque
from operator import le

from . import kinematics
from .errors import ConsistencyError
from .scenario import left_sum

_CONVEXITY_TOL = 1e-12


class AttractivenessTable:
    """Per-destination, per-link sampling weights plus routing metadata.

    B maps destination name to a list of weights indexed by LinkState.id.
    reach maps destination name to the cost of the first, free-flow tree,
    {node: cost}, keyed by exactly the nodes with a path to it; it serves
    demand checks and delay baselines.
    tree_computations counts shortest-path builds, including the
    free-flow blend.
    """

    __slots__ = ("B", "reach", "tree_computations")

    def __init__(self):
        self.B: dict[str, list[float]] = {}
        self.reach: dict[str, dict[str, float]] = {}
        self.tree_computations = 0


def shortest_tree(arcs, costs: list[float], names: list[str], z: int) -> tuple[list, list[int]]:
    """Cheapest route into node id z from every node id: (dist, next link ids).

    arcs[k] is node k's in_arcs; costs (seconds) and names are indexed by
    link id. dist[k] is node k's cost, None when no path leads to z (a
    path of infinite cost still reaches). Each reaching node but z gets
    one next link, the first of its cheapest route, cost ties going to the
    smallest name. Nodes whose cost fell wait in a FIFO queue to pass it
    on, not in a heap: each link is scanned about once on a lattice, 1.08
    times on Sioux Falls and at most len(arcs) times. The result is the
    one fixed point dist[tail] = min(cost + dist[head]) in any scan order.
    """
    dist = [None] * len(arcs)
    next_link = [None] * len(arcs)
    queued = [False] * len(arcs)
    dist[z] = 0.0
    queue = deque([z])
    while queue:
        node = queue.popleft()
        queued[node] = False
        d = dist[node]
        for link_id, tail in arcs[node]:
            nd = costs[link_id] + d
            best = dist[tail]
            if best is None or nd < best:
                dist[tail] = nd
                next_link[tail] = link_id
                if not queued[tail]:
                    queued[tail] = True
                    queue.append(tail)
            elif nd == best and tail != z and names[link_id] < names[next_link[tail]]:
                next_link[tail] = link_id
    return dist, [link_id for link_id in next_link if link_id is not None]


def blend_row(prev: list[float], chosen: list[int], lam: float) -> list[float]:
    """Blend a tree's indicator into a row: (1-lam)*prev + lam*b elementwise.

    b is 1.0 at the link ids in chosen and 0.0 elsewhere. The row is
    scaled by 1 - lam and each chosen id set to keep * old + lam, bitwise
    the two-term sum for lam and rows in [0, 1]. Each result must land
    between its two inputs: a strict test implies that, and only when it
    fails is each element checked, within _CONVEXITY_TOL.
    """
    keep = 1.0 - lam
    out = [keep * old for old in prev]
    fits = min(out, default=0.0) >= 0.0 and all(map(le, out, prev))
    for link_id in chosen:
        old = prev[link_id]
        out[link_id] = value = keep * old + lam
        fits = fits and old - _CONVEXITY_TOL <= value <= 1.0 + _CONVEXITY_TOL
    if not fits:
        b = [0.0] * len(prev)
        for link_id in chosen:
            b[link_id] = 1.0
        for link_id, (old, new, value) in enumerate(zip(prev, b, out)):
            lo, hi = (old, new) if old <= new else (new, old)
            if value < lo - _CONVEXITY_TOL or value > hi + _CONVEXITY_TOL:
                raise ConsistencyError(
                    f"attractiveness update left [{lo}, {hi}]: {value} for link id {link_id}"
                )
    return out


def weighted_draw(weights, rng: random.Random) -> int:
    """Index k drawn with probability weights[k] / total, by one rng.random().

    The total is a left_sum. Roundoff past the last boundary returns the
    last positive weight. A non-positive total raises ConsistencyError
    without drawing: merge priorities are validated positive and every
    row a platoon reads has a positive sum.
    """
    total = left_sum(weights)
    if not total > 0.0:
        raise ConsistencyError(f"weighted draw over non-positive total {total}")
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

    Weights come from the platoon's destination row. A single candidate
    is taken without a draw.
    """
    candidates = node.outgoing
    if len(candidates) == 1:
        return candidates[0]
    row = table.B[platoon.destination]
    return candidates[weighted_draw([row[link.id] for link in candidates], rng)]


def blend_trees(world, lam: float) -> dict:
    """Blend each destination's tree under current link costs into its B row.

    An empty link costs its free-flow time. Returns each destination's
    dist list, indexed by node id.
    """
    table = world.attractiveness
    costs = [kinematics.instantaneous_travel_time(link) for link in world.links]
    names = [link.name for link in world.links]
    nodes = world.nodes_by_name
    arcs = [node.in_arcs for node in nodes.values()]
    dists = {}
    for z, row in table.B.items():
        dists[z], chosen = shortest_tree(arcs, costs, names, nodes[z].id)
        table.B[z] = blend_row(row, chosen, lam)
        table.tree_computations += 1
    return dists


def maybe_refresh(world, i: int) -> AttractivenessTable:
    """Re-blend all destination trees when step i falls on the refresh cadence.

    Off-cadence steps are a no-op.
    """
    if i % world.config.route_update_interval == 0:
        blend_trees(world, world.config.route_weight)
    return world.attractiveness
