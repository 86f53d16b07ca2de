"""Reactive route choice over periodically refreshed shortest-path trees.

For every destination appearing in demand, the router keeps a row of
attractiveness weights indexed by LinkState.id. Every refresh one
backward search over current link costs builds the shortest-path tree
into the destination, picking each node's next link, and the tree's 0/1
indicator b is blended into the row:

    B = (1 - route_weight) * B_prev + route_weight * b

A refresh does not rewrite the row. It appends the tree, as a bitset of
link ids, and its weight to the row's history, so it costs destinations
x one search. The blend is paid per element read: catch_up replays an
element's pending refreshes, in order, when route choice or the row
accessor reads it, and checks the convexity rule (each value between its
two inputs) on every value it makes. Once the history would hold as many
bytes as the row's weights, 64 one-bit trees, the row is caught up in
full and the history cleared. Searches run on integer ids from the
World's node index, the only adjacency there is: node ids, and in_arcs
of (link id, tail node id) pairs. The World's first blend, weight 1 into
zero rows on empty links, makes B the free-flow indicator; the World
keeps its costs per demand pair. Platoons at a node then sample their
outgoing link with probability B / sum(B) over the node's candidates.
That sum is positive wherever a platoon chooses: its node reaches the
destination, so the latest tree gave one of its links at least
route_weight (with route_weight 0 the row stays the free-flow
indicator). The smoothing damps the volatility of instantaneous costs;
route_weight = 1 follows the latest tree alone.
"""

from __future__ import annotations

import random
from array import array
from collections import deque

from . import kinematics
from .errors import ConsistencyError
from .scenario import left_sum

_CONVEXITY_TOL = 1e-12
# a row holds 8 * itemsize bits per link and a tree one, so this many
# trees take as many bytes as the row's weights
_MAX_PENDING = 8 * array("d").itemsize


class AttractivenessRow:
    """One destination's weights, blended on read.

    values[j] is link id j's weight after the first applied[j] refreshes of
    the history (at most _MAX_PENDING, so a byte); refresh k blends trees[k],
    a bitset with bit j set for each link id j on the tree, with weight lams[k].
    """

    __slots__ = ("values", "applied", "trees", "lams")

    def __init__(self, values):
        self.values = array("d", values)
        self.applied = array("B", bytes(len(self.values)))
        self.trees: list[int] = []
        self.lams: list[float] = []

    def record(self, chosen: list[int], lam: float) -> None:
        """Queue a refresh blending the tree of link ids chosen with weight lam.

        A history of _MAX_PENDING trees is first applied to every element
        and cleared, so it never outgrows the row.
        """
        if len(self.trees) == _MAX_PENDING:
            for j in range(len(self.values)):
                catch_up(self, j)
            self.trees.clear()
            self.lams.clear()
            self.applied = array("B", bytes(len(self.values)))
        # a tree's link ids are distinct, so their powers of two sum to its bitset
        self.trees.append(sum(map((1).__lshift__, chosen)))
        self.lams.append(lam)


class AttractivenessTable:
    """Per-destination, per-link sampling weights: the route-choice state.

    B maps each destination, in order of first appearance in destinations,
    to its AttractivenessRow over n_links link ids, zero until the World's
    free-flow blend; row(z) is the one whole-row read. tree_computations
    counts shortest-path builds, including the free-flow blend.
    """

    __slots__ = ("B", "tree_computations")

    def __init__(self, destinations, n_links: int):
        zero = array("d", [0.0]) * n_links
        self.B = {z: AttractivenessRow(zero) for z in dict.fromkeys(destinations)}
        self.tree_computations = 0

    def row(self, z: str) -> list[float]:
        """Destination z's weights by link id, every refresh applied."""
        row = self.B[z]
        return [catch_up(row, j) for j in range(len(row.values))]


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


def catch_up(row: AttractivenessRow, j: int) -> float:
    """Link id j's weight with its pending refreshes applied, in order.

    Each refresh scales the value by keep = 1 - lam and adds lam on its
    tree: bitwise the two-term blend keep * old + lam * b for lam and
    values in [0, 1]. Each result must land between its two inputs,
    within _CONVEXITY_TOL. The value and its applied count are stored.
    """
    value = row.values[j]
    trees = row.trees
    done = len(trees)
    if row.applied[j] < done:
        bit = 1 << j
        lams = row.lams
        for k in range(row.applied[j], done):
            old = value
            lam = lams[k]
            if trees[k] & bit:
                value = (1.0 - lam) * old + lam
                lo, hi = (old, 1.0) if old <= 1.0 else (1.0, old)
            else:
                value = (1.0 - lam) * old
                lo, hi = (old, 0.0) if old <= 0.0 else (0.0, old)
            if value < lo - _CONVEXITY_TOL or value > hi + _CONVEXITY_TOL:
                raise ConsistencyError(
                    f"attractiveness update left [{lo}, {hi}]: {value} for link id {j}"
                )
        row.values[j] = value
        row.applied[j] = done
    return value


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

    Weights come from the platoon's destination row; an element behind
    the row's history is caught up first. A single candidate is taken
    without a draw.
    """
    candidates = node.outgoing
    if len(candidates) == 1:
        return candidates[0]
    row = table.B[platoon.destination]
    values, applied, done = row.values, row.applied, len(row.trees)
    weights = [
        values[link.id] if applied[link.id] == done else catch_up(row, link.id)
        for link in candidates
    ]
    return candidates[weighted_draw(weights, rng)]


def blend_trees(world, lam: float) -> dict:
    """Record each destination's tree under current link costs in its B row.

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
        row.record(chosen, lam)
        table.tree_computations += 1
    return dists


def maybe_refresh(world, i: int) -> AttractivenessTable:
    """Record every destination's tree when step i falls on the refresh cadence.

    Off-cadence steps are a no-op.
    """
    if i % world.config.route_update_interval == 0:
        blend_trees(world, world.config.route_weight)
    return world.attractiveness
