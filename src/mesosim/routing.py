"""Reactive route choice over periodically refreshed shortest-path trees.

For every destination appearing in demand, the router keeps a row of
attractiveness weights indexed by LinkState.id. Every refresh one
backward search over current link costs builds the shortest-path tree
into the destination, picking each node's next link, and the tree's 0/1
indicator b is blended into the row:

    B = (1 - route_weight) * B_prev + route_weight * b

A refresh does not rewrite the row. It appends the tree, as a bitset of
link ids, to the row's history, so it costs destinations x one search.
Route choice reads a node's outgoing links together, so a row counts the
trees applied per node: catch_up, the one read path, replays a node's
pending trees on its links, in order, checks the convexity rule (each
value between its two inputs) on every value it makes, and returns the
weights. A history of 64 one-bit trees, as many bytes as the row's
weights, is applied to every node and cleared. Searches run on integer
ids from the World's node index: node ids, and in_arcs of (link id, tail
node id) pairs. The World's free-flow pass writes 1.0 on each free-flow
tree link, so B starts as the free-flow indicator. Platoons at a node
then sample their outgoing link with probability B / sum(B) over the
node's candidates. That sum is positive wherever a platoon chooses: its
node reaches the destination, so the latest tree gave one of its links
at least route_weight (with route_weight 0 the row stays the free-flow
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
    """One destination's weights, blended on read: values[j] is link id j's
    weight after the first applied[k] trees, k being its tail node's id (at
    most _MAX_PENDING, so a byte), and trees[r] has bit j set when refresh
    r's tree holds link id j.
    """

    __slots__ = ("values", "applied", "trees")

    def __init__(self, n_links: int, n_nodes: int):
        self.values = array("d", [0.0]) * n_links
        self.applied = array("B", [0]) * n_nodes
        self.trees: list[int] = []


class AttractivenessTable:
    """Per-destination, per-link sampling weights: the route-choice state.

    B maps each destination, in order of first appearance in destinations,
    to its AttractivenessRow over the links leaving nodes (NodeRuntimes by
    id), zero until the World's free-flow pass. Trees blend with weight lam;
    tree_computations counts shortest-path builds, free-flow ones included.
    """

    __slots__ = ("B", "nodes", "lam", "tree_computations")

    def __init__(self, destinations, nodes, lam: float):
        self.nodes = nodes
        self.lam = lam
        n_links = sum(len(node.outgoing) for node in nodes)
        self.B = {z: AttractivenessRow(n_links, len(nodes)) for z in dict.fromkeys(destinations)}
        self.tree_computations = 0

    def record(self, z: str, chosen) -> None:
        """Queue a refresh of destination z's row blending the tree of link ids chosen.

        A history of _MAX_PENDING trees is first applied to every link and
        cleared, so it never outgrows the row.
        """
        row = self.B[z]
        if len(row.trees) == _MAX_PENDING:
            self.row(z)
            row.trees.clear()
            row.applied = array("B", [0]) * len(self.nodes)
        # a tree's link ids are distinct, so their powers of two sum to its bitset
        row.trees.append(sum(map((1).__lshift__, chosen)))

    def row(self, z: str) -> list[float]:
        """Destination z's weights by link id, every refresh applied."""
        for node in self.nodes:
            self.catch_up(self.B[z], node)
        return self.B[z].values.tolist()

    def catch_up(self, row: AttractivenessRow, node) -> list[float]:
        """The weights of node's outgoing links, in order, every refresh applied.

        Each pending tree, in order, scales a value by keep = 1 - lam and adds
        lam on the tree: bitwise keep * old + lam * b for lam and values in
        [0, 1], where rows start and stay. Each result must lie in [old, 1.0]
        on the tree and in [0.0, old] off it, within _CONVEXITY_TOL. The
        values and the node's applied count are stored.
        """
        values = row.values
        trees = row.trees
        start = row.applied[node.id]
        if start < len(trees):
            pending = trees[start:]
            lam = self.lam
            keep = 1.0 - lam
            for link in node.outgoing:
                j = link.id
                bit = 1 << j
                value = values[j]
                for tree in pending:
                    old = value
                    if tree & bit:
                        value = keep * old + lam
                        lo, hi = old, 1.0
                    else:
                        value = keep * old
                        lo, hi = 0.0, old
                    if value < lo - _CONVEXITY_TOL or value > hi + _CONVEXITY_TOL:
                        raise ConsistencyError(
                            f"attractiveness update left [{lo}, {hi}]: {value} for link id {j}"
                        )
                values[j] = value
            row.applied[node.id] = len(trees)
        return [values[link.id] for link in node.outgoing]


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

    Weights come from the platoon's destination row, caught up for the
    node. A single candidate is taken without a draw.
    """
    candidates = node.outgoing
    if len(candidates) == 1:
        return candidates[0]
    weights = table.catch_up(table.B[platoon.destination], node)
    return candidates[weighted_draw(weights, rng)]


def build_trees(world):
    """Yield (z, dist, next link ids) from shortest_tree for each destination z,
    in row order, under current link costs (an empty link costs its free-flow
    time). Every build counts in tree_computations."""
    table = world.attractiveness
    costs = [kinematics.instantaneous_travel_time(link) for link in world.links]
    names = [link.name for link in world.links]
    arcs = [node.in_arcs for node in table.nodes]
    for z in table.B:
        dist, chosen = shortest_tree(arcs, costs, names, world.nodes_by_name[z].id)
        table.tree_computations += 1
        yield z, dist, chosen


def maybe_refresh(world, i: int) -> AttractivenessTable:
    """Record every destination's tree when step i falls on the refresh cadence.

    Off-cadence steps are a no-op.
    """
    if i % world.config.route_update_interval == 0:
        for z, _dist, chosen in build_trees(world):
            world.attractiveness.record(z, chosen)
    return world.attractiveness
