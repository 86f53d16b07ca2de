"""Shared scenario builders and fixture paths for the test suite."""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import os
import random
from collections import defaultdict

import pytest
from hypothesis import strategies as st

from mesosim import (
    ConsistencyError,
    DemandSpec,
    LinkSpec,
    NodeSpec,
    SignalPlan,
    SimConfig,
    build_world,
    parse_demand,
    parse_links,
    parse_nodes,
    run,
)
from mesosim.engine import index_nodes
from mesosim.node_transfer import signal_permits
from mesosim.routing import shortest_tree

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
PERFBENCH_GRID = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "grid.py")

# verdict lines registered by the acceptance tests, echoed after the run
ACCEPTANCE_RESULTS: dict[int, str] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(ACCEPTANCE_RESULTS[n])

UROBOROS_DURATION = 5000.0
UROBOROS_RING = ("WN", "NE", "ES", "SW")
PARALLEL_DURATION = 8000.0
SIOUX_DURATION = 7200.0


def demo_path(*parts: str) -> str:
    return os.path.join(DEMOS, *parts)


def read_demo(*parts: str) -> str:
    with open(demo_path(*parts), "r", encoding="utf-8") as f:
        return f.read()


def make_world(nodes_text: str, links_text: str, demand_text: str, **config):
    return build_world(
        SimConfig(**config),
        parse_nodes(nodes_text),
        parse_links(links_text),
        parse_demand(demand_text),
    )


def link_capacity(u: float, tau: float, delta: float) -> float:
    """Saturation flow u / (u*tau + delta) in vehicles per second.

    This is where the free-flow branch (slope u) and the congested branch
    (slope -delta/tau) of the triangular flow-density relation intersect.
    """
    return u / (u * tau + delta)


def random_digraph(n: int, rng, n_arcs: int, spanning_cycle: bool = True) -> list[LinkSpec]:
    """Links e0, e1, ... of a random simple digraph on nodes n0..n{n-1}.

    With spanning_cycle the arcs include n0 -> n1 -> ... -> n0, so every
    node reaches every other; random arcs are then added up to n_arcs.
    Lengths come in 25 m grains at 20 m/s, which keeps every free-flow
    cost sum exact in floats.
    """
    arcs = {(i, (i + 1) % n) for i in range(n)} if spanning_cycle else set()
    while len(arcs) < n_arcs:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            arcs.add((a, b))
    return [
        LinkSpec(name=f"e{k}", from_node=f"n{a}", to_node=f"n{b}",
                 length=25.0 * rng.randint(4, 40), free_flow_speed=20.0, jam_density=0.2)
        for k, (a, b) in enumerate(sorted(arcs))
    ]


def reaching(links: list[LinkSpec], z: str) -> set[str]:
    """Nodes with a directed path to z, by fixed-point iteration over arcs."""
    found = {z}
    grew = True
    while grew:
        grew = False
        for link in links:
            if link.to_node in found and link.from_node not in found:
                found.add(link.from_node)
                grew = True
    return found


@st.composite
def random_worlds(draw):
    """A built World of 300 s on a random digraph of 2-6 nodes and at least n arcs.

    The links share one free-flow speed (13.3 m/s makes u * dt inexact) and
    each has a merge priority. A node entered by two or more links may get
    a two-phase signal over its sorted incoming links. A demand band whose
    origin cannot reach its destination is left out, so every draw builds.
    """
    n = draw(st.integers(2, 6))
    n_arcs = min(n * (n - 1), n + draw(st.integers(0, 8)))
    speed = draw(st.sampled_from([20.0, 13.3]))
    links = [
        dataclasses.replace(link, free_flow_speed=speed,
                            merge_priority=draw(st.sampled_from([0.5, 2.0])))
        for link in random_digraph(n, random.Random(draw(st.integers(0, 2**32 - 1))), n_arcs,
                                   spanning_cycle=draw(st.booleans()))
    ]
    incoming = defaultdict(list)
    for link in links:
        incoming[link.to_node].append(link.name)
    greens = st.sampled_from([20.0, 45.0])
    nodes = []
    for k in range(n):
        names = sorted(incoming[f"n{k}"])
        signal = None
        if len(names) > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, len(names) - 1))
            signal = SignalPlan(((draw(greens), frozenset(names[:cut])),
                                 (draw(greens), frozenset(names[cut:]))),
                                draw(st.sampled_from([0.0, 7.0])))
        nodes.append(NodeSpec(f"n{k}", float(k), 0.0, signal))
    scale = draw(st.sampled_from([1.0, 0.2, 4.0]))
    demands = []
    for _ in range(draw(st.integers(1, 4))):
        o = draw(st.integers(0, n - 1))
        origin, destination = f"n{o}", f"n{(o + draw(st.integers(1, n - 1))) % n}"
        start = draw(st.sampled_from([0.0, 30.0, 100.0]))
        end = start + draw(st.sampled_from([20.0, 150.0, 200.0]))
        # Hypothesis leans to a list's first entries, so the zero flow comes last
        flow = draw(st.sampled_from([0.3, 1.0, 0.05, 0.0])) * scale
        if origin in reaching(links, destination):
            demands.append(DemandSpec(origin, destination, start, end, flow))
    config = SimConfig(
        seed=draw(st.integers(0, 1000)), duration=300.0,
        reaction_time=draw(st.sampled_from([1.0, 0.7])),
        platoon_size=draw(st.sampled_from([1, 5])),
        route_update_interval=draw(st.sampled_from([1, 7, 60])),
        route_weight=draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0])),
    )
    return build_world(config, nodes, links, demands)


def reference_dist(nodes, costs, z):
    """Each reaching node's cost to z, by fixed-point iteration over every link."""
    dist = {z: 0.0}
    grew = True
    while grew:
        grew = False
        for node in nodes.values():
            for link in node.outgoing:
                head = dist.get(link.spec.to_node)
                if head is not None:
                    nd = costs[link.id] + head
                    best = dist.get(node.name)
                    if best is None or nd < best:
                        dist[node.name] = nd
                        grew = True
    return dist


def lattice_csvs(seed: int, size: int, destinations: int, bands: int) -> tuple[str, str, str]:
    """The nodes, links and demand CSV texts of perfbench/grid.py's lattice
    at size x size nodes, with its vehicles scaled by the node count."""
    spec = importlib.util.spec_from_file_location("lattice", PERFBENCH_GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)  # a fresh module, so the constants set below stay local
    grid.VEHICLES = grid.VEHICLES * size**2 // grid.SIZE**2
    grid.SIZE = size
    grid.DESTINATIONS = destinations
    grid.BANDS = bands
    return grid.grid_csvs(seed)


def node_index(links, *nodes: NodeSpec):
    """The engine's network index over hand-built link states.

    The given nodes come first; every other link endpoint becomes a plain
    node, in order of first mention.
    """
    specs = {node.name: node for node in nodes}
    for link in links:
        for name in (link.spec.from_node, link.spec.to_node):
            specs.setdefault(name, NodeSpec(name=name, x=0.0, y=0.0))
    return index_nodes(list(specs.values()), links)


def tree_by_name(nodes, costs, z: str):
    """shortest_tree over a node index, read back by name: (dist, next_link).

    dist maps each node with a path to z to its cost; next_link maps each
    such node but z to the LinkState that starts its cheapest route.
    """
    links = sorted((link for node in nodes.values() for link in node.outgoing),
                   key=lambda link: link.id)
    assert [link.id for link in links] == list(range(len(costs)))
    dist, chosen = shortest_tree([node.in_arcs for node in nodes.values()], costs,
                                 [link.name for link in links], nodes[z].id)
    assert len(dist) == len(nodes)
    next_link = {links[k].spec.from_node: links[k] for k in chosen}
    assert len(next_link) == len(chosen), "two next links leave one node"
    names = list(nodes)
    return {names[k]: cost for k, cost in enumerate(dist) if cost is not None}, next_link


def reference_blend_row(prev: list[float], chosen, lam: float) -> list[float]:
    """The blend as two lists: b, 1.0 at each chosen link id, then each
    value keep * old + lam * new checked between old and new as it is made.
    """
    b = [0.0] * len(prev)
    for link_id in chosen:
        b[link_id] = 1.0
    keep = 1.0 - lam
    out = []
    for link_id, (old, new) in enumerate(zip(prev, b)):
        value = keep * old + lam * new
        lo, hi = (old, new) if old <= new else (new, old)
        if value < lo - 1e-12 or value > hi + 1e-12:
            raise ConsistencyError(
                f"attractiveness update left [{lo}, {hi}]: {value} for link id {link_id}"
            )
        out.append(value)
    return out


def scan_record_conservation(world):
    for _t, name, count, _v, entered, exited in world.log.link_rows():
        assert entered >= exited, name
        assert entered - exited == count, name


def scan_fifo(world):
    entries = defaultdict(list)
    exits = defaultdict(list)
    names = list(world.links_by_name)
    for platoon in world.platoons:
        trajectory = platoon.trajectory
        passages = trajectory.passages()
        if trajectory:
            entries[names[passages[0][2]]].append(((trajectory.first - 1) * world.log.dt,
                                                   platoon.id))
        if platoon.state == "arrived":
            exits[names[passages[-1][2]]].append((platoon.arrival_t, platoon.id))
    for ev in world.log.transfer_events:
        exits[ev.from_link].append((ev.t, ev.platoon_id))
        entries[ev.to_link].append((ev.t, ev.platoon_id))
    for name, ins in entries.items():
        ins.sort()
        outs = sorted(exits.get(name, []))
        in_ids = [pid for _t, pid in ins]
        out_ids = [pid for _t, pid in outs]
        assert out_ids == in_ids[: len(out_ids)], name


def scan_spacing(world):
    by_step = defaultdict(list)
    names = list(world.links_by_name)
    for platoon in world.log.platoons:
        for t, name, x, _v in platoon.trajectory.rows(world.log.dt, names):
            by_step[(t, name)].append(x)
    for (t, name), xs in by_step.items():
        spacing = world.links_by_name[name].spacing
        xs.sort(reverse=True)
        for front, back in zip(xs, xs[1:]):
            assert front - back >= spacing - 1e-9, (name, t)


def scan_counts(world):
    counts = world.counts()
    assert counts["generated"] == counts["waiting"] + counts["running"] + counts["arrived"]
    assert counts["generated"] == counts["arrived"] + counts["stranded"]


def scan_attractiveness(world):
    table = world.attractiveness
    for z in table.B:
        for value in table.row(z):
            assert math.isfinite(value)
            assert -1e-9 <= value <= 1.0 + 1e-9


def scan_signals(world):
    heads = {link.name: world.nodes_by_name[link.spec.to_node].spec for link in world.links}
    for ev in world.log.transfer_events:
        assert signal_permits(heads[ev.from_link], ev.t, ev.from_link), ev


def scan_signs(world):
    """No stored link speed and no replayed position has its sign bit set, so no -0.0."""
    for v in world.log.link_records.mean_speed:
        assert math.copysign(1.0, v) > 0, v
    for platoon in world.platoons:
        for x in platoon.trajectory.replay()[0]:
            assert math.copysign(1.0, x) > 0, (platoon.id, x)


def scan_run(world):
    """Every structural invariant of a finished run (acceptance 9)."""
    scan_record_conservation(world)
    scan_fifo(world)
    scan_spacing(world)
    scan_signs(world)
    scan_counts(world)
    scan_attractiveness(world)
    scan_signals(world)


def single_link_texts(length: float = 1000.0, u: float = 20.0):
    nodes = "name,x,y\nA,0,0\nB,1000,0\n"
    links = f"name,from,to,length,free_flow_speed,jam_density,merge_priority\nAB,A,B,{length:g},{u:g},0.2,\n"
    return nodes, links


def chain_texts(l1: float = 1000.0, l2: float = 1000.0):
    nodes = "name,x,y\nA,0,0\nB,1000,0\nC,2000,0\n"
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        f"L1,A,B,{l1:g},20,0.2,\n"
        f"L2,B,C,{l2:g},20,0.2,\n"
    )
    return nodes, links


def bottleneck_world(duration: float = 3000.0, seed: int = 0):
    """A feeder link discharging into a long sink link under excess demand."""
    nodes = "name,x,y\nF,0,0\nM,2000,0\nE,12000,0\n"
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        "FM,F,M,2000,20,0.2,\n"
        "ME,M,E,10000,20,0.2,\n"
    )
    demand = f"orig,dest,start_t,end_t,flow\nF,E,0,{duration:g},1.2\n"
    return make_world(nodes, links, demand, duration=duration, seed=seed)


def merge_world(duration: float, seed: int = 0, alpha1: float = 2.0, alpha2: float = 0.5):
    """Two saturated feeders with given merge priorities joining one sink link."""
    nodes = "name,x,y\nF1,0,0\nF2,0,200\nM,500,0\nE,2500,0\n"
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        f"IN1,F1,M,500,20,0.2,{alpha1:g}\n"
        f"IN2,F2,M,500,20,0.2,{alpha2:g}\n"
        "OUT,M,E,2000,20,0.2,\n"
    )
    demand = (
        "orig,dest,start_t,end_t,flow\n"
        f"F1,E,0,{duration:g},0.9\n"
        f"F2,E,0,{duration:g},0.9\n"
    )
    return make_world(nodes, links, demand, duration=duration, seed=seed)


def uroboros_world(managed: bool = False, seed: int = 0, duration: float = UROBOROS_DURATION):
    links_file = "links_managed.csv" if managed else "links.csv"
    return make_world(
        read_demo("uroboros", "nodes.csv"),
        read_demo("uroboros", links_file),
        read_demo("uroboros", "demand.csv"),
        duration=duration,
        seed=seed,
    )


def parallel_world(seed: int = 0, duration: float = PARALLEL_DURATION):
    return make_world(
        read_demo("parallel", "nodes.csv"),
        read_demo("parallel", "links.csv"),
        read_demo("parallel", "demand.csv"),
        duration=duration,
        seed=seed,
        route_update_interval=12,
        route_weight=0.5,
    )


def sioux_falls_world(seed: int = 0):
    return make_world(
        read_demo("sioux_falls", "nodes.csv"),
        read_demo("sioux_falls", "links.csv"),
        read_demo("sioux_falls", "demand.csv"),
        duration=SIOUX_DURATION,
        seed=seed,
        route_update_interval=120,
    )


@pytest.fixture(scope="session")
def uroboros_default_run():
    return run(uroboros_world(managed=False))


@pytest.fixture(scope="session")
def uroboros_managed_run():
    return run(uroboros_world(managed=True))


@pytest.fixture(scope="session")
def bottleneck_run():
    return run(bottleneck_world())
