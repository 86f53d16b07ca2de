"""Ten end-to-end checks, one printed verdict line each.

Every test reports `ACCEPTANCE <n>: PASS/FAIL - <description>`; the lines
are echoed in the terminal summary after the run (see conftest) so they
remain visible under pytest's output capturing.
"""

import functools
import hashlib
import os
import random
import time
from collections import defaultdict

from mesosim import export_csv, mfd_points, run
from mesosim.analyzer import export_bin
from mesosim.kinematics import LinkState

import conftest
from conftest import (
    UROBOROS_RING,
    bottleneck_world,
    link_capacity,
    make_world,
    merge_world,
    node_index,
    parallel_world,
    random_digraph,
    scan_run,
    single_link_texts,
    sioux_falls_world,
    tree_by_name,
    uroboros_world,
)


def criterion(n, desc):
    """Record and print the verdict for criterion n, even when the body raises."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = "FAIL"
            try:
                fn(*args, **kwargs)
                verdict = "PASS"
            finally:
                line = f"ACCEPTANCE {n}: {verdict} - {desc}"
                conftest.ACCEPTANCE_RESULTS[n] = line
                print(line)

        return wrapper

    return deco


def _flow_profile(world):
    points = mfd_points(world.log, world, export_bin(world.log))
    peak = max(p.flow for p in points)
    late = [p.flow for p in points if p.t_bin >= 0.75 * world.duration]
    return peak, late


@criterion(1, "single free-flow trip finishes within one time step of 50 s")
def test_criterion_01_free_flow():
    nodes, links = single_link_texts()
    t0 = time.perf_counter()
    world = run(make_world(nodes, links, "orig,dest,start_t,end_t,flow\nA,B,0,10,0.5\n",
                           duration=200.0))
    wall = time.perf_counter() - t0
    (platoon,) = world.platoons
    trip = platoon.arrival_t - platoon.depart_t
    dt = world.config.time_step
    assert abs(trip - 50.0) <= dt, trip
    assert wall < 1.0, wall


@criterion(2, "standing queue discharges at 0.8 veh/s within 5%")
def test_criterion_02_capacity(bottleneck_run):
    world = bottleneck_run
    exited = {t: d for t, name, _c, _v, _a, d in world.log.link_rows() if name == "FM"}
    dn = world.config.platoon_size
    window = 1500.0  # well above the required 100 steps
    flow = (exited[2500.0] - exited[1000.0]) * dn / window
    target = link_capacity(20.0, 1.0, 5.0)
    assert abs(flow - target) <= 0.05 * target, flow


@criterion(3, "merge shares follow 2.0/0.5 priorities within 3% over 10,000 steps")
def test_criterion_03_merge_fairness():
    world = run(merge_world(duration=50000.0))
    assert world.total_steps == 10000
    from_hi = sum(ev.from_link == "IN1" for ev in world.log.transfer_events)
    total = len(world.log.transfer_events)
    assert total > 5000
    share = from_hi / total
    assert abs(share - 0.8) <= 0.03, share


@criterion(4, "interfering ring demand collapses into gridlock in under 10 s")
def test_criterion_04_gridlock():
    t0 = time.perf_counter()
    world = run(uroboros_world(managed=False))
    wall = time.perf_counter() - t0
    peak, late = _flow_profile(world)
    assert peak > 0
    assert max(late) < 0.05 * peak, (max(late), peak)

    ring = set(UROBOROS_RING)
    dn = world.config.platoon_size
    densities = [
        count * dn / world.links_by_name[name].length
        for t, name, count, _v, _a, _d in world.log.link_rows()
        if name in ring and t >= 0.75 * world.duration
    ]
    jam = 0.2
    mean_density = sum(densities) / len(densities)
    assert mean_density > 0.5 * jam, mean_density
    assert wall < 10.0, wall


@criterion(5, "raising ring merge priorities to 2 prevents the gridlock")
def test_criterion_05_gridlock_prevention():
    world = run(uroboros_world(managed=True))
    completion = world.arrived_platoons / len(world.platoons)
    assert completion >= 0.95, completion
    peak, late = _flow_profile(world)
    late_mean = sum(late) / len(late)
    assert late_mean >= 0.5 * peak, (late_mean, peak)


@criterion(6, "two equal parallel routes split 50/50 within 3% across 10 seeds")
def test_criterion_06_route_symmetry():
    p1 = p2 = 0
    for seed in range(10):
        world = run(parallel_world(seed=seed))
        p1 += world.links_by_name["P1"].entered_count
        p2 += world.links_by_name["P2"].entered_count
    dn = 5
    assert (p1 + p2) * dn >= 2000
    share = p1 / (p1 + p2)
    assert abs(share - 0.5) <= 0.03, share


@criterion(7, "24-node benchmark moves 34,690 vehicles with >=90% completion in under 16 s")
def test_criterion_07_benchmark_scale():
    t0 = time.perf_counter()
    world = sioux_falls_world()
    run(world)
    wall = time.perf_counter() - t0
    assert len(world.links) == 76
    dn = world.config.platoon_size
    assert len(world.platoons) * dn == 34690
    counts = world.counts()
    assert counts["generated"] == counts["waiting"] + counts["running"] + counts["arrived"]
    assert world.arrived_platoons / len(world.platoons) >= 0.90
    assert wall < 16.0, wall


def _export_digest(world, out_dir):
    digests = {}
    for path in export_csv(world.log, world, out_dir):
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


# sha256 of each export of the three determinism scenarios, recorded at
# commit 584b935; a change that alters any of them must say why and
# record the new values here
PINNED_DIGESTS = {
    "ring": {
        "vehicles.csv": "a5160cd43b3a513a00c489df524a323c21ee4c593f9f60eb44e276b08ddd7d5e",
        "links.csv": "36c37f00a3d78c05be2846d006ffae6275e9ab71f5beac27e334657c125d1eaf",
        "summary.csv": "84fe1974f597cf598c04b51b8e59e427a986d1cba84115eee0ffce8bd6c95e35",
        "mfd.csv": "095860e6d8ce0762429c9e5f842368941606d6888daa1f300b46b151e65fb9f0",
    },
    "ring_managed": {
        "vehicles.csv": "6e5aac0ce2466aa7624dea1af1d630f4ef4ba19bbcade3636bd8e45f6c5a6aea",
        "links.csv": "617b19250504294efc72de54ed6534cc2e1dd991abb1cd2a71ae5aea8ecd5f88",
        "summary.csv": "8bc9eeed284523db4fccec84e0713790f8f2f9796f8e71e1e4d995d9db80cae7",
        "mfd.csv": "726b5ca0c17854501a983bcad6354d8c5a12dce918270f3dc77bc12ea76c7904",
    },
    "benchmark": {
        "vehicles.csv": "636cd60d84fb07b44e8e51be40741cffcc92c53e893087f29c0005107cf8079c",
        "links.csv": "63f57607f5d2d9f1b001eeadc89c5a5d1356cce6bdf1a5733d97383cc075b4b1",
        "summary.csv": "08379ed7bdad1d70692845d95036103309fccc8c7fafe041163b34ba53e9f29b",
        "mfd.csv": "3f015bc756a858380a3d6e09c4f5e4df14eee6b4a56077cc1c33b04a163e1559",
    },
}


@criterion(8, "reruns with the same seed export byte-identical CSV files")
def test_criterion_08_determinism(tmp_path):
    scenarios = {
        "ring": lambda: uroboros_world(managed=False),
        "ring_managed": lambda: uroboros_world(managed=True),
        "benchmark": sioux_falls_world,
    }
    for label, build in scenarios.items():
        first = _export_digest(run(build()), str(tmp_path / label / "a"))
        second = _export_digest(run(build()), str(tmp_path / label / "b"))
        assert first == second, label
        assert set(first) == {"vehicles.csv", "links.csv", "summary.csv", "mfd.csv"}
        assert first == PINNED_DIGESTS[label], label


def _signal_world():
    nodes = (
        'name,x,y,signal\nN1,0,200,\nN2,0,-200,\n'
        'C,500,0,"0:30:A1;30:A2"\nE,2500,0,\n'
    )
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        "A1,N1,C,500,20,0.2,\n"
        "A2,N2,C,500,20,0.2,\n"
        "CE,C,E,2000,20,0.2,\n"
    )
    demand = (
        "orig,dest,start_t,end_t,flow\n"
        "N1,E,0,1200,0.5\n"
        "N2,E,0,1200,0.5\n"
    )
    return make_world(nodes, links, demand, duration=2000.0)


@criterion(9, "structural invariants hold over the whole scenario corpus")
def test_criterion_09_property_suites(uroboros_default_run, uroboros_managed_run, bottleneck_run):
    corpus = [
        uroboros_default_run,
        uroboros_managed_run,
        bottleneck_run,
        run(merge_world(duration=2000.0)),
        run(parallel_world(seed=1)),
        run(_signal_world()),
    ]
    for world in corpus:
        scan_run(world)


def _brute_force_cost(adjacency, tail, z):
    """Minimum simple-path cost by exhaustive enumeration."""
    best = None

    def walk(node, visited, acc):
        nonlocal best
        if node == z:
            if best is None or acc < best:
                best = acc
            return
        for nxt, cost in adjacency[node]:
            if nxt not in visited:
                walk(nxt, visited | {nxt}, acc + cost)

    walk(tail, {tail}, 0.0)
    return best


@criterion(10, "tree costs equal exhaustive path enumeration on all small digraphs")
def test_criterion_10_routing_oracle():
    for n in range(2, 9):
        rng = random.Random(100 + n)
        names = [f"n{i}" for i in range(n)]
        links = random_digraph(n, rng, min(2 * n, n * (n - 1)))
        nodes = node_index([LinkState(link, 5) for link in links])
        costs = [link.length / 20.0 for link in links]
        adjacency = defaultdict(list)
        for link_id, link in enumerate(links):
            adjacency[link.from_node].append((link.to_node, costs[link_id]))
        for z in names:
            dist, _ = tree_by_name(nodes, costs, z)
            for tail in names:
                expected = _brute_force_cost(adjacency, tail, z)
                assert dist.get(tail) == expected, (n, tail, z)
