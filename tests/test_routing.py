"""Shortest-path trees, attractiveness smoothing, and link sampling."""

import math
import random
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosim import (
    ConsistencyError,
    DemandSpec,
    LinkSpec,
    NodeSpec,
    SimConfig,
    build_world,
    routing,
    run,
    step,
)
from mesosim.kinematics import LinkState, Platoon, instantaneous_travel_time
from mesosim.routing import (
    AttractivenessTable,
    choose_outgoing,
    maybe_refresh,
    weighted_draw,
)
from mesosim.node_transfer import select_incoming_order

from conftest import (
    make_world,
    node_index,
    random_digraph,
    random_worlds,
    reaching,
    reference_blend_row,
    reference_dist,
    scan_run,
    single_link_texts,
    tree_by_name,
)


def spec(name, tail, head):
    return LinkSpec(name=name, from_node=tail, to_node=head, length=100.0,
                    free_flow_speed=20.0, jam_density=0.2)


def tree(links, costs, z):
    """shortest_tree over hand links, costs keyed by link name; next links by name."""
    states = [LinkState(link, 5) for link in links]
    dist, next_link = tree_by_name(node_index(states), [costs[s.name] for s in states], z)
    return dist, {node: link.name for node, link in next_link.items()}


def indicator(links, costs, z):
    """The tree as a 0/1 mark per link: 1 on each reaching node's next link."""
    chosen = set(tree(links, costs, z)[1].values())
    return {link.name: int(link.name in chosen) for link in links}


def test_indicator_prefers_cheaper_parallel():
    links = [spec("A", "n", "z"), spec("B", "n", "z")]
    b = indicator(links, {"A": 50.0, "B": 60.0}, "z")
    assert b == {"A": 1, "B": 0}


def test_indicator_tie_breaks_on_name():
    links = [spec("L1", "n", "z"), spec("L2", "n", "z")]
    assert indicator(links, {"L1": 50.0, "L2": 50.0}, "z") == {"L1": 1, "L2": 0}
    # swap the names: the winner must follow the name, not the list position
    links = [spec("M2", "n", "z"), spec("M1", "n", "z")]
    assert indicator(links, {"M2": 50.0, "M1": 50.0}, "z") == {"M1": 1, "M2": 0}


def test_indicator_marks_whole_chain():
    links = [spec("o1", "a", "b"), spec("o2", "b", "z")]
    b = indicator(links, {"o1": 10.0, "o2": 10.0}, "z")
    assert b == {"o1": 1, "o2": 1}
    assert tree(links, {"o1": 10.0, "o2": 10.0}, "z")[1] == {"a": "o1", "b": "o2"}


def test_indicator_unreachable_tail_is_zero():
    # nothing leads from c to z
    links = [spec("az", "a", "z"), spec("cb", "c", "b")]
    b = indicator(links, {"az": 10.0, "cb": 10.0}, "z")
    assert b == {"az": 1, "cb": 0}
    assert tree(links, {"az": 10.0, "cb": 10.0}, "z") == ({"z": 0.0, "a": 10.0}, {"a": "az"})


def test_infinite_cost_path_still_reaches():
    # a's only route to z costs inf: a reaches z, b (no route) does not
    links = [spec("az", "a", "z"), spec("bc", "b", "c")]
    costs = {"az": math.inf, "bc": 1.0}
    assert tree(links, costs, "z") == ({"z": 0.0, "a": math.inf}, {"a": "az"})
    assert indicator(links, costs, "z") == {"az": 1, "bc": 0}


def test_shortest_tree_hand_instance():
    links = [
        spec("AB", "A", "B"),
        spec("Bz", "B", "z"),
        spec("Az", "A", "z"),
        spec("BA", "B", "A"),
        spec("zA", "z", "A"),
    ]
    costs = {"AB": 10.0, "Bz": 20.0, "Az": 35.0, "BA": 1.0, "zA": 100.0}
    dist, next_link = tree(links, costs, "z")
    assert dist == {"z": 0.0, "B": 20.0, "A": 30.0}
    assert next_link == {"A": "AB", "B": "Bz"}
    b = indicator(links, costs, "z")
    assert b == {"AB": 1, "Bz": 1, "Az": 0, "BA": 0, "zA": 0}


def _reference_next_links(nodes, costs, z, dist):
    """The two-pass indicator: each reaching node but z takes the argmin of
    (cost + dist[head], link name) over its outgoing links."""
    out = {}
    for node in nodes.values():
        keys = [
            (costs[link.id] + dist[link.spec.to_node], link.name)
            for link in node.outgoing
            if link.spec.to_node in dist
        ]
        if keys and node.name != z:
            out[node.name] = min(keys)[1]
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
def test_tree_matches_two_pass_indicator(n, spanning_cycle, seed, data):
    rng = random.Random(seed)
    links = random_digraph(n, rng, rng.randint(0, n * (n - 1)), spanning_cycle)
    rng.shuffle(links)  # ids then follow neither the names nor the arc order
    states = [LinkState(link, 5) for link in links]
    names = [f"n{i}" for i in range(n)]
    nodes = node_index(states, *(NodeSpec(name=name, x=0.0, y=0.0) for name in names))
    # few distinct, exactly summing costs make ties common
    costs = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                               min_size=len(states), max_size=len(states)))
    for z in names:
        dist, next_link = tree_by_name(nodes, costs, z)
        assert set(dist) == reaching(links, z)
        assert z not in next_link
        chosen = {node: link.name for node, link in next_link.items()}
        assert chosen == _reference_next_links(nodes, costs, z, dist)
        for node, link in next_link.items():
            assert link.spec.from_node == node
            assert dist[node] == costs[link.id] + dist[link.spec.to_node]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    graph_seed=st.integers(0, 2**32 - 1),
    extra_arcs=st.integers(0, 12),
    steps=st.integers(1, 60),
    route_weight=st.sampled_from([0.3, 0.5, 1.0]),
    seed=st.integers(0, 1000),
)
def test_refresh_matches_two_pass_reference(n, graph_seed, extra_arcs, steps, route_weight, seed):
    rng = random.Random(graph_seed)
    # two lengths make equal-cost routes, and so tie-breaks, common
    links = [replace(link, length=100.0 * rng.randint(1, 2))
             for link in random_digraph(n, rng, min(n * (n - 1), n + extra_arcs))]
    nodes = [NodeSpec(name=f"n{k}", x=float(k), y=0.0) for k in range(n)]
    demands = [DemandSpec(f"n{k}", f"n{(k + 1 + k % 2) % n}", 0.0, 300.0, 0.8)
               for k in range(n) if (k + 1 + k % 2) % n != k]
    config = SimConfig(seed=seed, duration=400.0, route_weight=route_weight)
    world = build_world(config, nodes, links, demands)
    for _ in range(steps):
        step(world)
    while not any(link.platoons for link in world.links):
        step(world)
    costs = [instantaneous_travel_time(link) for link in world.links]
    ids = {link.name: link.id for link in world.links}
    table = world.attractiveness
    expected = {}
    for z in table.B:
        dist = reference_dist(world.nodes_by_name, costs, z)
        chosen = _reference_next_links(world.nodes_by_name, costs, z, dist).values()
        expected[z] = reference_blend_row(table.row(z), [ids[name] for name in chosen],
                                          route_weight)
    maybe_refresh(world, 0)  # step 0 is on every cadence
    assert {z: table.row(z) for z in table.B} == expected


def hand_table(prev, lam=0.5, tails=None):
    """A table whose row for destination z holds prev by link id, and its node index.

    Link id j is link l{j}, from node t{tails[j]} (t0 by default) to node s;
    nodes t0 up to the last tail come first, in order, then s.
    """
    tails = [0] * len(prev) if tails is None else tails
    states = [LinkState(spec(f"l{j}", f"t{k}", "s"), 5) for j, k in enumerate(tails)]
    tail_nodes = (NodeSpec(name=f"t{k}", x=0.0, y=0.0) for k in range(max(tails, default=0) + 1))
    nodes = node_index(states, *tail_nodes)
    table = AttractivenessTable(["z"], list(nodes.values()), lam)
    table.B["z"].values = array("d", prev)
    return table, nodes


def blend_once(prev, chosen, lam):
    """One refresh with weight lam recorded on a row of prev, then the row read whole."""
    table, _ = hand_table(prev, lam)
    table.record("z", chosen)
    return table.row("z")


def test_update_blends_halfway():
    assert blend_once([1.0], [], 0.5) == [0.5]


def test_update_full_weight_copies_indicator():
    assert blend_once([0.3, 0.7], [0], 1.0) == [1.0, 0.0]


def test_update_zero_weight_keeps_previous():
    prev = [0.3, 0.7]
    assert blend_once(prev, [0], 0.0) == prev


def test_update_covers_every_link():
    out = blend_once([1.0, 0.0], [1], 0.5)
    assert out == [0.5, 0.5]


def test_update_outside_unit_weight_raises():
    with pytest.raises(ConsistencyError):
        blend_once([1.0, 0.0], [1], 1.5)


@settings(max_examples=120)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5),
    st.lists(st.sampled_from([0, 1]), min_size=5, max_size=5),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_update_stays_convex(prev, b, lam):
    out = blend_once(prev, [k for k, mark in enumerate(b) if mark], lam)
    for key, value in enumerate(out):
        lo = min(prev[key], float(b[key]))
        hi = max(prev[key], float(b[key]))
        assert lo - 1e-12 <= value <= hi + 1e-12


# rows hold +0.0, 1.0 and subnormals often, and any other float in [0, 1]
UNIT_FLOATS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072009e-308, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


# blend weights: the tested set and any other in [0, 1]
UNIT_WEIGHTS = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                         st.floats(min_value=0.0, max_value=1.0))


def _hex_row(row):
    return [value.hex() for value in row]


@settings(max_examples=300)
@given(
    prev=st.lists(UNIT_FLOATS, max_size=40),
    lam=UNIT_WEIGHTS,
    data=st.data(),
)
def test_blend_row_matches_reference_bitwise(prev, lam, data):
    ids = st.integers(0, len(prev) - 1) if prev else st.nothing()
    chosen = data.draw(st.lists(ids, unique=True))
    expected = reference_blend_row(prev, chosen, lam)
    assert _hex_row(blend_once(prev, chosen, lam)) == _hex_row(expected)


@pytest.mark.parametrize("lam", [1.5, -0.5])
def test_blend_row_error_matches_reference(lam):
    # links 0 and 1 stay in bounds; link 2 (0.0 -> 1.0) leaves them either way
    prev, chosen = [0.0, 1.0, 0.0, 0.75], [1, 2]
    with pytest.raises(ConsistencyError) as want:
        reference_blend_row(prev, chosen, lam)
    with pytest.raises(ConsistencyError) as got:
        blend_once(prev, chosen, lam)
    assert "link id 2" in str(want.value)
    assert str(got.value) == str(want.value)


@settings(max_examples=300)
@given(
    prev=st.lists(UNIT_FLOATS, min_size=1, max_size=12),
    lam=st.one_of(st.sampled_from([1.5, -0.5, 1.0 + 1e-13, -1e-13]), st.floats(-1.0, 2.0)),
    data=st.data(),
)
def test_blend_row_outside_unit_weight_matches_reference(prev, lam, data):
    """Raises the reference's first error, or accepts the same values."""
    chosen = data.draw(st.lists(st.integers(0, len(prev) - 1), unique=True))
    try:
        expected = reference_blend_row(prev, chosen, lam)
    except ConsistencyError as want:
        with pytest.raises(ConsistencyError) as got:
            blend_once(prev, chosen, lam)
        assert str(got.value) == str(want)
    else:
        # equal as numbers: with lam > 1 a 0.0 left off the tree scales to -0.0
        assert blend_once(prev, chosen, lam) == expected


def test_blend_row_accepts_nan_like_reference():
    prev = [0.5, math.nan, 1.0, 0.0]
    for chosen in ([], [1], [0, 2], [1, 3]):
        for lam in (0.0, 0.5, 1.0):
            out = blend_once(prev, chosen, lam)
            assert _hex_row(out) == _hex_row(reference_blend_row(prev, chosen, lam))
            assert math.isnan(out[1])


def _check_node_reads(prev, lam, data, refreshes):
    """Records refreshes random trees on a row of prev whose links leave random
    nodes, reading random nodes between them: each read, and the row read whole
    at the end, is bitwise the eager blend."""
    n = len(prev)
    table, nodes = hand_table(prev, lam, data.draw(st.lists(st.integers(0, n - 1),
                                                            min_size=n, max_size=n)))
    row = table.B["z"]
    names = st.sampled_from(sorted(nodes))
    eager = list(prev)
    for _ in range(refreshes):
        for name in data.draw(st.lists(names, max_size=3)):
            expected = [eager[link.id] for link in nodes[name].outgoing]
            assert _hex_row(table.catch_up(row, nodes[name])) == _hex_row(expected)
        mask = data.draw(st.integers(0, 2**n - 1))
        chosen = [j for j in range(n) if mask >> j & 1]
        table.record("z", chosen)
        eager = reference_blend_row(eager, chosen, lam)
    assert _hex_row(table.row("z")) == _hex_row(eager)


@settings(max_examples=300)
@given(prev=st.lists(UNIT_FLOATS, min_size=1, max_size=40), lam=UNIT_WEIGHTS, data=st.data())
def test_reads_between_refreshes_match_eager_blend(prev, lam, data):
    """Each node read, with any refreshes pending, is bitwise the eager blend."""
    _check_node_reads(prev, lam, data, data.draw(st.integers(0, 20)))


@settings(max_examples=60, deadline=None)
@given(prev=st.lists(UNIT_FLOATS, min_size=1, max_size=24), lam=UNIT_WEIGHTS, data=st.data())
def test_node_reads_across_flushes_match_eager_blend(prev, lam, data):
    """Node reads stay bitwise the eager blend across at least two history flushes."""
    _check_node_reads(prev, lam, data, 2 * routing._MAX_PENDING + data.draw(st.integers(1, 9)))


def test_history_stays_bounded_and_rows_match_eager_blend(monkeypatch):
    """A refresh every step for 3x the history bound: each row's history stays
    within the bound, and each row read whole is bitwise the eager blend."""
    search = routing.shortest_tree
    trees = []

    def recording_search(*args):
        dist, chosen = search(*args)
        trees.append(chosen)
        return dist, chosen

    monkeypatch.setattr(routing, "shortest_tree", recording_search)
    links = random_digraph(6, random.Random(5), 14)
    nodes = [NodeSpec(name=f"n{k}", x=float(k), y=0.0) for k in range(6)]
    demands = [DemandSpec(f"n{k}", f"n{(k + 3) % 6}", 0.0, 900.0, 0.3) for k in range(6)]
    bound = routing._MAX_PENDING
    steps = 3 * bound + 7
    config = SimConfig(seed=3, duration=5.0 * steps, route_weight=0.3,
                       route_update_interval=1)
    world = build_world(config, nodes, links, demands)
    table = world.attractiveness
    zero = [0.0] * len(world.links)
    eager = {z: reference_blend_row(zero, chosen, 1.0) for z, chosen in zip(table.B, trees)}
    # the free-flow pass writes its trees into the rows; each step records one more
    for records in range(1, steps + 1):
        trees.clear()
        step(world)
        assert len(trees) == len(eager)
        for z, chosen in zip(table.B, trees):
            eager[z] = reference_blend_row(eager[z], chosen, 0.3)
        for row in table.B.values():
            assert len(row.trees) == (records - 1) % bound + 1
        if records % 37 == 0 or records == steps:
            for z in table.B:
                assert _hex_row(table.row(z)) == _hex_row(eager[z]), (records, z)
    assert world.clock == steps
    assert sum(link.entered_count for link in world.links) > 0


def _sample_share(row, draws=10000, seed=11):
    table, nodes = hand_table(row)
    node = nodes["t0"]
    rng = random.Random(seed)
    p = Platoon(0, "t0", "z", 0.0)
    hits = sum(choose_outgoing(p, node, table, rng) is node.outgoing[0] for _ in range(draws))
    return hits / draws


def test_choose_symmetric_row():
    assert _sample_share([0.5, 0.5]) == pytest.approx(0.5, abs=0.02)


def test_choose_degenerate_row_always_wins():
    table, nodes = hand_table([1.0, 0.0])
    node = nodes["t0"]
    rng = random.Random(12)
    p = Platoon(0, "t0", "z", 0.0)
    assert all(choose_outgoing(p, node, table, rng) is node.outgoing[0] for _ in range(200))


def test_choose_weighted_row():
    assert _sample_share([0.75, 0.25]) == pytest.approx(0.75, abs=0.02)


def test_choose_single_candidate_needs_no_rng():
    la = LinkState(spec("A", "n", "m1"), 5)
    node = node_index([la])["n"]
    p = Platoon(0, "n", "Z", 0.0)
    assert choose_outgoing(p, node, AttractivenessTable((), [], 0.5), None) is la


def test_choose_no_outgoing_raises():
    table, nodes = hand_table([])
    p = Platoon(0, "t0", "z", 0.0)
    with pytest.raises(ConsistencyError):
        choose_outgoing(p, nodes["t0"], table, random.Random(0))


def test_choose_zero_row_nothing_reaches_raises():
    table, nodes = hand_table([0.0, 0.0])
    p = Platoon(0, "t0", "z", 0.0)
    with pytest.raises(ConsistencyError):
        choose_outgoing(p, nodes["t0"], table, random.Random(0))


def _old_select_incoming_order(incoming, alphas, rng):
    """Reference: the merge-order loop before the shared draw existed."""
    remaining = list(zip(incoming, alphas))
    order = []
    while len(remaining) > 1:
        total = 0.0
        for _, w in remaining:
            total += w
        r = rng.random() * total
        acc = 0.0
        chosen = len(remaining) - 1
        for k, (_, w) in enumerate(remaining):
            acc += w
            if r < acc:
                chosen = k
                break
        order.append(remaining.pop(chosen)[0])
    if remaining:
        order.append(remaining[0][0])
    return order


def _old_weighted_choice(weights, rng):
    """Reference: choose_outgoing's weighted branch; None on a non-positive total."""
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


def _old_uniform_choice(n, rng):
    """Reference: choose_outgoing's uniform fallback over n candidates."""
    idx = int(rng.random() * n)
    if idx >= n:
        idx = n - 1
    return idx


class _FixedRng:
    """Returns one value from random(), for boundary draws real seeds rarely hit."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


_EDGE_DRAWS = [0.0, 0.5, 1.0 - 2.0**-53, 1.0]


def _weight_vectors(rng, count):
    for _ in range(count):
        n = rng.randint(1, 7)
        kind = rng.randrange(3)
        if kind == 0:  # merge priorities: positive
            yield [rng.choice([0.5, 1.0, 2.0, rng.uniform(0.01, 5.0)]) for _ in range(n)]
        elif kind == 1:  # attractiveness rows: zeros and fractions
            yield [rng.choice([0.0, 0.0, 1.0, rng.random()]) for _ in range(n)]
        else:
            yield [0.0] * n


def test_weighted_draw_matches_old_choice_branch():
    source = random.Random(2024)
    for weights in _weight_vectors(source, 3000):
        seed = source.randrange(1 << 30)
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        if _old_weighted_choice(weights, random.Random(seed)) is None:
            with pytest.raises(ConsistencyError):
                weighted_draw(weights, new_rng)
            assert new_rng.getstate() == old_rng.getstate()
            continue
        for _ in range(5):
            assert weighted_draw(weights, new_rng) == _old_weighted_choice(weights, old_rng)
        assert new_rng.getstate() == old_rng.getstate()
        for value in _EDGE_DRAWS:
            assert weighted_draw(weights, _FixedRng(value)) == _old_weighted_choice(
                weights, _FixedRng(value)
            )


def test_weighted_draw_matches_old_uniform_fallback():
    for n in range(1, 12):
        for seed in range(300):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            assert weighted_draw([1.0] * n, new_rng) == _old_uniform_choice(n, old_rng)
            assert new_rng.getstate() == old_rng.getstate()
        for value in _EDGE_DRAWS:
            assert weighted_draw([1.0] * n, _FixedRng(value)) == _old_uniform_choice(
                n, _FixedRng(value)
            )


def test_incoming_order_matches_old_loop():
    source = random.Random(77)
    for weights in _weight_vectors(source, 3000):
        if not all(w > 0.0 for w in weights):
            continue  # merge priorities are validated positive
        items = [f"l{k}" for k in range(len(weights))]
        seed = source.randrange(1 << 30)
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        assert select_incoming_order(items, weights, new_rng) == _old_select_incoming_order(
            items, weights, old_rng
        )
        assert new_rng.getstate() == old_rng.getstate()
        for value in _EDGE_DRAWS:
            assert select_incoming_order(
                items, weights, _FixedRng(value)
            ) == _old_select_incoming_order(items, weights, _FixedRng(value))


def _refresh_world(**config):
    nodes, links = single_link_texts()
    demand = "orig,dest,start_t,end_t,flow\nA,B,0,100,0.4\n"
    return make_world(nodes, links, demand, **config)


def test_refresh_on_cadence():
    world = _refresh_world(route_update_interval=120)
    table = world.attractiveness
    assert table.tree_computations == 1  # free-flow initialization
    maybe_refresh(world, 240)
    assert table.tree_computations == 2


def test_refresh_off_cadence_is_noop():
    world = _refresh_world(route_update_interval=120)
    before = world.attractiveness.row("B")
    maybe_refresh(world, 241)
    assert world.attractiveness.tree_computations == 1
    assert world.attractiveness.row("B") == before


def test_refresh_at_step_zero():
    world = _refresh_world(route_update_interval=120)
    maybe_refresh(world, 0)
    assert world.attractiveness.tree_computations == 2


def test_refresh_count_over_run():
    # duration 1200 s at dt 5 is 240 steps; every 60th step plus the
    # initialization gives 240/60 + 1 tree builds for the one destination
    from mesosim import run

    world = _refresh_world(duration=1200.0, route_update_interval=60)
    run(world)
    assert world.attractiveness.tree_computations == 240 // 60 + 1


def test_full_weight_static_network_is_all_or_nothing():
    # lam=1 deterministic routing: the longer of two parallel links never sees traffic
    nodes = "name,x,y\nA,0,0\nB,1000,0\n"
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        "P1,A,B,1000,20,0.2,\n"
        "P2,A,B,1100,20,0.2,\n"
    )
    demand = "orig,dest,start_t,end_t,flow\nA,B,0,600,0.2\n"
    from mesosim import run

    world = make_world(nodes, links, demand, duration=800.0, route_weight=1.0,
                       route_update_interval=12)
    run(world)
    assert world.links_by_name["P2"].entered_count == 0
    assert world.links_by_name["P1"].entered_count > 0


def test_zero_weight_freezes_initial_table():
    world = _refresh_world(route_weight=0.0, route_update_interval=10)
    table = world.attractiveness
    initial = {z: table.row(z) for z in table.B}
    maybe_refresh(world, 10)
    assert {z: table.row(z) for z in table.B} == initial


def _assert_rows_positive(world):
    """Every node that reaches z, z aside, has outgoing weight toward z."""
    table = world.attractiveness
    specs = [link.spec for link in world.links]
    for z in table.B:
        row = table.row(z)
        for name in reaching(specs, z):
            if name != z:
                outgoing = world.nodes_by_name[name].outgoing
                assert sum(row[link.id] for link in outgoing) > 0.0, (z, name)


@settings(max_examples=100, deadline=None)
@given(world=random_worlds())
def test_random_worlds_run_clean(world):
    """Each refresh leaves every node that reaches a destination some weight
    toward it, and the finished run passes every scan_run invariant."""
    _assert_rows_positive(world)
    while world.clock < world.total_steps:
        refreshes = world.clock % world.config.route_update_interval == 0
        step(world)
        if refreshes:
            _assert_rows_positive(world)
    scan_run(run(world))
