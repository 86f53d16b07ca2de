"""Scenario parsing, validation, and world assembly."""

import contextlib
import logging
import math
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mesosim import (
    DemandSpec,
    DuplicateNode,
    LinkSpec,
    MesosimError,
    NodeSpec,
    ParseError,
    SignalPlan,
    SimConfig,
    UnknownNode,
    UnreachableDemand,
    ValidationError,
    World,
    build_world,
    export_csv,
    parse_demand,
    parse_links,
    parse_nodes,
    parse_signal,
    run,
)
from mesosim.engine import MAX_PLATOONS
from mesosim.kinematics import LinkState, instantaneous_travel_time
from mesosim.routing import shortest_tree
from mesosim.scenario import horizon

from conftest import (
    make_world,
    node_index,
    random_digraph,
    reaching,
    read_demo,
    reference_dist,
    single_link_texts,
)

LINK_HEADER = "name,from,to,length,free_flow_speed,jam_density,merge_priority"


def test_parse_nodes_two_rows():
    nodes = parse_nodes("name,x,y\nW,0,0\nE,2,0")
    assert [n.name for n in nodes] == ["W", "E"]
    assert (nodes[1].x, nodes[1].y) == (2.0, 0.0)
    assert nodes[0].signal is None


def test_parse_nodes_duplicate_name():
    # the parser keeps both rows; the World rejects the repeat
    nodes = "name,x,y\nW,0,0\nW,1,1\nE,2,0\n"
    assert [n.name for n in parse_nodes(nodes)] == ["W", "W", "E"]
    links = f"{LINK_HEADER}\nWE,W,E,1000,20,0.2,\n"
    with pytest.raises(DuplicateNode, match="node name 'W' appears more than once"):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\n")


def test_parse_nodes_bad_number_reports_row():
    with pytest.raises(ParseError) as err:
        parse_nodes("name,x,y\nA,0,0\nB,zz,0")
    assert err.value.row == 2
    assert "zz" in str(err.value)


def test_parse_nodes_rejects_wrong_header():
    with pytest.raises(ParseError):
        parse_nodes("id,x,y\nA,0,0")


def test_parse_nodes_empty_text():
    with pytest.raises(ParseError):
        parse_nodes("")


def test_parse_nodes_skips_blank_rows_and_trims():
    nodes = parse_nodes("name,x,y\n\n A , 1 , 2 \n")
    assert len(nodes) == 1
    assert nodes[0] == NodeSpec(name="A", x=1.0, y=2.0)


@pytest.mark.parametrize("parse, header", [
    (parse_nodes, "name,x,y"),
    (parse_links, LINK_HEADER),
    (parse_demand, "orig,dest,start_t,end_t,flow"),
], ids=["nodes", "links", "demand"])
@pytest.mark.parametrize("row", [
    "A,1\r2,3,4,5,6,7",  # bare carriage return in an unquoted field
    "A," + "1" * 131073 + ",3,4,5,6,7",  # over the csv module's field size limit
], ids=["bare-cr", "huge-field"])
def test_malformed_csv_is_parse_error(parse, header, row):
    with pytest.raises(ParseError) as err:
        parse(f"{header}\n{row}\n")
    assert err.value.row == 1


def test_cells_are_read_by_position_up_to_the_header():
    # a cell past a three-column header is dropped; a missing signal cell is no signal
    assert parse_nodes("name,x,y\nA,0,0,0:30:AB\n") == [NodeSpec(name="A", x=0.0, y=0.0)]
    assert parse_nodes("name,x,y,signal\nA,0,0\n") == [NodeSpec(name="A", x=0.0, y=0.0)]


def test_blank_rows_take_no_row_number():
    text = "orig,dest,start_t,end_t,flow\nA,B,0,10,0.5\n\n ,\n"
    with pytest.raises(ParseError) as err:
        parse_demand(text + "A,B,0,zz,0.5\n")
    assert err.value.row == 2
    with pytest.raises(ParseError) as err:
        parse_demand(text + "A,1\r2,3,4,5\n")  # malformed CSV
    assert err.value.row == 2


def test_parse_links_example_row():
    (link,) = parse_links(f"{LINK_HEADER}\nNE,N,E,1000,20,0.2,0.5")
    assert link.jam_spacing == pytest.approx(5.0)
    assert link.from_node == "N" and link.to_node == "E"
    assert link.length / link.free_flow_speed == pytest.approx(50.0)


def test_parse_links_blank_priority_defaults():
    (link,) = parse_links(f"{LINK_HEADER}\nNE,N,E,1000,20,0.2,")
    assert link.merge_priority == 0.5


def test_parse_links_self_loop_rejected():
    with pytest.raises(ValidationError):
        parse_links(f"{LINK_HEADER}\nX,A,A,1000,20,0.2,0.5")


@pytest.mark.parametrize("row", [
    "X,A,B,0,20,0.2,0.5",
    "X,A,B,1000,-1,0.2,0.5",
    "X,A,B,1000,20,0,0.5",
    "X,A,B,1000,20,0.2,0",
])
def test_parse_links_nonpositive_fields_rejected(row):
    with pytest.raises(ValidationError):
        parse_links(f"{LINK_HEADER}\n{row}")


def test_parse_links_duplicate_name_rejected():
    text = f"{LINK_HEADER}\nX,A,B,1000,20,0.2,\nX,B,A,1000,20,0.2,\n"
    nodes, _links = single_link_texts()
    with pytest.raises(ValidationError, match="link name 'X' appears more than once"):
        make_world(nodes, text, "orig,dest,start_t,end_t,flow\n")


def test_parse_demand_band_total():
    (band,) = parse_demand("orig,dest,start_t,end_t,flow\nW,E,0,1200,0.4")
    assert (band.t_end - band.t_start) * band.flow == pytest.approx(480.0)


def test_parse_demand_zero_flow_is_valid():
    (band,) = parse_demand("orig,dest,start_t,end_t,flow\nW,E,0,100,0")
    assert band.flow == 0.0


def test_parse_demand_header_only():
    assert parse_demand("orig,dest,start_t,end_t,flow\n") == []


@pytest.mark.parametrize("row", [
    "W,E,100,100,0.4",   # empty band
    "W,E,200,100,0.4",   # reversed band
    "W,W,0,100,0.4",     # origin == destination
    "W,E,-5,100,0.4",    # negative start
    "W,E,0,100,-0.1",    # negative flow
])
def test_parse_demand_invalid_rows(row):
    with pytest.raises(ValidationError):
        parse_demand(f"orig,dest,start_t,end_t,flow\n{row}")


def test_parse_signal_two_phase_plan():
    plan = parse_signal("0:30:A;30:B", 1)
    assert plan.offset == 0.0
    assert plan.cycle == pytest.approx(60.0)
    assert plan.phases == ((30.0, frozenset({"A"})), (30.0, frozenset({"B"})))


def test_signal_cycle_adds_left_to_right():
    durations = [0.1, 0.2, 0.3]
    total = 0.0
    for dur in durations:
        total += dur
    assert total != math.fsum(durations)  # a compensated sum() lands elsewhere
    plan = SignalPlan(phases=tuple((dur, frozenset({f"L{k}"})) for k, dur in enumerate(durations)))
    assert plan.cycle == total


@pytest.mark.parametrize("cell", [
    "30:A",          # no offset separator for the phase list
    "0:30",          # phase missing the link list separator
    "0:0:A",         # zero phase duration
    "0:30:",         # phase permits nothing
    "x:30:A",        # offset not a number
])
def test_parse_signal_rejects_malformed(cell):
    with pytest.raises(ParseError):
        parse_signal(cell, 3)


def test_parse_nodes_with_signal_column():
    text = 'name,x,y,signal\nA,0,0,\nB,1,0,"0:30:L1;30:L2"\n'
    nodes = parse_nodes(text)
    assert nodes[0].signal is None
    assert nodes[1].signal.cycle == pytest.approx(60.0)


def test_signal_plan_requires_phases():
    with pytest.raises(ValidationError):
        SignalPlan(phases=())


def test_signal_plan_rejects_empty_phase():
    with pytest.raises(ValidationError, match="permit at least one link"):
        SignalPlan(((10.0, frozenset()),))
    with pytest.raises(ValidationError, match="permit at least one link"):
        SignalPlan(((10.0, frozenset({"A"})), (20.0, frozenset())))


@pytest.mark.parametrize(
    "phases, match",
    [
        (5, "tuple of phases"),
        (((30.0,),), r"\(30\.0,\) is not a \(duration, links\) pair"),
        (((30.0, "AB"),), "must be a frozenset of names, got 'AB'"),
        (((30.0, frozenset({"A"})), (20.0, ["B"])), "must be a frozenset of names"),
        (((30.0, {"A"}),), "must be a frozenset of names"),
        (((30.0, frozenset({"A", 7})),), "must be a frozenset of names"),
    ],
)
def test_signal_plan_rejects_malformed_phases(phases, match):
    with pytest.raises(ValidationError, match=match):
        SignalPlan(phases=phases)


def test_signal_plan_takes_frozensets_of_names():
    plan = SignalPlan(phases=((30.0, frozenset({"AB"})), (20.0, frozenset({"CB", "DB"}))))
    assert plan.cycle == 50.0
    assert hash(NodeSpec("B", 0.0, 0.0, plan)) == hash(NodeSpec("B", 0.0, 0.0, plan))


def test_specs_reject_empty_names():
    with pytest.raises(ValidationError, match="node name must not be empty"):
        NodeSpec(name="", x=0.0, y=0.0)
    with pytest.raises(ValidationError, match="link name must not be empty"):
        LinkSpec(name="", from_node="A", to_node="B", length=1000.0,
                 free_flow_speed=20.0, jam_density=0.2)


_LINK_FIELDS = dict(name="AB", from_node="A", to_node="B", length=1000.0,
                   free_flow_speed=20.0, jam_density=0.2)
_DEMAND_FIELDS = dict(origin="A", destination="B", t_start=0.0, t_end=10.0, flow=0.5)


@pytest.mark.parametrize("build, field", [
    (lambda **kw: NodeSpec(**{"name": "A", "x": 0.0, "y": 0.0, **kw}), "name"),
    (lambda **kw: LinkSpec(**{**_LINK_FIELDS, **kw}), "name"),
    (lambda **kw: LinkSpec(**{**_LINK_FIELDS, **kw}), "from_node"),
    (lambda **kw: LinkSpec(**{**_LINK_FIELDS, **kw}), "to_node"),
    (lambda **kw: DemandSpec(**{**_DEMAND_FIELDS, **kw}), "origin"),
    (lambda **kw: DemandSpec(**{**_DEMAND_FIELDS, **kw}), "destination"),
], ids=["node.name", "link.name", "link.from_node", "link.to_node", "demand.origin",
        "demand.destination"])
@pytest.mark.parametrize("value", [["A"], None, 7, ("A",), b"A", ""],
                         ids=["list", "None", "int", "tuple", "bytes", "empty"])
def test_spec_names_must_be_non_empty_strings(build, field, value):
    build()  # the defaults build
    match = "must not be empty" if value == "" else f"{field} must be a string"
    with pytest.raises(ValidationError, match=match):
        build(**{field: value})


def _export_bytes(world, out_dir):
    run(world)
    return {os.path.basename(path): open(path, "rb").read()
            for path in export_csv(world.log, world, str(out_dir))}


def test_build_world_takes_any_iterable(tmp_path):
    nodes = parse_nodes(read_demo("uroboros", "nodes.csv"))
    links = parse_links(read_demo("uroboros", "links.csv"))
    demands = parse_demand(read_demo("uroboros", "demand.csv"))
    config = SimConfig(duration=3000.0)
    expected = _export_bytes(build_world(config, nodes, links, demands), tmp_path / "list")
    for kind, wrap in (("tuple", tuple), ("generator", lambda items: (x for x in items))):
        world = build_world(config, wrap(nodes), wrap(links), wrap(demands))
        assert _export_bytes(world, tmp_path / kind) == expected, kind


def test_build_world_minimal_has_one_destination():
    nodes, links = single_link_texts()
    world = make_world(nodes, links, "orig,dest,start_t,end_t,flow\nA,B,0,100,0.4\n")
    assert len(world.links) == 1
    assert set(world.attractiveness.B) == {"B"}


def test_build_world_unknown_endpoint():
    nodes = parse_nodes("name,x,y\nA,0,0\nB,1000,0")
    links = parse_links(f"{LINK_HEADER}\nAB,A,Z,1000,20,0.2,")
    with pytest.raises(UnknownNode):
        build_world(SimConfig(), nodes, links, [])


def test_build_world_unknown_demand_node():
    nodes, links = single_link_texts()
    with pytest.raises(UnknownNode):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\nA,Z,0,100,0.4\n")


def test_build_world_unreachable_demand():
    # only A->B exists, so B->A has no path
    nodes, links = single_link_texts()
    with pytest.raises(UnreachableDemand):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\nB,A,0,100,0.4\n")


@pytest.mark.parametrize("rows, error, fragment", [
    # one fault per row: the first row's fault wins
    (["B,A,0,100,0.4", "Z,B,0,100,0.4"], UnreachableDemand, "'B' to 'A'"),
    (["A,B,0,900,0.4", "B,A,0,100,0.4"], ValidationError, "900"),
    (["A,Z,0,100,0.4", "Z,B,0,900,0.4"], UnknownNode, "destination 'Z'"),
    # several faults in one row: origin, destination, horizon, reachability
    (["Y,Z,0,900,0.4"], UnknownNode, "origin 'Y'"),
    (["A,Z,0,900,0.4"], UnknownNode, "destination 'Z'"),
    (["B,A,0,900,0.4"], ValidationError, "900"),
    # a band shorter than one 5 s step, before reachability
    (["A,B,0,3,0.4", "B,A,0,100,0.4"], ValidationError, "shorter than the 5.0 s time step"),
    (["B,A,0,3,0.4"], ValidationError, "band 0.0-3.0 s is shorter"),
])
def test_build_world_reports_first_demand_error(rows, error, fragment):
    nodes, links = single_link_texts()
    demand = "orig,dest,start_t,end_t,flow\n" + "\n".join(rows) + "\n"
    with pytest.raises(error, match=fragment):
        make_world(nodes, links, demand, duration=500.0)


@pytest.mark.parametrize("row, error, message", [
    ("Y,B,0,100,0.4", UnknownNode, "origin 'Y' is not a node"),
    ("A,Z,0,100,0.4", UnknownNode, "destination 'Z' is not a node"),
    ("A,B,0,900,0.4", ValidationError, "band ends at 900.0 s, beyond the 500.0 s horizon"),
    ("A,B,0,3,0.4", ValidationError, "band 0.0-3.0 s is shorter than the 5.0 s time step"),
    ("B,A,0,100,0.4", UnreachableDemand, "no directed path from 'B' to 'A'"),
])
def test_world_demand_error_names_its_row(row, error, message):
    nodes, links = single_link_texts()
    demand = "orig,dest,start_t,end_t,flow\nA,B,0,100,0.4\n" + row + "\n"
    with pytest.raises(error) as info:
        make_world(nodes, links, demand, duration=500.0)
    assert str(info.value) == f"demand row 2: {message}"


def test_free_flow_costs_cover_exactly_the_reaching_nodes():
    """The free-flow tree reaches exactly the nodes with a path to z, a demand
    pair builds exactly when its origin is one of them, and the World stores
    the pair's brute-force free-flow cost."""
    unreachable_pairs = 0
    for n in range(2, 8):
        for seed in range(6):
            rng = random.Random(1000 * n + seed)
            links = random_digraph(n, rng, rng.randint(0, n * (n - 1)), spanning_cycle=False)
            names = [f"n{i}" for i in range(n)]
            nodes = [NodeSpec(name=name, x=0.0, y=0.0) for name in names]
            states = [LinkState(link, 5) for link in links]
            index = node_index(states, *nodes)
            free_flow = [instantaneous_travel_time(state) for state in states]
            for z in names:
                expected = reaching(links, z)
                dist, _ = shortest_tree([node.in_arcs for node in index.values()], free_flow,
                                        [state.name for state in states], index[z].id)
                assert {name for name, cost in zip(index, dist) if cost is not None} == expected
                for origin in names:
                    if origin == z:
                        continue
                    demand = [DemandSpec(origin, z, 0.0, 10.0, 0.1)]
                    config = SimConfig(duration=100.0)
                    if origin not in expected:
                        unreachable_pairs += 1
                        with pytest.raises(UnreachableDemand):
                            build_world(config, nodes, links, demand)
                        continue
                    world = build_world(config, nodes, links, demand)
                    costs = [instantaneous_travel_time(link) for link in world.links]
                    cost = reference_dist(world.nodes_by_name, costs, z)[origin]
                    assert world.free_flow_cost == {(origin, z): cost}, (n, seed, z)
    assert unreachable_pairs > 0


@pytest.mark.parametrize("door", [build_world, World], ids=["build_world", "World"])
def test_both_doors_cross_check_the_scenario(door):
    a, b = NodeSpec("A", 0.0, 0.0), NodeSpec("B", 1000.0, 0.0)
    ab = LinkSpec("AB", "A", "B", 1000.0, 20.0, 0.2)
    with pytest.raises(UnknownNode, match="unknown to node 'B'"):
        door(SimConfig(), [a], [ab], [])
    with pytest.raises(DuplicateNode, match="'A'"):
        door(SimConfig(), [a, b, a], [ab], [])
    twin = LinkSpec("AB", "B", "A", 1000.0, 20.0, 0.2)
    with pytest.raises(ValidationError, match="link name 'AB' appears more than once"):
        door(SimConfig(), [a, b], [ab, twin], [])
    with pytest.raises(ValidationError, match="no links"):
        door(SimConfig(), [a, b], [], [])
    # 7 s at dt = 5 s rounds up to two steps
    world = door(SimConfig(duration=7.0), [a, b], [ab], [])
    assert world.duration == world.log.duration == 10.0
    assert world.total_steps == 2


def test_build_world_caps_total_platoons():
    # band 0-1000 s at 5 vehicles per platoon: flow 5000 veh/s asks for exactly MAX_PLATOONS
    nodes, links = single_link_texts()
    at_limit = f"orig,dest,start_t,end_t,flow\nA,B,0,1000,{MAX_PLATOONS * 5 / 1000!r}\n"
    world = make_world(nodes, links, at_limit, duration=1000.0)
    assert len(world.platoons) == 0
    over = f"orig,dest,start_t,end_t,flow\nA,B,0,1000,{(MAX_PLATOONS + 1) * 5 / 1000!r}\n"
    with pytest.raises(ValidationError, match=f"over {MAX_PLATOONS}"):
        make_world(nodes, links, over, duration=1000.0)
    # the cap is on the sum over bands
    halves = "orig,dest,start_t,end_t,flow\n" + f"A,B,0,1000,{MAX_PLATOONS * 5 / 2000 + 1}\n" * 2
    with pytest.raises(ValidationError, match="platoons"):
        make_world(nodes, links, halves, duration=1000.0)
    with pytest.raises(ValidationError, match=r"2e\+300 platoons"):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\nA,B,0,10,1e300\n")


def test_build_world_link_too_short_for_platoon():
    # jam spacing 5 m times 5 vehicles needs 25 m of storage
    nodes, links = single_link_texts(length=20.0)
    with pytest.raises(ValidationError):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\n")


def test_build_world_demand_beyond_horizon():
    nodes, links = single_link_texts()
    with pytest.raises(ValidationError):
        make_world(nodes, links, "orig,dest,start_t,end_t,flow\nA,B,0,200,0.4\n", duration=100.0)


def test_build_world_rounds_duration_up(caplog):
    nodes, links = single_link_texts()
    with caplog.at_level(logging.INFO, logger="mesosim.scenario"):
        world = make_world(nodes, links, "orig,dest,start_t,end_t,flow\n", duration=7.0)
    assert world.duration == pytest.approx(10.0)
    assert world.total_steps == 2
    assert any("rounded up" in rec.getMessage() for rec in caplog.records)


def test_horizon_rejects_zero_steps():
    # SimConfig owns the step-count rule at both ends; horizon only rounds
    with pytest.raises(ValidationError, match=r"duration 3600 s .* zero time steps of 1e\+13 s"):
        SimConfig(reaction_time=1e13, platoon_size=1, duration=3600.0)
    for duration in (0.0, -5.0):
        with pytest.raises(ValidationError, match="zero time steps"):
            SimConfig(duration=duration)
    # just over 1e-9 of a 5 s step still rounds up to one step
    assert horizon(SimConfig(duration=1e-8)) == 5.0


def test_build_world_signal_must_cover_incoming():
    nodes_text = 'name,x,y,signal\nA,0,0,\nB,1000,0,\nC,2000,0,"0:30:AC"\n'
    links_text = f"{LINK_HEADER}\nAC,A,C,1000,20,0.2,\nBC,B,C,1000,20,0.2,\n"
    with pytest.raises(ValidationError) as err:
        make_world(nodes_text, links_text, "orig,dest,start_t,end_t,flow\n")
    assert "BC" in str(err.value)


def test_build_world_signal_error_precedes_demand_errors():
    # BC is in no phase and Z is not a node: the signal fault is reported
    nodes_text = 'name,x,y,signal\nA,0,0,\nB,1000,0,\nC,2000,0,"0:30:AC"\n'
    links_text = f"{LINK_HEADER}\nAC,A,C,1000,20,0.2,\nBC,B,C,1000,20,0.2,\n"
    demand_text = "orig,dest,start_t,end_t,flow\nA,Z,0,100,0.4\n"
    with pytest.raises(ValidationError, match="BC"):
        make_world(nodes_text, links_text, demand_text)


def test_build_world_signal_unknown_link():
    nodes_text = 'name,x,y,signal\nA,0,0,\nB,1000,0,"0:30:ZZ"\n'
    links_text = f"{LINK_HEADER}\nAB,A,B,1000,20,0.2,\n"
    with pytest.raises(ValidationError):
        make_world(nodes_text, links_text, "orig,dest,start_t,end_t,flow\n")


def test_build_world_deterministic():
    nodes, links = single_link_texts()
    demand = "orig,dest,start_t,end_t,flow\nA,B,0,100,0.4\n"
    w1 = make_world(nodes, links, demand, seed=7)
    w2 = make_world(nodes, links, demand, seed=7)
    assert w1.rng.getstate() == w2.rng.getstate()
    t1, t2 = w1.attractiveness, w2.attractiveness
    assert {z: t1.row(z) for z in t1.B} == {z: t2.row(z) for z in t2.B}
    assert [l.name for l in w1.links] == [l.name for l in w2.links]


# no finite real number: 10**400 is an int beyond float range
_NON_NUMBERS = {"str": "5", "None": None, "huge-int": 10**400, "complex": complex(1)}
_NON_NUMBER_PARAMS = [pytest.param(value, id=name) for name, value in _NON_NUMBERS.items()]


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(reaction_time=0)
    with pytest.raises(ValidationError):
        SimConfig(platoon_size=0)
    with pytest.raises(ValidationError):
        SimConfig(duration=-1)
    with pytest.raises(ValidationError):
        SimConfig(route_update_interval=0)
    with pytest.raises(ValidationError):
        SimConfig(route_weight=1.5)


@pytest.mark.parametrize("field, value", [
    ("reaction_time", float("nan")),
    ("reaction_time", float("inf")),
    ("duration", float("nan")),
    ("duration", float("inf")),
    ("route_weight", float("nan")),
    ("platoon_size", True),
    ("route_update_interval", True),
    ("seed", True),
    ("seed", None),
    ("seed", [1]),
    ("seed", 1.0),
])
def test_sim_config_rejects_non_finite_and_bool(field, value):
    with pytest.raises(ValidationError):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field", ["reaction_time", "platoon_size", "duration", "seed",
                                   "route_update_interval", "route_weight"])
@pytest.mark.parametrize("value", _NON_NUMBER_PARAMS)
def test_sim_config_rejects_non_numbers(field, value):
    if value == 10**400 and field in ("seed", "route_update_interval"):
        SimConfig(**{field: value})  # any whole number is a seed or a refresh period
        return
    with pytest.raises(ValidationError):
        SimConfig(**{field: value})


@pytest.mark.parametrize("overrides, fragment", [
    (dict(reaction_time=1e-320), "step count"),
    (dict(reaction_time=1e308), "time step"),
    (dict(platoon_size=10**400), "time step"),
    (dict(reaction_time=1e-300), "step count"),
    (dict(reaction_time=1e-14), "step count"),
])
def test_sim_config_rejects_overflowing_step(overrides, fragment):
    with pytest.raises(ValidationError, match=f"{fragment} .* overflows"):
        SimConfig(**overrides)


@pytest.mark.parametrize("field", ["length", "free_flow_speed", "jam_density", "merge_priority"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), *_NON_NUMBER_PARAMS])
def test_link_spec_rejects_non_finite(field, value):
    fields = dict(name="X", from_node="A", to_node="B", length=1000.0,
                  free_flow_speed=20.0, jam_density=0.2, merge_priority=0.5)
    fields[field] = value
    with pytest.raises(ValidationError):
        LinkSpec(**fields)


@pytest.mark.parametrize("field", ["t_start", "t_end", "flow"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), *_NON_NUMBER_PARAMS])
def test_demand_spec_rejects_non_finite(field, value):
    fields = dict(origin="A", destination="B", t_start=0.0, t_end=100.0, flow=0.4)
    fields[field] = value
    with pytest.raises(ValidationError):
        DemandSpec(**fields)


@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), *_NON_NUMBER_PARAMS])
def test_node_spec_rejects_non_finite(field, value):
    fields = dict(name="N", x=0.0, y=0.0)
    fields[field] = value
    with pytest.raises(ValidationError):
        NodeSpec(**fields)


@pytest.mark.parametrize("offset, duration", [
    (float("nan"), 30.0),
    (float("inf"), 30.0),
    (0.0, float("nan")),
    (0.0, float("inf")),
    *[pytest.param(value, 30.0, id=f"{name}-30.0") for name, value in _NON_NUMBERS.items()],
    *[pytest.param(0.0, value, id=f"0.0-{name}") for name, value in _NON_NUMBERS.items()],
])
def test_signal_plan_rejects_non_finite(offset, duration):
    with pytest.raises(ValidationError):
        SignalPlan(phases=((duration, frozenset({"A"})),), offset=offset)


def test_sim_config_time_step():
    assert SimConfig(reaction_time=1.0, platoon_size=5).time_step == pytest.approx(5.0)
    assert SimConfig(reaction_time=1.5, platoon_size=4).time_step == pytest.approx(6.0)


def test_sioux_falls_network_counts():
    nodes = parse_nodes(read_demo("sioux_falls", "nodes.csv"))
    links = parse_links(read_demo("sioux_falls", "links.csv"))
    assert len(nodes) == 24
    assert len(links) == 76
    assert len({n.name for n in nodes}) == 24


def test_capacity_finite_on_demo_links():
    import math

    tau = 1.0
    for demo in ("sioux_falls", "uroboros", "parallel"):
        for link in parse_links(read_demo(demo, "links.csv")):
            denom = link.free_flow_speed * tau + link.jam_spacing
            assert denom > 0
            assert math.isfinite(link.free_flow_speed / denom)


def serialize_nodes(nodes: list[NodeSpec]) -> str:
    """Inverse of parse_nodes, for the round-trip tests below."""
    out = ["name,x,y,signal"]
    for n in nodes:
        sig = ""
        if n.signal is not None:
            phases = ";".join(
                f"{dur:g}:{'|'.join(sorted(links))}" for dur, links in n.signal.phases
            )
            sig = f"{n.signal.offset:g}:{phases}"
        out.append(f"{n.name},{n.x:g},{n.y:g},{sig}")
    return "\n".join(out) + "\n"


def serialize_links(links: list[LinkSpec]) -> str:
    out = ["name,from,to,length,free_flow_speed,jam_density,merge_priority"]
    for l in links:
        out.append(
            f"{l.name},{l.from_node},{l.to_node},{l.length:g},"
            f"{l.free_flow_speed:g},{l.jam_density:g},{l.merge_priority:g}"
        )
    return "\n".join(out) + "\n"


def serialize_demand(demands: list[DemandSpec]) -> str:
    out = ["orig,dest,start_t,end_t,flow"]
    for d in demands:
        out.append(f"{d.origin},{d.destination},{d.t_start:g},{d.t_end:g},{d.flow:g}")
    return "\n".join(out) + "\n"


_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", min_size=1, max_size=8)
# %g keeps at most six significant digits, so draw values that survive it
_coord = st.integers(min_value=-99999, max_value=99999).map(lambda n: n / 10)
_pos = st.integers(min_value=1, max_value=99999).map(lambda n: n / 10)


@settings(max_examples=60)
@given(st.lists(st.tuples(_name, _coord, _coord), min_size=0, max_size=6, unique_by=lambda t: t[0]))
def test_nodes_round_trip(rows):
    nodes = [NodeSpec(name=n, x=x, y=y) for n, x, y in rows]
    assert parse_nodes(serialize_nodes(nodes)) == nodes


@settings(max_examples=60)
@given(st.lists(st.tuples(_name, _pos, _pos, _pos, _pos), min_size=0, max_size=6, unique_by=lambda t: t[0]))
def test_links_round_trip(rows):
    links = [
        LinkSpec(name=n, from_node=f"{n}_a", to_node=f"{n}_b",
                 length=l, free_flow_speed=u, jam_density=k, merge_priority=a)
        for n, l, u, k, a in rows
    ]
    assert parse_links(serialize_links(links)) == links


@settings(max_examples=60)
@given(st.lists(
    st.tuples(_name, st.integers(min_value=0, max_value=99998), st.integers(min_value=1, max_value=99999), _pos),
    min_size=0, max_size=6,
))
def test_demand_round_trip(rows):
    demands = [
        DemandSpec(origin=f"o{n}", destination=f"d{n}",
                   t_start=a / 10, t_end=min(a + b, 99999) / 10, flow=q)
        for n, a, b, q in rows
    ]
    assert parse_demand(serialize_demand(demands)) == demands


def test_signal_round_trip():
    plan = SignalPlan(phases=((30.0, frozenset({"A", "B"})), (45.0, frozenset({"C"}))), offset=10.0)
    nodes = [NodeSpec(name="N", x=0.0, y=0.0, signal=plan)]
    assert parse_nodes(serialize_nodes(nodes)) == nodes


# CSV punctuation, signal separators, control characters, digits and the
# letters of inf/nan: the characters the parsers give meaning to
_fuzz_text = st.text(alphabet=',"\' .-+:;|\r\n\x00\t0123456789infa', max_size=40)
_fuzz_header = st.sampled_from([
    "", "name,x,y\n", "name,x,y,signal\n", LINK_HEADER + "\n", "orig,dest,start_t,end_t,flow\n",
])


@settings(max_examples=500, deadline=None)
@given(_fuzz_header, _fuzz_text)
@example("orig,dest,start_t,end_t,flow\n", "A,B,0,10,1e300\n")  # parses; the World rejects it
def test_parsers_fail_only_with_mesosim_errors(header, body):
    for parse in (parse_nodes, parse_links, parse_demand):
        with contextlib.suppress(MesosimError):
            parse(header + body)
    with contextlib.suppress(MesosimError):
        parse_signal(body, 1)


def _spec_error(build, *args):
    """The message of the ValidationError build(*args) raises, or None if it builds."""
    try:
        build(*args)
    except ValidationError as exc:
        return str(exc)
    return None


# every float renders as a cell that converts back to it; names may be empty
_cell_float = st.floats(allow_nan=True, allow_infinity=True)
_cell_name = st.text(alphabet="AB_1", max_size=2)
_cell_node = st.sampled_from(["A", "B"])
_ROW_FORMATS = {
    # parse, header, a valid row, spec type, cell strategies
    "nodes": (parse_nodes, "name,x,y", "G,0,0", NodeSpec, [_cell_name, _cell_float, _cell_float]),
    "links": (parse_links, LINK_HEADER, "G,A,B,1,1,1,", LinkSpec,
              [_cell_name, _cell_node, _cell_node] + [_cell_float] * 4),
    "demand": (parse_demand, "orig,dest,start_t,end_t,flow", "A,B,0,1,1", DemandSpec,
               [_cell_node, _cell_node] + [_cell_float] * 3),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_ROW_FORMATS)),
       before=st.integers(min_value=0, max_value=3))
def test_row_parses_exactly_when_its_spec_builds(data, kind, before):
    """A parsed row fails exactly when its spec does, with the spec's message at its row."""
    parse, header, valid, spec, strategies = _ROW_FORMATS[kind]
    values = [data.draw(strategy) for strategy in strategies]
    cells = [repr(v) if isinstance(v, float) else v for v in values]
    text = "\n".join([header] + [valid] * before + [",".join(cells)]) + "\n"
    expected = _spec_error(spec, *values)
    if expected is None:
        assert parse(text)[-1] == spec(*values)
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.row == before + 1
    assert str(err.value) == f"row {before + 1}: {expected}"
    assert isinstance(err.value, ValidationError)
