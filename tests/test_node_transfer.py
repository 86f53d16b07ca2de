"""Node transfers: merge order, space checks, signals, arrivals."""

import random

import pytest

from mesosim import LinkSpec, NodeSpec, SignalPlan, run
from mesosim.kinematics import LinkState, Platoon
from mesosim.node_transfer import (
    process_node,
    select_incoming_order,
    signal_permits,
    vacant_space,
)

from conftest import link_capacity, make_world, node_index


def make_link(name, from_node="A", to_node="M", length=1000.0, u=20.0,
              priority=0.5, positions=()):
    spec = LinkSpec(name=name, from_node=from_node, to_node=to_node, length=length,
                    free_flow_speed=u, jam_density=0.2, merge_priority=priority)
    link = LinkState(spec, 5)
    for i, x in enumerate(positions):
        p = Platoon(1000 + len(positions) * 100 + i, from_node, "Z", 0.0)
        p.state = "running"
        p.x = x
        link.platoons.append(p)
        link.entered_count += 1
    return link


class StubWorld:
    """Just enough surface for process_node: queues, state counters and the clock."""

    def __init__(self):
        self.waiting = {}
        self.running_count = 0
        self.arrived_platoons = 0
        self.clock = 0
        self.attractiveness = None


def make_node(name, incoming=(), outgoing=(), signal=None):
    spec = NodeSpec(name=name, x=0.0, y=0.0, signal=signal)
    return node_index([*incoming, *outgoing], spec)[name]


def test_vacant_space_empty_link():
    assert vacant_space(make_link("L")) == pytest.approx(1000.0)


def test_vacant_space_rearmost_position():
    assert vacant_space(make_link("L", positions=[500.0, 10.0])) == pytest.approx(10.0)


def test_vacant_space_blocked_entrance():
    assert vacant_space(make_link("L", positions=[25.0, 0.0])) == pytest.approx(0.0)


def test_select_order_singleton():
    rng = random.Random(1)
    assert select_incoming_order(["only"], [1.0], rng) == ["only"]


def test_select_order_is_a_permutation():
    rng = random.Random(2)
    items = ["a", "b", "c", "d"]
    for _ in range(200):
        order = select_incoming_order(items, [2.0, 0.5, 1.0, 3.0], rng)
        assert sorted(order) == items


TWO_PHASE = SignalPlan(phases=((30.0, frozenset({"A"})), (30.0, frozenset({"B"}))))


def test_signal_unsignalized_always_permits():
    node = NodeSpec(name="N", x=0.0, y=0.0)
    for t in (0.0, 17.0, 1e6):
        assert signal_permits(node, t, "anything")


def test_signal_phase_lookup():
    node = NodeSpec(name="N", x=0.0, y=0.0, signal=TWO_PHASE)
    assert signal_permits(node, 10.0, "A") is True
    assert signal_permits(node, 45.0, "A") is False
    assert signal_permits(node, 45.0, "B") is True


def test_signal_is_periodic():
    node = NodeSpec(name="N", x=0.0, y=0.0, signal=TWO_PHASE)
    assert signal_permits(node, 70.0, "A") is True
    assert signal_permits(node, 70.0 + 600.0, "A") is True


def test_signal_offset_shifts_phase():
    plan = SignalPlan(phases=TWO_PHASE.phases, offset=30.0)
    node = NodeSpec(name="N", x=0.0, y=0.0, signal=plan)
    assert signal_permits(node, 10.0, "A") is False
    assert signal_permits(node, 10.0, "B") is True


def _ready_platoon(link, destination="Z"):
    """Head platoon standing at the link end, not yet at its destination."""
    p = Platoon(7, link.spec.from_node, destination, 0.0)
    p.state = "running"
    p.x = link.length
    link.platoons.appendleft(p)
    link.entered_count += 1
    return p


def test_transfer_unobstructed():
    source = make_link("IN", "A", "M")
    target = make_link("OUT", "M", "B")
    p = _ready_platoon(source)
    p.next_choice = target
    node = make_node("M", incoming=[source], outgoing=[target])
    assert process_node(node, StubWorld(), 40.0, random.Random(0)) == [p]
    assert p.trajectory.passages() == [(0, 0, target.id)]
    assert p.x == 0.0
    assert p.next_choice is None
    assert not source.platoons and source.exited_count == 1
    assert target.platoons[0] is p and target.entered_count == 1


def test_transfer_blocked_at_exact_jam_gap():
    # room equal to the 25 m footprint is not enough: strictly more is required
    source = make_link("IN", "A", "M")
    target = make_link("OUT", "M", "B", positions=[25.0])
    p = _ready_platoon(source)
    p.next_choice = target
    node = make_node("M", incoming=[source], outgoing=[target])
    assert process_node(node, StubWorld(), 0.0, random.Random(0)) == []
    assert source.platoons[0] is p and p.x == source.length


def test_transfer_succeeds_just_above_jam_gap():
    source = make_link("IN", "A", "M")
    target = make_link("OUT", "M", "B", positions=[25.0 + 1e-6])
    p = _ready_platoon(source)
    p.next_choice = target
    node = make_node("M", incoming=[source], outgoing=[target])
    assert process_node(node, StubWorld(), 0.0, random.Random(0)) == [p]


def test_transfer_head_not_at_end_stays():
    source = make_link("IN", "A", "M", positions=[900.0])
    target = make_link("OUT", "M", "B")
    node = make_node("M", incoming=[source], outgoing=[target])
    assert process_node(node, StubWorld(), 0.0, random.Random(0)) == []
    assert source.platoons[0].x == 900.0


def test_signal_red_blocks_transfers():
    plan = SignalPlan(phases=((30.0, frozenset({"IN"})), (30.0, frozenset({"OTHER"}))))
    source = make_link("IN", "A", "M")
    target = make_link("OUT", "M", "B")
    node = make_node("M", incoming=[source], outgoing=[target],
                     signal=plan)
    p = _ready_platoon(source)
    p.next_choice = target
    assert process_node(node, StubWorld(), 45.0, random.Random(0)) == []
    assert process_node(node, StubWorld(), 10.0, random.Random(0)) != []


def test_merge_single_slot_follows_priorities():
    """With one entrance slot, the higher-priority link wins ~alpha share."""
    rng = random.Random(42)
    wins = 0
    trials = 10000
    for _ in range(trials):
        hi = make_link("HI", "A", "M", priority=2.0)
        lo = make_link("LO", "B", "M", priority=0.5)
        target = make_link("OUT", "M", "C", length=40.0)
        p_hi = _ready_platoon(hi)
        p_lo = _ready_platoon(lo)
        p_hi.next_choice = target
        p_lo.next_choice = target
        node = make_node("M", incoming=[hi, lo], outgoing=[target])
        (moved,) = process_node(node, StubWorld(), 0.0, rng)  # the first entrant fills the slot
        wins += moved is p_hi
    assert wins / trials == pytest.approx(0.8, abs=0.02)


def test_origin_queue_inserts_platoon():
    target = make_link("OUT", "M", "B")
    node = make_node("M", incoming=[], outgoing=[target])
    world = StubWorld()
    p = Platoon(3, "M", "B", 0.0)
    from collections import deque

    world.waiting["M"] = deque([p])
    assert process_node(node, world, 15.0, random.Random(0)) == []  # not a link-to-link move
    assert p.state == "running"
    assert p.trajectory.first == world.clock + 1 and p.trajectory.passages() == [(0, 0, target.id)]
    assert target.platoons[-1] is p and p.x == 0.0
    assert world.running_count == 1
    assert not world.waiting["M"]


def test_origin_queue_blocked_by_full_entrance():
    target = make_link("OUT", "M", "B", positions=[10.0])
    node = make_node("M", incoming=[], outgoing=[target])
    world = StubWorld()
    p = Platoon(3, "M", "B", 0.0)
    from collections import deque

    world.waiting["M"] = deque([p])
    process_node(node, world, 15.0, random.Random(0))
    assert p.state == "waiting"
    assert world.waiting["M"][0] is p
    assert world.running_count == 0


def test_arrival_records_trip():
    link = make_link("IN", "A", "Z")
    p = _ready_platoon(link, destination="Z")
    world = StubWorld()
    world.running_count = 1
    assert process_node(make_node("Z", incoming=[link]), world, 500.0, random.Random(0)) == [p]
    assert p.state == "arrived"
    assert p.arrival_t == 500.0
    assert not link.platoons and link.exited_count == 1
    assert world.arrived_platoons == 1 and world.running_count == 0


def test_arrival_head_short_of_end_stays():
    link = make_link("IN", "A", "Z", positions=[400.0])
    p = link.platoons[0]
    world = StubWorld()
    assert process_node(make_node("Z", incoming=[link]), world, 500.0, random.Random(0)) == []
    assert p.state == "running" and p.arrival_t is None
    assert link.platoons[0] is p and p.x == 400.0
    assert world.arrived_platoons == 0


def test_arrivals_from_two_links_in_one_call():
    l1 = make_link("IN1", "A", "Z")
    l2 = make_link("IN2", "B", "Z")
    p1 = _ready_platoon(l1, destination="Z")
    p2 = _ready_platoon(l2, destination="Z")
    world = StubWorld()
    world.running_count = 2
    moved = process_node(make_node("Z", incoming=[l1, l2]), world, 300.0, random.Random(0))
    assert moved == [p1, p2]
    assert p1.state == p2.state == "arrived"
    assert world.arrived_platoons == 2 and world.running_count == 0


def test_arrival_ignores_red_signal():
    plan = SignalPlan(phases=((30.0, frozenset({"IN"})), (30.0, frozenset({"OTHER"}))))
    link = make_link("IN", "A", "Z")
    other = make_link("OTHER", "B", "Z")
    p = _ready_platoon(link, destination="Z")
    node = make_node("Z", incoming=[link, other], signal=plan)
    assert not signal_permits(node.spec, 45.0, "IN")
    assert process_node(node, StubWorld(), 45.0, random.Random(0)) == [p]
    assert p.state == "arrived"


def test_arrivals_draw_no_random_number():
    links = [make_link(f"IN{k}", tail, "Z") for k, tail in enumerate("ABC")]
    for link in links:
        _ready_platoon(link, destination="Z")
    rng = random.Random(5)
    before = rng.getstate()
    assert len(process_node(make_node("Z", incoming=links), StubWorld(), 0.0, rng)) == 3
    assert rng.getstate() == before


@pytest.mark.parametrize("behind_destination, behind_moves", [("Z", False), ("B", True)])
def test_head_behind_an_arrival_is_checked_as_head(behind_destination, behind_moves):
    # one arrival per link per step; a platoon stacked behind it may still transfer
    source = make_link("IN", "A", "Z")
    target = make_link("OUT", "Z", "B")
    behind = _ready_platoon(source, destination=behind_destination)
    behind.next_choice = target
    arriving = _ready_platoon(source, destination="Z")
    node = make_node("Z", incoming=[source], outgoing=[target])
    moved = process_node(node, StubWorld(), 0.0, random.Random(0))
    assert moved == ([arriving, behind] if behind_moves else [arriving])
    assert list(target.platoons) == ([behind] if behind_moves else [])


def test_arrivals_stacked_at_link_end():
    """Jam spacing below the float step at the link end stacks platoons at exactly its length.

    Each step the link into B delivers one arrival, and the platoon behind
    it is checked as the head: bound for B it waits a step, bound for C
    it competes for BC.
    """
    world = run(make_world(
        "name,x,y\nA,0,0\nB,1000,0\nC,2000,0\n",
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        "AB,A,B,1000,20,1e20,\nBC,B,C,1000,3,0.2,\n",
        "orig,dest,start_t,end_t,flow\nA,B,0,600,1.2\nA,C,0,600,0.8\n",
        duration=1200.0, seed=0,
    ))
    assert world.counts() == {
        "generated": 240, "waiting": 1, "running": 50, "arrived": 189, "stranded": 51,
    }


def test_destination_head_never_transfers(bottleneck_run):
    # heads bound for the node itself are absorbed, not re-routed
    for ev in bottleneck_run.log.transfer_events:
        assert ev.to_link in bottleneck_run.links_by_name


def test_node_preserves_capacity(bottleneck_run):
    """A single in/out node passes the full saturation flow through."""
    world = bottleneck_run
    dn = world.config.platoon_size
    entered = {}
    for t, name, _count, _v, a, _d in world.log.link_rows():
        if name == "ME":
            entered[t] = a
    flow = (entered[2500.0] - entered[1000.0]) * dn / 1500.0
    cap = link_capacity(20.0, 1.0, 5.0)
    assert flow == pytest.approx(cap, rel=0.05)
