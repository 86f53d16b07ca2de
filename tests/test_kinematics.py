"""Platoon motion, link updates, and link-level quantities."""

import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mesosim import ConsistencyError, LinkSpec
from mesosim.kinematics import (
    FREE,
    STAND,
    LinkState,
    Platoon,
    Trajectory,
    instantaneous_travel_time,
    update_link,
)

from conftest import link_capacity, node_index


def advance_platoon(
    x_self: float,
    x_leader_prev: float | None,
    u: float,
    dt: float,
    delta: float,
    dn: int,
) -> float:
    """Next position of a platoon under the two-regime motion rule.

    The oracle for update_link: the rule stated for one platoon at a time.

    Parameters
    ----------
    x_self : float
        Current position of the platoon, meters from link start.
    x_leader_prev : float or None
        The leader platoon's position at the start of the step, or None
        when the platoon has no leader on its link.
    u : float
        Link free-flow speed, m/s.
    dt : float
        Step width, seconds.
    delta : float
        Jam spacing, meters per vehicle.
    dn : int
        Vehicles per platoon.

    Returns
    -------
    float
        min(x_self + u*dt, x_leader_prev - delta*dn), or the free-flow
        term alone without a leader. Never below x_self; the floor only
        matters for corrupted inputs, valid states cannot trigger it.
    """
    x_new = x_self + u * dt
    if x_leader_prev is not None:
        bound = x_leader_prev - delta * dn
        if bound < x_new:
            x_new = bound
    if x_new < x_self:
        return x_self
    return x_new


def make_link(length=1000.0, u=20.0, kappa=0.2, platoon_size=5, positions=()):
    """A standalone LinkState holding platoons at the given front-to-back positions."""
    spec = LinkSpec(name="L", from_node="A", to_node="B", length=length,
                    free_flow_speed=u, jam_density=kappa)
    link = LinkState(spec, platoon_size)
    for i, x in enumerate(positions):
        p = Platoon(i, "A", "B", 0.0)
        p.state = "running"
        p.x = x
        link.platoons.append(p)
        link.entered_count += 1
    return link


def indexed(*links):
    """links, given ids in this order, as hop() takes them."""
    node_index(list(links))
    return links


def named_links(*names):
    """Indexed links with the given names, each from A to B."""
    return indexed(*(
        LinkState(LinkSpec(name=name, from_node="A", to_node="B", length=1000.0,
                           free_flow_speed=20.0, jam_density=0.2), 5)
        for name in names
    ))


def test_advance_follows_leader():
    assert advance_platoon(100.0, 200.0, 20.0, 5.0, 5.0, 5) == pytest.approx(175.0)


def test_advance_free_flow():
    assert advance_platoon(100.0, None, 20.0, 5.0, 5.0, 5) == pytest.approx(200.0)


def test_advance_jam_spaced_pair_stays_put():
    assert advance_platoon(100.0, 125.0, 20.0, 5.0, 5.0, 5) == pytest.approx(100.0)


def test_advance_never_moves_backward():
    # guard for corrupted input: leader closer than the jam gap
    assert advance_platoon(100.0, 90.0, 20.0, 5.0, 5.0, 5) == pytest.approx(100.0)


def test_update_single_free_platoon():
    link = make_link(positions=[0.0])
    update_link(link, 5.0)
    assert link.platoons[0].x == pytest.approx(100.0)
    assert link.mean_speed == pytest.approx(20.0)


def test_update_caps_at_link_end():
    link = make_link(positions=[995.0])
    update_link(link, 5.0)
    assert link.platoons[0].x == pytest.approx(1000.0)
    assert link.mean_speed == pytest.approx(1.0)


def test_update_empty_link_is_noop():
    link = make_link()
    link.mean_speed = 3.0
    update_link(link, 5.0)
    assert not link.platoons
    assert link.mean_speed == pytest.approx(20.0)


def test_update_uses_pre_update_leader_position():
    # the follower must see the leader at 100, not at its new 200
    link = make_link(positions=[100.0, 75.0])
    update_link(link, 5.0)
    front, back = link.platoons
    assert front.x == pytest.approx(200.0)
    assert back.x == pytest.approx(75.0)
    # the front's 20 m/s and the back's 0 m/s
    assert link.mean_speed == pytest.approx(10.0)


def test_update_logs_each_new_position():
    """One trajectory point per platoon per update, equal to its new x."""
    link = make_link(length=250.0, positions=[0.0])
    (leader,) = _entered(link)
    follower = Platoon(1, "A", "B", 0.0)
    logged = {leader: [], follower: []}
    for k in range(6):
        if k == 2:  # the follower enters at 0.0 two steps later, as process_node puts it
            follower.trajectory.hop(link)
            link.platoons.append(follower)
        update_link(link, 5.0)
        for platoon in link.platoons:
            logged[platoon].append(platoon.x)
    # free flow, capped at the link end, then held 25 m behind the leader's old position
    assert logged[leader] == [100.0, 200.0, 250.0, 250.0, 250.0, 250.0]
    assert logged[follower] == [100.0, 200.0, 225.0, 225.0]
    assert [list(platoon.trajectory.replay()[0]) for platoon in link.platoons] == list(
        logged.values()
    )


def test_update_detects_spacing_violation():
    # blocked front platoon pins the gap below the jam spacing
    link = make_link(positions=[1000.0, 990.0])
    with pytest.raises(ConsistencyError):
        update_link(link, 5.0)


def test_instantaneous_empty_link():
    link = make_link()
    assert instantaneous_travel_time(link) == pytest.approx(50.0)


def test_instantaneous_stopped_link_uses_floor():
    link = make_link(positions=[1000.0])
    update_link(link, 5.0)
    assert link.mean_speed == pytest.approx(0.0)
    assert instantaneous_travel_time(link) == pytest.approx(1000.0)


def test_instantaneous_single_free_platoon():
    link = make_link(positions=[100.0])
    update_link(link, 5.0)
    assert instantaneous_travel_time(link) == pytest.approx(50.0)


def test_capacity_reference_values():
    assert link_capacity(20.0, 1.0, 5.0) == pytest.approx(0.8)
    assert link_capacity(5.0, 1.0, 5.0) == pytest.approx(0.5)


def test_capacity_asymptote_is_inverse_reaction_time():
    assert link_capacity(1e9, 1.0, 5.0) == pytest.approx(1.0, rel=1e-6)
    assert link_capacity(1e9, 2.0, 5.0) == pytest.approx(0.5, rel=1e-6)


def test_capacity_monotone_in_speed():
    caps = [link_capacity(u, 1.0, 5.0) for u in (1.0, 5.0, 20.0, 100.0)]
    assert caps == sorted(caps)


def _oracle_sweep(positions, length, u, dt, delta, dn):
    """Reference update: one advance_platoon per platoon against the old state."""
    out = []
    for i, x in enumerate(positions):
        if i == 0:
            out.append(min(x + u * dt, length))
        else:
            out.append(advance_platoon(x, positions[i - 1], u, dt, delta, dn))
    return out


@st.composite
def _spaced_link_states(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    u = draw(st.integers(min_value=1, max_value=40))
    length = draw(st.integers(min_value=200, max_value=5000))
    # gaps at or above the 25 m jam gap; whole chain must fit on the link
    gaps = draw(st.lists(st.integers(min_value=25, max_value=200), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    assume(sum(gaps) <= length)
    front = draw(st.integers(min_value=sum(gaps), max_value=length))
    positions = []
    x = float(front)
    for i in range(n):
        positions.append(x)
        if i < n - 1:
            x -= gaps[i]
    return float(length), float(u), positions


@settings(max_examples=120)
@given(_spaced_link_states())
def test_update_matches_single_platoon_rule(case):
    length, u, positions = case
    link = make_link(length=length, u=u, positions=positions)
    expected = _oracle_sweep(positions, length, u, 5.0, 5.0, 5)
    update_link(link, 5.0)
    got = [p.x for p in link.platoons]
    assert got == pytest.approx(expected)
    # post-update invariants: ordering kept, spacing kept, nobody off the link
    for front_p, back_p in zip(link.platoons, list(link.platoons)[1:]):
        assert front_p.x - back_p.x >= 25.0 - 1e-9
    for p, x_old in zip(link.platoons, positions):
        assert x_old - 1e-9 <= p.x <= length + 1e-9


@settings(max_examples=60)
@given(
    st.integers(min_value=100, max_value=8000),
    st.integers(min_value=1, max_value=40),
)
def test_free_flow_steps_to_link_end(length, u):
    """A lone platoon reaches the link end in exactly ceil((L/u)/dt) updates."""
    dt = 5.0
    link = make_link(length=float(length), u=float(u), positions=[0.0])
    steps = 0
    while link.platoons[0].x < length:
        update_link(link, dt)
        steps += 1
        assert steps < 10000
    assert steps == math.ceil(length / u / dt - 1e-12)


def test_platoon_initial_state():
    p = Platoon(3, "A", "B", 40.0)
    assert p.state == "waiting"
    assert p.x == 0.0
    assert len(p.trajectory) == 0
    assert p.trajectory.passages() == [] and p.arrival_t is None


def test_speeds_restart_from_zero_at_each_hop():
    l1, l2 = named_links("L1", "L2")
    trajectory = Trajectory()
    trajectory.first = 4
    trajectory.hop(l1)
    for x in (100.0, 200.0, 200.0):
        trajectory.explicit(x)
    trajectory.hop(l2)
    for x in (50.0, 150.0):
        trajectory.explicit(x)
    names = ["L1", "L2"]
    assert trajectory.passages() == [(0, 3, l1.id), (3, 5, l2.id)]
    assert list(trajectory.speeds(5.0, trajectory.replay())) == [20.0, 20.0, 0.0, 10.0, 20.0]
    assert list(trajectory.rows(5.0, names)) == [
        (20.0, "L1", 100.0, 20.0), (25.0, "L1", 200.0, 20.0), (30.0, "L1", 200.0, 0.0),
        (35.0, "L2", 50.0, 10.0), (40.0, "L2", 150.0, 20.0),
    ]
    one = Trajectory()
    one.hop(l1)
    one.explicit(35.0)
    assert list(one.speeds(5.0, one.replay())) == [7.0]
    one.hop(l2)  # entered in a step that stopped before logging
    assert list(one.speeds(5.0, one.replay())) == [7.0]
    empty = Trajectory()
    assert list(empty.speeds(5.0, empty.replay())) == []


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _entered(link, first_positions=()):
    """link's platoons, each given a hop onto it as process_node records one.

    A platoon with first positions logs them on a link before, so its
    trajectory has points ahead of the hop.
    """
    (before,) = named_links("before")
    indexed(before, link)
    for platoon, positions in zip(link.platoons, first_positions):
        platoon.trajectory.hop(before)
        for x in positions:
            platoon.trajectory.explicit(x)
    for platoon in link.platoons:
        platoon.trajectory.hop(link)
    return list(link.platoons)


def test_free_flow_steps_are_kept_as_one_run():
    link = make_link(u=13.3, positions=[0.0])
    (platoon,) = _entered(link)
    logged = []
    for _ in range(10):
        update_link(link, 5.0 * 0.7)
        logged.append(platoon.x)
    trajectory = platoon.trajectory
    assert len(trajectory) == 10 and len(trajectory.data) == 3  # the hop, the run's header, u * dt
    assert list(map(_bits, trajectory.replay()[0])) == list(map(_bits, logged))


def test_standing_first_point_replays_from_zero_not_the_last_link():
    # the leader sits exactly one jam footprint in: the follower, just
    # entered at 0.0, stays at 0.0, a standing step on its new link
    link = make_link(positions=[25.0, 0.0])
    _leader, follower = _entered(link, [(), (730.0,)])
    update_link(link, 5.0)
    assert follower.trajectory.run == -1
    assert list(map(_bits, follower.trajectory.replay()[0])) == [_bits(730.0), _bits(0.0)]
    assert list(follower.trajectory.speeds(5.0, follower.trajectory.replay())) == [146.0, 0.0]


_WRITES = st.lists(st.one_of(
    st.tuples(st.just("hop"), st.integers(0, 2)),  # onto that link
    st.just(("free",)),
    st.just(("stand",)),
    st.tuples(st.just("explicit"), st.floats(0.0, 60.0)),  # moved by this much
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(moves=st.lists(st.floats(0.5, 40.0), min_size=3, max_size=3),
       names=st.permutations(["L0", "L1", "L2"]), writes=_WRITES)
def test_trajectory_replays_random_writer_sequences(moves, names, writes):
    """Any writer sequence that process_node and update_link can make replays
    as a plain list of points.

    After a hop onto one of three links, indexed in a drawn order, each
    step is free (the link's u * dt, from moves, added), standing (the
    previous position again) or explicit (moved by a drawn dx >= 0), and is
    written as update_link writes it: an open run of its kind is extended
    by a count alone, else opened through _open. The previous position is
    0.0 at a hop's first point. passages() reads the same (start, end, link
    id) per hop from the headers alone as replay() does.
    """
    links = named_links(*names)
    trajectory = Trajectory()
    points, hops = [], []
    for write in [("hop", 0), *writes]:
        kind = write[0]
        if kind == "hop":
            link = links[write[1]]
            trajectory.hop(link)
            hops.append((len(points), link.id))
            x = 0.0
        elif kind == "free":
            x += moves[link.id]
            if trajectory.run > 0:
                trajectory.run += 1
            else:
                trajectory._open(FREE, 1)
                trajectory.data.append(moves[link.id])
        elif kind == "stand":
            if trajectory.run < 0:
                trajectory.run -= 1
            else:
                trajectory._open(STAND, -1)
        else:
            x += write[1]
            trajectory.explicit(x)
        if kind != "hop":
            points.append(x)
        assert len(trajectory) == len(points)
    positions, segments = trajectory.replay()
    assert list(map(_bits, positions)) == list(map(_bits, points))
    ends = [start for start, _link in hops[1:]] + [len(points)]
    plain = [(start, end, link) for (start, link), end in zip(hops, ends)]
    assert trajectory.passages() == segments == plain
