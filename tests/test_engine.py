"""Step loop: phase order, demand accumulation, conservation, determinism, run log."""

import math
import os
import struct
import tempfile
import tracemalloc
from collections import defaultdict
from itertools import cycle

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
    cumulative_counts,
    mfd_points,
    parse_demand,
    parse_links,
    parse_nodes,
    run,
    step,
)
from mesosim import engine, node_transfer
from mesosim.analyzer import _fmt, export_bin, export_csv
from mesosim.engine import generate_demand
from mesosim.kinematics import Platoon, instantaneous_travel_time

from conftest import (
    bottleneck_world,
    chain_texts,
    lattice_csvs,
    make_world,
    merge_world,
    random_worlds,
    single_link_texts,
    uroboros_world,
)

DEMAND_HEADER = "orig,dest,start_t,end_t,flow"


def _single_link_world(demand_rows, duration=300.0, **config):
    nodes, links = single_link_texts()
    demand = DEMAND_HEADER + "\n" + "".join(f"{row}\n" for row in demand_rows)
    return make_world(nodes, links, demand, duration=duration, **config)


def test_accumulator_emits_every_other_step():
    # 0.4 veh/s adds 2.0 veh per step; platoon 1 after step 3, platoon 2 after step 5
    world = _single_link_world(["A,B,0,300,0.4"])
    counts = []
    for _ in range(5):
        step(world)
        counts.append(len(world.platoons))
    assert counts == [0, 0, 1, 1, 2]


def test_band_yields_exact_platoon_count():
    world = _single_link_world(["A,B,0,1200,0.4"], duration=1500.0)
    run(world)
    assert len(world.platoons) == 96
    assert world.accumulators[0] == pytest.approx(0.0, abs=1e-9)
    assert world.arrived_platoons == 96


def test_off_grid_band_counts_its_overlap():
    # 7 s of 1 veh/s at the 5 s step: 5 + 2 vehicles, not two whole steps
    world = _single_link_world(["A,B,0,7,1"], platoon_size=1, reaction_time=5.0)
    for i in range(4):
        generate_demand(world, i * world.config.time_step)
    assert len(world.platoons) == 7


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(0.0, 400.0),
    length=st.floats(0.0, 500.0),
    flow=st.floats(0.01, 3.0),
    reaction_time=st.sampled_from([1.0, 0.7, 1.4, 0.3]),
    platoon_size=st.sampled_from([1, 5, 7]),
)
def test_band_releases_flow_times_length(start, length, flow, reaction_time, platoon_size):
    dt = reaction_time * platoon_size
    band = DemandSpec("A", "B", start, start + 1.01 * dt + length, flow)  # at least one step
    nodes, links = single_link_texts()
    config = SimConfig(duration=1000.0, reaction_time=reaction_time, platoon_size=platoon_size)
    world = build_world(config, parse_nodes(nodes), parse_links(links), [band])
    for i in range(world.total_steps):
        generate_demand(world, i * world.config.time_step)
    asked = flow * (band.t_end - band.t_start)
    released = len(world.platoons) * platoon_size
    # float sums over the steps; the accumulator itself is small, so its error is too
    slack = engine._ACC_TOL + 1e-12 * world.total_steps * (platoon_size + flow * dt)
    assert released <= asked + slack
    assert asked - released < platoon_size + slack
    assert len(world.platoons) in {math.floor((asked + s) / platoon_size) for s in (-slack, slack)}


def test_zero_flow_band_generates_nothing():
    world = _single_link_world(["A,B,0,100,0"])
    run(world)
    assert len(world.platoons) == 0
    assert world.counts()["arrived"] == 0


def test_generate_demand_outside_band_is_noop():
    world = _single_link_world(["A,B,50,100,1.0"])
    generate_demand(world, 0.0)
    assert world.platoons == []
    generate_demand(world, 100.0)  # band end is exclusive
    assert world.platoons == []
    generate_demand(world, 50.0)
    assert len(world.platoons) == 1
    assert world.platoons[0].depart_t == 50.0
    assert world.platoons[0].state == "waiting"


def test_first_insertion_lags_one_step():
    # created in phase 4 of one step, inserted in the node phase of the next
    world = _single_link_world(["A,B,0,20,0.5"])
    run(world)
    first = world.platoons[0]
    assert first.depart_t == 5.0
    assert (first.trajectory.first - 1) * world.config.time_step == 10.0


def test_step_phase_order(monkeypatch):
    import mesosim.routing as routing

    calls = []
    real_refresh = routing.maybe_refresh
    real_process = node_transfer.process_node

    def spy_refresh(world, i):
        calls.append("refresh")
        return real_refresh(world, i)

    def spy_process(node, world, t, rng):
        calls.append(f"node:{node.name}")
        return real_process(node, world, t, rng)

    monkeypatch.setattr(routing, "maybe_refresh", spy_refresh)
    monkeypatch.setattr(node_transfer, "process_node", spy_process)

    world = _single_link_world(["A,B,0,300,0.4"])
    step(world)
    assert calls[0] == "refresh"
    assert calls[1:] == ["node:A", "node:B"]


def test_empty_world_steps_and_logs():
    world = _single_link_world([])
    step(world)
    assert world.clock == 1
    assert len(world.log.link_records) == 1
    ((t, name, count, v, entered, exited),) = world.log.link_rows()
    assert (t, name, count, entered, exited) == (5.0, "AB", 0, 0, 0)
    assert v == pytest.approx(20.0)


def test_running_platoon_logs_one_point_per_step():
    world = _single_link_world(["A,B,0,20,0.5"])
    for _ in range(4):
        step(world)
    platoon = world.platoons[0]
    before = len(platoon.trajectory)
    step(world)
    assert len(platoon.trajectory) == before + 1


def test_step_past_horizon_rejected():
    world = _single_link_world([], duration=10.0)
    run(world)
    with pytest.raises(ConsistencyError):
        step(world)


@pytest.mark.parametrize("name, d_entered, d_exited", [
    ("L2", 1, 0),  # an entry without a platoon on an empty link
    ("L2", 0, 1),  # an exit from an empty link, whose record is not stored
    ("L1", 0, 1),  # an extra exit from an occupied link
])
def test_step_checks_every_link(name, d_entered, d_exited):
    """The per-link count check covers every link, stored or not."""
    nodes, links = chain_texts()
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,10,0.5\n", duration=300.0)
    l1 = world.links_by_name["L1"]
    while not l1.platoons:
        step(world)
    step(world)
    link = world.links_by_name[name]
    link.entered_count += d_entered
    link.exited_count += d_exited
    message = (f"link {name}: entered {link.entered_count} / exited {link.exited_count} "
               f"inconsistent with {len(link.platoons)} platoons on link")
    with pytest.raises(ConsistencyError, match=message):
        step(world)


def test_total_steps_from_duration():
    world = _single_link_world([], duration=7200.0)
    assert world.total_steps == 1440


def test_conservation_every_step():
    world = bottleneck_world(duration=600.0)
    for _ in range(world.total_steps):
        step(world)
        counts = world.counts()
        assert counts["generated"] == counts["waiting"] + counts["running"] + counts["arrived"]


def test_platoon_appears_on_exactly_one_link():
    world = bottleneck_world(duration=600.0)
    for _ in range(100):
        step(world)
    placements = {}
    for link in world.links:
        for p in link.platoons:
            placements[p.id] = placements.get(p.id, 0) + 1
    for queue in world.waiting.values():
        for p in queue:
            placements[p.id] = placements.get(p.id, 0) + 1
    arrived = [p for p in world.platoons if p.state == "arrived"]
    for p in arrived:
        placements[p.id] = placements.get(p.id, 0) + 1
    assert set(placements) == {p.id for p in world.platoons}
    assert all(n == 1 for n in placements.values())


def test_run_seals_log_and_strands_leftovers():
    world = bottleneck_world(duration=600.0)
    assert world.log.sealed is False
    run(world)
    assert world.log.sealed is True
    counts = world.counts()
    assert counts["stranded"] > 0  # oversaturated demand cannot all finish in 600 s
    assert counts["generated"] == counts["arrived"] + counts["stranded"]
    assert counts["stranded"] == counts["waiting"] + counts["running"]
    assert all(p.state in ("arrived", "stranded") for p in world.platoons)
    # a second run returns the sealed world unchanged
    records = len(world.log.link_records)
    assert run(world) is world
    assert world.counts() == counts
    assert len(world.log.link_records) == records


def test_free_flow_link_traversal_times():
    """Entering a link at t, a platoon leaves it at t + ceil((L/u)/dt)*dt."""
    nodes, links = chain_texts(l1=730.0, l2=1000.0)
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,10,0.5\n", duration=300.0)
    run(world)
    (platoon,) = world.platoons
    assert (platoon.trajectory.first - 1) * world.config.time_step == 10.0
    (event,) = world.log.transfer_events
    # 730 m at 20 m/s is 36.5 s, rounded up to 8 steps of 5 s
    assert (event.from_link, event.to_link) == ("L1", "L2")
    assert event.t == 10.0 + 40.0
    assert platoon.arrival_t == 50.0 + 50.0


def _link_record(world, k, link):
    """(count, mean_speed, entered, exited) of link's record at step k, read by replay."""
    rows = list(world.log.link_rows())
    return rows[k * len(world.links) + link.id][2:]


@pytest.mark.parametrize("name", ["L1", "L2"])
def test_link_emptied_in_node_phase_logs_free_flow_speed(name):
    """L1 empties by a transfer and L2 by an arrival, each in some step k.

    Both lengths leave the platoon a short last move, so the link's mean
    speed before step k is below u; record k must still log u.
    """
    nodes, links = chain_texts(l1=730.0, l2=1030.0)
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,10,0.5\n", duration=300.0)
    link = world.links_by_name[name]
    while not link.platoons:
        step(world)
    while link.platoons:
        before = link.mean_speed
        step(world)
    assert before < link.u
    k = world.clock - 1
    assert _link_record(world, k, link)[:2] == (0, link.u)
    assert link.mean_speed == link.u
    assert instantaneous_travel_time(link) == link.length / link.u
    step(world)
    assert _link_record(world, k + 1, link)[1] == link.u


def test_identical_seeds_reproduce_log():
    w1 = run(merge_world(duration=500.0, seed=3))
    w2 = run(merge_world(duration=500.0, seed=3))
    assert list(w1.log.link_rows()) == list(w2.log.link_rows())
    assert w1.log.transfer_events == w2.log.transfer_events
    dt, names = w1.log.dt, list(w1.links_by_name)
    assert [list(p.trajectory.rows(dt, names)) for p in w1.log.platoons] == [
        list(p.trajectory.rows(dt, names)) for p in w2.log.platoons
    ]


def test_different_seeds_diverge():
    w1 = run(merge_world(duration=500.0, seed=3))
    w2 = run(merge_world(duration=500.0, seed=4))
    assert w1.log.transfer_events != w2.log.transfer_events


_PACK = struct.Struct("<d").pack


def _bits(row):
    """row with every float as its IEEE-754 bytes, so -0.0 and nan compare exactly."""
    return tuple([_PACK(value) if type(value) is float else value for value in row])


def _assert_same_rows(got, want):
    got = list(got)
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert _bits(a) == _bits(b), (k, a, b)


def _live_link_tuples(world):
    """Each link's (t, link, count, mean_speed, entered, exited) as the last step left it."""
    t = world.clock * world.config.time_step
    return [(t, link.name, len(link.platoons), link.mean_speed, link.entered_count,
             link.exited_count) for link in world.links]


def _run_live(world):
    """Run world to its horizon; return the live link tuples of every step, in order."""
    records = []
    while world.clock < world.total_steps:
        step(world)
        records.extend(_live_link_tuples(world))
    run(world)
    return records


def _dense_mfd(log, records, bin_s):
    """(t_bin, density, flow) per bin, summed over one tuple per link per step."""
    dt = log.dt
    dn = log.platoon_size
    total_length = 0.0
    for link in log.links_by_name.values():
        total_length += link.length
    per_bin = round(bin_s / dt)
    span = per_bin * len(log.links_by_name)
    points = []
    for idx in range(max(1, -(-round(log.duration / dt) // per_bin))):
        time_sum = dist_sum = 0.0
        for _t, _name, count, speed, _entered, _exited in records[idx * span:(idx + 1) * span]:
            if count:
                time_sum += count * dn * dt
                dist_sum += count * dn * speed * dt
        t_bin = idx * bin_s
        norm = total_length * min(bin_s, log.duration - t_bin)
        points.append((t_bin, time_sum / norm, dist_sum / norm))
    return points


def _assert_log_matches_live(world, records):
    """The link log replays, counts and bins as the live tuples of every step do.

    The stored ids must be exactly those of the storage rule: every link at
    step 0, then each link whose count, entered count or mean_speed bits
    differ from its live tuple at the previous step. exited is entered - count.
    """
    log = world.log
    n = len(world.links)
    assert records and len(log.link_records) == len(records)
    for row in records:
        assert row[5] == row[4] - row[2], row
    _assert_same_rows(log.link_rows(), records)
    steps = 0
    previous = None
    for k, (ids, count, speed, entered) in enumerate(log.link_records.steps()):
        rows = records[k * n:(k + 1) * n]
        stored = [j for j, row in enumerate(rows)
                  if previous is None or _bits(row[2:5]) != _bits(previous[j][2:5])]
        assert list(ids) == stored, k
        _assert_same_rows([(count[j], speed[j], entered[j]) for j in ids],
                          [rows[j][2:5] for j in stored])
        previous = rows
        steps += 1
    assert steps * n == len(records)
    dn = log.platoon_size
    for link in world.links:
        want = [(t, a * dn, d * dn) for t, name, _c, _v, a, d in records if name == link.name]
        _assert_same_rows(cumulative_counts(log, link.name), want)
    for bin_s in (log.dt, 7 * log.dt, export_bin(log)):
        got = [(point.t_bin, point.density, point.flow) for point in mfd_points(log, world, bin_s)]
        _assert_same_rows(got, _dense_mfd(log, records, bin_s))


def test_mfd_sums_each_step_in_link_order():
    """Stored speeds whose sum depends on its order give the dense, link-order bins."""
    nodes = [NodeSpec(name, 1000.0 * k, 0.0) for k, name in enumerate("ABCDEF")]
    links = [LinkSpec(f"{a}{b}", a, b, 1000.0, 20.0, 0.2) for a, b in ("AB", "CD", "EF")]
    demands = [DemandSpec(a, b, 0.0, 10.0, 0.5) for a, b in ("AB", "CD", "EF")]
    world = run(build_world(SimConfig(duration=300.0), nodes, links, demands))
    records = world.log.link_records
    for k, j in enumerate(records.link):
        records.mean_speed[k] = (1.0, 1e16, -1e16)[j]
    rows = list(world.log.link_rows())
    reordered = [row for k in range(0, len(rows), 3) for row in reversed(rows[k:k + 3])]
    for bin_s in (world.log.dt, export_bin(world.log)):
        got = [(point.t_bin, point.density, point.flow)
               for point in mfd_points(world.log, world, bin_s)]
        _assert_same_rows(got, _dense_mfd(world.log, rows, bin_s))
        assert got != _dense_mfd(world.log, reordered, bin_s)


def _place_platoon(world, link_name, x, destination):
    """A running platoon put on a link by hand before step 0."""
    link = world.links_by_name[link_name]
    platoon = Platoon(len(world.platoons), link.spec.from_node, destination, 0.0)
    platoon.state = "running"
    platoon.x = x
    platoon.trajectory.first = 1
    platoon.trajectory.hop(link)
    link.platoons.append(platoon)
    link.entered_count += 1
    world.platoons.append(platoon)
    world.running_count += 1
    return platoon


def test_platoon_placed_before_step_0_and_moved_off_in_it():
    nodes, links = chain_texts(l1=730.0, l2=1000.0)
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,C,100,110,0.5\n", duration=300.0)
    l1 = world.links_by_name["L1"]
    _place_platoon(world, "L1", l1.length, "C")
    records = _run_live(world)
    # L1 logs no platoon at step 0 but an exit, and stays empty until the band
    assert records[0][1:] == ("L1", 0, l1.u, 1, 1)
    assert records[2][1:] == ("L1", 0, l1.u, 1, 1)
    _assert_log_matches_live(world, records)


def test_link_emptied_in_node_phase_and_filled_again():
    nodes, links = chain_texts(l1=730.0, l2=1030.0)
    demand = DEMAND_HEADER + "\nA,C,0,10,0.5\nA,C,200,210,0.5\n"
    world = make_world(nodes, links, demand, duration=400.0)
    records = _run_live(world)
    l1 = [count for _t, name, count, _v, _a, _d in records if name == "L1"]
    emptied = next(k for k in range(1, len(l1)) if l1[k - 1] and not l1[k])
    refilled = next(k for k in range(emptied, len(l1)) if l1[k])
    assert refilled > emptied + 1
    stored = [0 in ids for ids, *_columns in world.log.link_records.steps()]
    assert stored[emptied] and stored[refilled]
    assert not any(stored[emptied + 1:refilled])
    _assert_log_matches_live(world, records)


def test_one_step_run():
    nodes, links = chain_texts()
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,5,1\n", duration=5.0)
    _place_platoon(world, "L2", 0.0, "C")
    records = _run_live(world)
    assert world.total_steps == 1 and len(records) == 2
    assert records[1][1:4] == ("L2", 1, 20.0)
    _assert_log_matches_live(world, records)


def _assert_table_lines(path, want: str):
    """The lines of the CSV table at path, after its header, are want's, in order."""
    with open(path, encoding="utf-8") as f:
        got = f.read().splitlines()[1:]
    want = want.splitlines()
    for k, (line, wanted) in enumerate(zip(got, want)):  # no diff of the whole tables
        assert line == wanted, k
    assert len(got) == len(want)


@settings(max_examples=40, deadline=None)
@given(
    world=random_worlds(),
    stop=st.integers(0, 1000),
    # two branches of three keep the engine's speeds, so most runs do
    speeds=st.none() | st.none() | st.lists(st.sampled_from([None, 0.0, 7.5]), max_size=6),
)
def test_log_columns_match_step_tuples(world, stop, speeds):
    """The run log reads back as what each step left in the live state.

    Link records give the dense tuples every step would have logged:
    link_rows(), links.csv, cumulative_counts and the MFD bins, after a
    drawn number of steps and at the horizon. Each trajectory's rows, and
    vehicles.csv, give as IEEE bytes its platoon's time, link, position and
    speed after every step it spent on a link; rows() takes the positions
    from replay().

    transfer_events, built from the trajectory passages, matches the transfers
    process_node returned during the run, and the run builds no event; the
    arrivals it returned match each arrived platoon's arrival time.

    Unless speeds is None, each link update's mean speed is replaced in turn
    by the next of speeds (None keeps it), on links that hold platoons, so
    records that differ only in their speed are common. No speed is -0.0,
    which the engine cannot make (see conftest.scan_signs).
    """
    stop = 1 + stop % world.total_steps
    names = list(world.links_by_name)
    points = defaultdict(list)
    records = []
    replacements = cycle(speeds or [None])
    update_link = engine.update_link

    def replacing_update(link, dt):
        update_link(link, dt)
        speed = next(replacements)
        if speed is not None and link.platoons:
            link.mean_speed = speed
        return link

    def logging_step(world):
        # a platoon's speed is its move on one link over the step; one that
        # entered a link in the step moved from 0
        before = {p.id: (link.name, p.x) for link in world.links for p in link.platoons}
        step(world)
        dt = world.config.time_step
        t_next = world.clock * dt
        records.extend(_live_link_tuples(world))
        if world.clock == stop:  # the readers on a partly run log
            _assert_log_matches_live(world, records)
        for link in world.links:
            for platoon in link.platoons:
                name, x_before = before.get(platoon.id, (None, 0.0))
                v = (platoon.x - x_before) / dt if name == link.name else platoon.x / dt
                points[platoon.id].append((t_next, link.name, platoon.x, v))

    moves = []
    arrivals = []
    process_node = node_transfer.process_node

    def capturing_process_node(node, world, t, rng):
        # a platoon behind an arrival may leave in the same call
        sources = {p.id: link.name for link in node.incoming for p in link.platoons}
        moved = process_node(node, world, t, rng)
        for platoon in moved:
            if platoon.state == "arrived":
                arrivals.append((t, platoon.id))
            else:
                target = names[platoon.trajectory.passages()[-1][2]]
                moves.append((t, platoon.id, sources[platoon.id], target))
        return moved

    def no_event(*args):
        raise AssertionError("run built a TransferEvent")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "update_link", replacing_update)
        patch.setattr(engine, "step", logging_step)
        patch.setattr(node_transfer, "process_node", capturing_process_node)
        patch.setattr(engine, "TransferEvent", no_event)
        run(world)
    _assert_log_matches_live(world, records)
    # the view lists events by platoon id, each platoon's in time order
    moves.sort(key=lambda move: move[1])
    events = world.log.transfer_events
    _assert_same_rows([(e.t, e.platoon_id, e.from_link, e.to_link) for e in events], moves)
    arrivals.sort(key=lambda arrival: arrival[1])
    assert arrivals == [(p.arrival_t, p.id) for p in world.platoons if p.state == "arrived"]
    dt = world.log.dt
    for platoon in world.platoons:
        trajectory = platoon.trajectory
        _assert_same_rows(trajectory.rows(dt, names), points[platoon.id])
        assert len(trajectory) == len(points[platoon.id])
        starts = [start for start, _end, _link in trajectory.passages()]
        if starts:
            assert starts[0] == 0
            assert all(a < b for a, b in zip(starts, starts[1:]))
            assert starts[-1] < len(trajectory)
    dn = world.config.platoon_size
    links_csv = "".join(
        f"{_fmt(t)},{name},{c * dn},{_fmt(v)},{a * dn},{d * dn}\n"
        for t, name, c, v, a, d in records
    )
    vehicles_csv = "".join(
        f"{_fmt(t)},{p.id},{p.origin},{p.destination},{name},{_fmt(x)},{_fmt(v)}\n"
        for p in world.platoons for t, name, x, v in points[p.id]
    )
    with tempfile.TemporaryDirectory() as tmp:
        export_csv(world.log, world, tmp)
        _assert_table_lines(os.path.join(tmp, "links.csv"), links_csv)
        _assert_table_lines(os.path.join(tmp, "vehicles.csv"), vehicles_csv)


# bytes a run may retain per trajectory point plus per link record: on
# this run one tuple per entry retains about 133, a column of positions
# about 16, the trajectory runs with a record per updated link about 10-11.5,
# and with records stored when they change and hops as run headers about 8.7-8.9
_LOG_BYTES_PER_ENTRY = 9.5


def test_run_log_memory_per_entry():
    world = uroboros_world(duration=3000.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(world)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(p.trajectory) for p in world.platoons) + len(world.log.link_records)
    assert entries > 50000
    assert grown <= _LOG_BYTES_PER_ENTRY * entries, grown / entries


# bytes a run may retain per trajectory point when nearly every point is a
# free-flow step: storing every position retains about 9.9, the runs about 1.8
_FREE_FLOW_BYTES_PER_POINT = 3


def test_free_flow_run_memory_per_point():
    # 50 platoons, each 1000 steps in free flow on a 100 km link
    nodes, links = single_link_texts(length=100000.0)
    world = make_world(nodes, links, DEMAND_HEADER + "\nA,B,0,5000,0.05\n", duration=10000.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(world)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    points = sum(len(p.trajectory) for p in world.platoons)
    assert points == 50 * 1000
    assert grown <= _FREE_FLOW_BYTES_PER_POINT * points, grown / points


# bytes the trajectories may retain per hop on a chain of 50 m links, one
# explicit point per link: a run header per hop retains 26.2, where a
# (point index, link name) tuple per hop retained about 70
_TRAJECTORY_BYTES_PER_HOP = 40


def test_hop_heavy_trajectory_memory_per_hop():
    # 80 links of 50 m: a platoon crosses one per step, capped at its end
    nodes = [NodeSpec(f"n{k}", 50.0 * k, 0.0) for k in range(81)]
    links = [LinkSpec(f"n{k}-n{k + 1}", f"n{k}", f"n{k + 1}", 50.0, 20.0, 0.2) for k in range(80)]
    world = build_world(SimConfig(duration=3000.0), nodes, links,
                        [DemandSpec("n0", "n80", 0.0, 2400.0, 0.2)])
    tracemalloc.start()
    try:
        run(world)
        with_trajectories = tracemalloc.get_traced_memory()[0]
        hops = sum(len(p.trajectory.passages()) for p in world.platoons)
        for platoon in world.platoons:
            platoon.trajectory = None
        retained = with_trajectories - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(world.platoons) == 96 and hops == 96 * 80
    assert retained <= _TRAJECTORY_BYTES_PER_HOP * hops, retained / hops


# bytes a World build may retain per destination and link on the 12x12
# lattice: routing rows of 8-byte weights and 1-byte applied counts retain
# about 21; keeping every reaching node's free-flow cost for every
# destination retained about 36
_BUILD_BYTES_PER_DESTINATION_LINK = 28


def test_world_build_memory_per_destination_link():
    nodes, links, demand = lattice_csvs(0, size=12, destinations=123, bands=300)
    nodes, links, demands = parse_nodes(nodes), parse_links(links), parse_demand(demand)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = build_world(SimConfig(duration=5400.0), nodes, links, demands)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    destination_links = len(world.attractiveness.B) * len(world.links)
    assert destination_links == 123 * 528
    assert grown <= _BUILD_BYTES_PER_DESTINATION_LINK * destination_links, (
        grown / destination_links
    )


# bytes the link log may retain per logical record (one per link per step)
# when at most a tenth of the links ever hold platoons; storing every
# record retains about 32
_SPARSE_LINK_LOG_BYTES_PER_RECORD = 4


def _two_way_chain_world(duration: float, band_end: float, **config):
    """20 two-way 500 m segments (40 links); one band from n0 uses only n0-n1 and n1-n2."""
    nodes = [NodeSpec(f"n{k}", 500.0 * k, 0.0) for k in range(21)]
    links = [
        LinkSpec(f"n{a}-n{b}", f"n{a}", f"n{b}", 500.0, 20.0, 0.2)
        for k in range(20) for a, b in ((k, k + 1), (k + 1, k))
    ]
    config = SimConfig(duration=duration, **config)
    return build_world(config, nodes, links, [DemandSpec("n0", "n2", 0.0, band_end, 0.3)])


def test_link_update_runs_where_platoons_are_or_were(monkeypatch):
    """Each step updates, in link order, the links that hold platoons now or
    held them at the previous step, and stores the records of those whose
    count, entered or mean_speed bits changed; step 0 updates and stores
    every link."""
    world = _two_way_chain_world(600.0, 300.0)
    calls = []
    update_link = engine.update_link

    def counted(link, dt):
        calls.append(link.id)
        return update_link(link, dt)

    monkeypatch.setattr(engine, "update_link", counted)
    records = world.log.link_records
    per_step = []
    kept = 0  # updated links whose record did not change
    previous = None
    while world.clock < world.total_steps:
        start = len(records.link)
        calls.clear()
        step(world)
        rows = [_bits(row[2:5]) for row in _live_link_tuples(world)]
        if previous is None:
            assert calls == list(range(len(rows)))
            assert list(records.link[start:]) == calls
        else:
            assert calls == [j for j, row in enumerate(rows) if row[0] or previous[j][0]]
            stored = [j for j in calls if rows[j] != previous[j]]
            assert list(records.link[start:]) == stored
            kept += len(calls) - len(stored)
        previous = rows
        per_step.append(len(calls))
    assert len(world.links) == 40
    assert {link.name for link in world.links if link.entered_count} == {"n0-n1", "n1-n2"}
    # step 0 stores every link; once the band has run off, nothing is updated
    assert per_step[0] == 40
    assert max(per_step[1:]) == 2
    assert per_step[-1] == 0
    assert kept > 0


def test_link_log_memory_follows_traffic():
    world = _two_way_chain_world(3600.0, 3000.0, platoon_size=1)
    tracemalloc.start()
    try:
        run(world)
        with_log = tracemalloc.get_traced_memory()[0]
        records = len(world.log.link_records)
        world.log.link_records = None
        retained = with_log - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < sum(1 for link in world.links if link.entered_count) <= len(world.links) // 10
    assert records == 3600 * 40
    assert retained <= _SPARSE_LINK_LOG_BYTES_PER_RECORD * records, retained / records
