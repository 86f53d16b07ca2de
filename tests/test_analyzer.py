"""Trip stats, cumulative curves, network flow measures, CSV export."""

import csv
import math
import os
import tempfile
from itertools import accumulate, cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosim import (
    DemandSpec,
    DisconnectedPath,
    LinkSpec,
    NodeSpec,
    SimConfig,
    UnknownLink,
    ValidationError,
    basic_stats,
    build_world,
    cumulative_counts,
    export_csv,
    mfd_points,
    run,
    time_space_points,
)
from mesosim import analyzer
from mesosim.analyzer import export_bin
from mesosim.kinematics import Trajectory

from conftest import (
    UROBOROS_DURATION,
    UROBOROS_RING,
    chain_texts,
    make_world,
    random_worlds,
    single_link_texts,
)

DEMAND_HEADER = "orig,dest,start_t,end_t,flow"


def _run_single_link(demand_rows, duration=300.0, length=1000.0, **config):
    nodes, links = single_link_texts(length=length)
    demand = DEMAND_HEADER + "\n" + "".join(f"{r}\n" for r in demand_rows)
    return run(make_world(nodes, links, demand, duration=duration, **config))


def test_stats_single_free_flow_trip():
    world = _run_single_link(["A,B,0,10,0.5"])
    stats = basic_stats(world.log, world)
    dt = world.config.time_step
    assert stats.completed_trips == 5
    assert stats.stranded_trips == 0
    assert abs(stats.average_travel_time - 50.0) <= dt
    assert stats.average_travel_time == pytest.approx(55.0)
    assert stats.total_travel_time == pytest.approx(5 * 55.0)
    # waiting one step at the origin is the only deviation from free flow
    assert 0.0 <= stats.total_delay <= dt * 5
    assert stats.total_delay == pytest.approx(25.0)


def test_stats_zero_demand_run():
    world = _run_single_link([])
    stats = basic_stats(world.log, world)
    assert stats == type(stats)(0, 0, 0.0, 0.0, 0.0)


def test_stats_scale_linearly_with_platoons():
    world = _run_single_link(["A,B,0,20,0.5"])
    stats = basic_stats(world.log, world)
    assert stats.completed_trips == 10
    assert stats.total_travel_time == pytest.approx(2 * 5 * 55.0)


def test_stats_count_stranded_to_horizon(bottleneck_run):
    world = bottleneck_run
    stats = basic_stats(world.log, world)
    dn = world.config.platoon_size
    assert stats.stranded_trips == world.stranded_platoons * dn
    expected = 0.0
    for p in world.platoons:
        if p.state == "arrived":
            expected += p.arrival_t - p.depart_t
        else:
            expected += world.duration - p.depart_t
    assert stats.total_travel_time == pytest.approx(expected * dn)


def test_cumulative_unused_link_is_zero():
    world = _run_single_link([])
    curve = cumulative_counts(world.log, "AB")
    assert len(curve) == world.total_steps
    assert all((a, d) == (0, 0) for _t, a, d in curve)


def test_cumulative_full_band_balances():
    world = _run_single_link(["A,B,0,1200,0.4"], duration=1500.0)
    curve = cumulative_counts(world.log, "AB")
    t_end, a_end, d_end = curve[-1]
    assert (a_end, d_end) == (480, 480)
    assert t_end == pytest.approx(1500.0)


def test_cumulative_monotone_and_ordered(uroboros_default_run):
    log = uroboros_default_run.log
    for name in log.links_by_name:
        prev_a = prev_d = 0
        for _t, a, d in cumulative_counts(log, name):
            assert a >= d
            assert a >= prev_a and d >= prev_d
            prev_a, prev_d = a, d


def test_cumulative_matches_full_scan(uroboros_default_run):
    log = uroboros_default_run.log
    dn = log.platoon_size
    for link in log.links_by_name:
        scanned = [
            (t, entered * dn, exited * dn)
            for t, name, _count, _speed, entered, exited in log.link_rows()
            if name == link
        ]
        assert cumulative_counts(log, link) == scanned


def test_cumulative_unknown_link():
    world = _run_single_link([])
    with pytest.raises(UnknownLink):
        cumulative_counts(world.log, "nope")


def test_cumulative_discharge_slope_is_capacity(bottleneck_run):
    world = bottleneck_run
    curve = {t: d for t, _a, d in cumulative_counts(world.log, "FM")}
    slope = (curve[2500.0] - curve[1000.0]) / 1500.0
    assert slope == pytest.approx(0.8, rel=0.05)


def test_area_rule_matches_trip_times():
    """Link vehicle-time equals total travel time minus origin waiting."""
    world = _run_single_link(["A,B,0,1200,0.4"], duration=1500.0)
    dt = world.config.time_step
    dn = world.config.platoon_size
    area = 0.0
    for name in world.links_by_name:
        for _t, a, d in cumulative_counts(world.log, name):
            area += (a - d) * dt
    stats = basic_stats(world.log, world)
    waiting = sum((p.trajectory.first - 1) * dt - p.depart_t for p in world.platoons) * dn
    assert area == pytest.approx(stats.total_travel_time - waiting, abs=dt * dn)


def test_mfd_empty_network():
    world = _run_single_link([], duration=1200.0)
    points = mfd_points(world.log, world, 300.0)
    assert len(points) == 4
    assert [p.t_bin for p in points] == [0.0, 300.0, 600.0, 900.0]
    assert all(p.density == 0.0 and p.flow == 0.0 for p in points)


def test_mfd_bins_end_at_a_bin_multiple_horizon():
    # 162 steps of this dt are 6 bins of 27 steps; as floats 162 * dt / (27 * dt) > 6
    dt = 2.2391783682256916 * 5
    world = _run_single_link(["A,B,0,30,0.5"], duration=162 * dt, reaction_time=dt / 5)
    assert world.total_steps == 162
    points = mfd_points(world.log, world, 27 * dt)
    assert len(points) == 6
    assert all(math.isfinite(p.density) and math.isfinite(p.flow) for p in points)


def test_mfd_rejects_bad_bins():
    world = _run_single_link([])
    with pytest.raises(ValidationError):
        mfd_points(world.log, world, 7.0)


@pytest.mark.parametrize("bin_s", [math.inf, math.nan, 5e-324, -5.0, 0.0, 7.5],
                         ids=["inf", "nan", "subnormal", "minus-dt", "zero", "one-and-a-half-dt"])
def test_mfd_bin_must_be_whole_steps(bin_s):
    # 5e-324 s rounds to zero steps; inf and nan are no number of steps
    world = _run_single_link([])
    assert world.log.dt == 5.0
    with pytest.raises(ValidationError):
        mfd_points(world.log, world, bin_s)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("off", [5e-10, -5e-10], ids=["over", "under"])
def test_mfd_bins_within_tolerance_match_exact_bins(uroboros_default_run, steps, off):
    # a bin within the 1e-9-step tolerance holds the same steps as the exact
    # bin, the last one included
    world = uroboros_default_run
    dt = world.log.dt
    exact = mfd_points(world.log, world, steps * dt)
    near = mfd_points(world.log, world, (steps + off) * dt)
    assert len(near) == len(exact)
    assert exact[-1].density > 0.0
    for got, want in zip(near, exact):
        assert got.density == pytest.approx(want.density, rel=1e-6)
        assert got.flow == pytest.approx(want.flow, rel=1e-6)


def test_mfd_free_flow_ratio_is_speed():
    world = _run_single_link(["A,B,0,2000,0.4"], duration=2500.0, length=10000.0)
    for point in mfd_points(world.log, world, 500.0):
        if point.density > 1e-4:
            assert point.flow / point.density == pytest.approx(20.0, rel=0.05)


def test_mfd_gridlock_late_bins(uroboros_default_run):
    world = uroboros_default_run
    points = mfd_points(world.log, world, export_bin(world.log))
    late = [p for p in points if p.t_bin >= UROBOROS_DURATION * 0.75]
    assert late
    for point in late:
        assert point.density > 0.05
        assert point.flow < 1e-6


def test_mfd_partial_final_bin_normalized(uroboros_default_run):
    # 5000 s splits into 16 full 300 s bins plus a 200 s remainder; in the
    # locked end state nothing moves, so the short bin must report the same
    # density as its full-width neighbor
    world = uroboros_default_run
    points = mfd_points(world.log, world, 300.0)
    assert len(points) == 17
    assert points[-1].t_bin == pytest.approx(4800.0)
    assert points[-1].density == pytest.approx(points[-2].density, rel=1e-6)


def test_mfd_total_length_adds_left_to_right():
    lengths = [0.1, 0.2, 0.3]
    total = 0.0
    for length in lengths:
        total += length
    assert total != math.fsum(lengths)  # a compensated sum() lands elsewhere
    nodes = "name,x,y\nA,0,0\nB,1,0\nC,2,0\nD,3,0\n"
    links = "name,from,to,length,free_flow_speed,jam_density,merge_priority\n" + "".join(
        f"L{k},{tail},{head},{length},20,100,\n"
        for k, (tail, head, length) in enumerate(zip("ABC", "BCD", lengths))
    )
    demand = DEMAND_HEADER + "\nA,D,0,10,0.5\n"
    world = run(make_world(nodes, links, demand, duration=20.0, reaction_time=1.0, platoon_size=1))
    log = world.log
    vehicle_time = 0.0
    for _t, _name, count, _speed, _entered, _exited in log.link_rows():
        vehicle_time += count * log.platoon_size * log.dt
    assert vehicle_time > 0.0
    (point,) = mfd_points(log, world, world.duration)
    assert point.density == vehicle_time / (total * world.duration)


def test_tsd_offsets_chain_lengths():
    nodes, links = chain_texts()
    world = run(make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,10,0.5\n", duration=300.0))
    polylines = time_space_points(world.log, ["L1", "L2"])
    (points,) = polylines.values()
    assert points[0] == (15.0, 100.0)
    assert points[-1] == (110.0, 2000.0)
    xs = [x for _t, x in points]
    assert xs == sorted(xs)


def test_tsd_partial_traversal_contributes():
    nodes, links = chain_texts()
    world = run(make_world(nodes, links, DEMAND_HEADER + "\nA,C,0,10,0.5\n", duration=300.0))
    polylines = time_space_points(world.log, ["L2"])
    (points,) = polylines.values()
    assert points[0][1] == pytest.approx(100.0)
    assert max(x for _t, x in points) == pytest.approx(1000.0)


def test_tsd_skips_platoons_off_the_corridor():
    # the branch link comes first, so the corridor's hop headers are not small floats
    nodes = "name,x,y\nA,0,0\nB,1000,0\nC,2000,0\nD,0,1000\n"
    links = (
        "name,from,to,length,free_flow_speed,jam_density,merge_priority\n"
        "L3,A,D,1000,20,0.2,\nL1,A,B,1000,20,0.2,\nL2,B,C,1000,20,0.2,\n"
    )
    demand = DEMAND_HEADER + "\nA,C,0,30,0.5\nA,D,0,30,0.5\n"
    world = run(make_world(nodes, links, demand, duration=300.0))
    l2, l3 = world.links_by_name["L2"], world.links_by_name["L3"]
    # a branch platoon whose one logged position is L2's hop header: it
    # enters no corridor link, so it gets no polyline
    probe = Trajectory()
    probe.hop(l2)
    (header,) = probe.data
    fake = next(p for p in world.platoons if p.destination == "D")
    fake.trajectory = Trajectory()
    fake.trajectory.first = 1
    fake.trajectory.hop(l3)
    fake.trajectory.explicit(header)
    offsets = {"L1": 0.0, "L2": 1000.0}
    expected = {}
    names = list(world.links_by_name)
    for p in world.platoons:
        rows = p.trajectory.rows(world.log.dt, names)
        points = [(t, offsets[link] + x) for t, link, x, _v in rows if link in offsets]
        if points:
            expected[p.id] = points
    polylines = time_space_points(world.log, ["L1", "L2"])
    assert polylines == expected
    assert fake.id not in polylines
    assert set(polylines) == {p.id for p in world.platoons if p.destination == "C"}
    assert {p.destination for p in world.platoons} == {"C", "D"}


@settings(max_examples=40, deadline=None)
@given(world=random_worlds(), turns=st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_tsd_matches_rows_on_random_worlds(world, turns):
    """time_space_points along a drawn chain corridor equals the corridor
    points of rows(dt, names), offset by the lengths before their link.

    The corridor starts on a drawn link and takes a drawn outgoing link at
    each head node until it would repeat a link or the head node has none;
    a platoon with no point on it gets no polyline.
    """
    run(world)
    corridor = [world.links[turns[0] % len(world.links)]]
    for turn in turns[1:]:
        onward = world.nodes_by_name[corridor[-1].spec.to_node].outgoing
        if not onward:
            break
        link = onward[turn % len(onward)]
        if link in corridor:
            break
        corridor.append(link)
    lengths = [link.length for link in corridor]
    offsets = dict(zip((link.name for link in corridor), accumulate(lengths, initial=0.0)))
    expected = {}
    names = list(world.links_by_name)
    for p in world.platoons:
        rows = p.trajectory.rows(world.log.dt, names)
        points = [(t, offsets[name] + x) for t, name, x, _v in rows if name in offsets]
        if points:
            expected[p.id] = points
    assert time_space_points(world.log, [link.name for link in corridor]) == expected


def test_tsd_empty_log():
    world = _run_single_link([])
    assert time_space_points(world.log, ["AB"]) == {}
    assert time_space_points(world.log, []) == {}


def test_tsd_rejects_broken_corridors(uroboros_default_run):
    nodes, links = chain_texts()
    world = run(make_world(nodes, links, DEMAND_HEADER + "\n", duration=100.0))
    with pytest.raises(DisconnectedPath):
        time_space_points(world.log, ["L2", "L1"])
    with pytest.raises(UnknownLink):
        time_space_points(world.log, ["L1", "missing"])
    # a closed ring that names its first link again would get two offsets for it
    with pytest.raises(ValidationError, match="link 'WN' appears more than once"):
        time_space_points(uroboros_default_run.log, [*UROBOROS_RING, "WN"])


def test_tsd_gridlock_trajectories_flatten(uroboros_default_run):
    world = uroboros_default_run
    polylines = time_space_points(world.log, list(UROBOROS_RING))
    stuck = 0
    for points in polylines.values():
        if len(points) < 12:
            continue
        tail = [x for _t, x in points[-10:]]
        if max(tail) - min(tail) < 1e-9:
            stuck += 1
    assert stuck > 20  # a locked ring leaves many platoons frozen in place


def test_export_zero_demand(tmp_path):
    world = _run_single_link([], duration=100.0)
    paths = export_csv(world.log, world, str(tmp_path))
    names = [os.path.basename(p) for p in paths]
    assert names == ["vehicles.csv", "links.csv", "summary.csv", "mfd.csv"]
    vehicles = (tmp_path / "vehicles.csv").read_text().splitlines()
    assert vehicles == ["t,platoon_id,orig,dest,link,x,v"]
    links = (tmp_path / "links.csv").read_text().splitlines()
    assert len(links) == 1 + world.total_steps
    assert links[1] == "5,AB,0,20,0,0"
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[1] == "0,0,0,0,0"


def test_export_row_count_matches_activity(tmp_path):
    world = _run_single_link(["A,B,0,200,0.4"], duration=400.0)
    export_csv(world.log, world, str(tmp_path))
    rows = (tmp_path / "vehicles.csv").read_text().splitlines()
    expected = sum(len(p.trajectory) for p in world.platoons)
    assert len(rows) - 1 == expected


def test_export_is_reproducible(tmp_path):
    world = _run_single_link(["A,B,0,200,0.4"], duration=400.0)
    export_csv(world.log, world, str(tmp_path / "one"))
    export_csv(world.log, world, str(tmp_path / "two"))
    for name in ("vehicles.csv", "links.csv", "summary.csv", "mfd.csv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second
        assert b"\r" not in first


def test_export_values_survive_reparsing(tmp_path):
    world = _run_single_link(["A,B,0,200,0.4"], duration=400.0)
    export_csv(world.log, world, str(tmp_path))
    for name in ("links.csv", "mfd.csv", "summary.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # link names
                assert format(value, ".6g") == cell


def test_export_bin_tracks_time_step():
    world = _run_single_link([], duration=1200.0)
    assert export_bin(world.log) == pytest.approx(300.0)
    odd = _run_single_link([], duration=602.0, reaction_time=1.4)
    assert odd.config.time_step == pytest.approx(7.0)
    assert export_bin(odd.log) == pytest.approx(301.0)
    short = _run_single_link([], duration=100.0)
    assert export_bin(short.log) == pytest.approx(100.0)


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _oracle_table(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _oracle_export(log, world, out_dir):
    """The row-at-a-time writer export_csv must match byte for byte."""
    os.makedirs(out_dir, exist_ok=True)
    dn = log.platoon_size
    names = list(world.links_by_name)
    vehicles = (
        [_fmt(t), p.id, p.origin, p.destination, name, _fmt(x), _fmt(v)]
        for p in world.platoons
        for t, name, x, v in p.trajectory.rows(log.dt, names)
    )
    links = (
        [_fmt(t), name, count * dn, _fmt(speed), entered * dn, exited * dn]
        for t, name, count, speed, entered, exited in log.link_rows()
    )
    stats = basic_stats(log, world)
    summary = [stats.completed_trips, stats.stranded_trips, _fmt(stats.total_travel_time),
               _fmt(stats.average_travel_time), _fmt(stats.total_delay)]
    mfd = (
        [_fmt(point.t_bin), _fmt(point.density), _fmt(point.flow)]
        for point in mfd_points(log, world, export_bin(log))
    )
    return [
        _oracle_table(
            out_dir, "vehicles.csv", ["t", "platoon_id", "orig", "dest", "link", "x", "v"], vehicles
        ),
        _oracle_table(out_dir, "links.csv", ["t", "link", "count", "mean_speed", "A", "D"], links),
        _oracle_table(out_dir, "summary.csv", ["completed_trips", "stranded_trips",
                      "total_travel_time", "average_travel_time", "total_delay"], [summary]),
        _oracle_table(out_dir, "mfd.csv", ["t_bin", "density", "flow"], mfd),
    ]


def _explicit_points(world, trajectory, values) -> Trajectory:
    """A trajectory with trajectory's first step and hops whose points are
    the next len(trajectory) values, each logged by its position."""
    points = Trajectory()
    points.first = trajectory.first
    links = list(world.links_by_name.values())  # by link id
    hops = {start: link for start, _end, link in trajectory.passages()}
    for k in range(len(trajectory) + 1):
        if k in hops:
            points.hop(links[hops[k]])
        if k < len(trajectory):
            points.explicit(next(values))
    return points


def _assert_export_matches_oracle(world):
    with tempfile.TemporaryDirectory() as tmp:
        expected = _oracle_export(world.log, world, os.path.join(tmp, "oracle"))
        written = export_csv(world.log, world, os.path.join(tmp, "export"))
        assert [os.path.basename(p) for p in written] == [os.path.basename(p) for p in expected]
        for want, got in zip(expected, written):
            with open(want, "rb") as f_want, open(got, "rb") as f_got:
                assert f_got.read() == f_want.read(), os.path.basename(got)


# zero before negative zero: the two are one dict key but render differently.
# As positions, they give speeds of 0.0, -0.0, nan, inf and -inf wherever hops fall.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, 1e-300, math.inf, 123456789.0, -math.inf, -0.0, 0.0]
NAME_CHARS = st.sampled_from([",", '"', " ", "\r\n", "\r", "\n", "\t", "a", "Z", "é", "北", "'", ";"])


@settings(max_examples=40, deadline=None)
@given(
    # names are never empty: NodeSpec and LinkSpec reject an empty one
    names=st.lists(st.lists(NAME_CHARS, min_size=1, max_size=6).map("".join), min_size=5,
                   max_size=5, unique=True),
    floats=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
)
def test_export_matches_oracle(names, floats):
    a, b, c, ab, bc = names
    world = build_world(
        SimConfig(duration=150.0),
        [NodeSpec(a, 0.0, 0.0), NodeSpec(b, 500.0, 0.0), NodeSpec(c, 1000.0, 0.0)],
        [LinkSpec(ab, a, b, 500.0, 20.0, 0.2), LinkSpec(bc, b, c, 500.0, 20.0, 0.2)],
        [DemandSpec(a, c, 0.0, 60.0, 0.5), DemandSpec(b, c, 0.0, 30.0, 0.5)],
    )
    run(world)
    values = cycle(SPECIAL_FLOATS + floats)
    for p in world.platoons:
        p.trajectory = _explicit_points(world, p.trajectory, values)
    v_column = [v for p in world.platoons
                for v in p.trajectory.speeds(world.log.dt, p.trajectory.replay())]
    assert any(map(math.isnan, v_column)) and math.inf in v_column and -math.inf in v_column
    assert v_column.index(0.0) < list(map(repr, v_column)).index("-0.0")
    # the stored speeds, from the start of the cycle: every record that is
    # not stored repeats one of them in links.csv
    values = cycle(SPECIAL_FLOATS + floats)
    speeds = world.log.link_records.mean_speed
    for k in range(len(speeds)):
        speeds[k] = next(values)
    speed_column = [row[3] for row in world.log.link_rows()]
    assert any(map(math.isnan, speed_column))
    assert math.inf in speed_column and -math.inf in speed_column
    assert speed_column.index(0.0) < list(map(repr, speed_column)).index("-0.0")
    _assert_export_matches_oracle(world)


def test_memo_is_bounded():
    memo = analyzer._Memo(str)
    peak = 0
    for i in range(analyzer._MEMO_LIMIT + 100):
        assert memo[i + 0.5] == str(i + 0.5)
        peak = max(peak, len(memo))
    assert peak == analyzer._MEMO_LIMIT == 65536
    signed = analyzer._Memo(_fmt, keep_zero=False)
    assert [signed[0.0], signed[-0.0], signed[0.0]] == ["0", "-0", "0"]
    assert len(signed) == 0


def test_export_memo_stays_bounded(monkeypatch):
    peak = [0]

    class Recording(analyzer._Memo):
        __slots__ = ()

        def __missing__(self, key):
            text = super().__missing__(key)
            peak[0] = max(peak[0], len(self))
            return text

    monkeypatch.setattr(analyzer, "_Memo", Recording)
    world = _run_single_link(["A,B,0,200,0.4"], duration=400.0)
    n_points = analyzer._MEMO_LIMIT + 5000
    trajectory = Trajectory()
    trajectory.first = world.platoons[0].trajectory.first
    trajectory.hop(world.links_by_name["AB"])
    for i in range(n_points):
        trajectory.explicit(i / 7)
    world.platoons[0].trajectory = trajectory
    _assert_export_matches_oracle(world)
    assert peak[0] == analyzer._MEMO_LIMIT
