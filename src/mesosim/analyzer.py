"""Post-run analysis: trip statistics, flow measures, and CSV export.

All operations read the sealed run log (plus the finished world where
platoon attributes are needed) and never mutate simulation state, so
they are safe to call repeatedly and in any order.

Network-level density and flow follow the generalized definitions over
a time bin: density is accumulated vehicle-time divided by (total road
length * bin width), flow is accumulated vehicle-distance divided by
the same. On stationary traffic these reduce to the usual point
measures, and their ratio is the space-mean speed.

The readers work on the run log's columns. A stored link record holds
count, mean_speed and entered, and exited is entered - count; a link left
out of a step repeats its last record, which LinkRecords.steps() carries
forward for every record reader: mfd_points sums per step the links that
hold platoons, cumulative_counts reads its own link, and links.csv
re-renders the rows of the links each step stored. A trajectory point's
time and link follow from its step and its passage
(Trajectory.passages(), read without replaying positions), and its
position from Trajectory.replay(), which vehicles.csv runs on every
trajectory and time_space_points on those it draws. The export renders
each distinct number (6 significant digits), step time and name (quoted
by the csv module's rules) once per call, in bounded memos, and writes
each table as pre-rendered lines: one chunk per platoon for vehicles.csv
and one per step for links.csv.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from itertools import chain, islice, repeat

from .errors import DisconnectedPath, UnknownLink, ValidationError
from .scenario import left_sum

DEFAULT_MFD_BIN = 300.0


@dataclass(frozen=True)
class TripStats:
    """Network-wide trip totals, in vehicle units.

    total_travel_time counts waiting at the origin as part of the trip;
    stranded trips contribute the time from departure to the horizon.
    total_delay compares completed trips against the free-flow shortest
    time between their endpoints on an empty network, so it includes
    time lost to detours as well as to queues.
    """

    completed_trips: int
    stranded_trips: int
    total_travel_time: float
    average_travel_time: float
    total_delay: float


@dataclass(frozen=True)
class MFDPoint:
    """One time bin of network mean density (veh/m) and flow (veh/s)."""

    t_bin: float
    density: float
    flow: float


def basic_stats(log, world) -> TripStats:
    """Aggregate per-platoon trip times into network totals."""
    dn = world.config.platoon_size
    duration = world.duration

    baselines = world.free_flow_cost

    completed = 0
    stranded = 0
    total_time = 0.0
    total_delay = 0.0
    for platoon in world.platoons:
        if platoon.state == "arrived":
            trip = platoon.arrival_t - platoon.depart_t
            completed += 1
            total_time += trip
            total_delay += trip - baselines[platoon.origin, platoon.destination]
        elif platoon.state == "stranded":
            stranded += 1
            total_time += duration - platoon.depart_t

    counted = completed + stranded
    average = total_time / counted if counted else 0.0
    return TripStats(
        completed_trips=completed * dn,
        stranded_trips=stranded * dn,
        total_travel_time=total_time * dn,
        average_travel_time=average,
        total_delay=total_delay * dn,
    )


def cumulative_counts(log, link: str) -> list[tuple[float, int, int]]:
    """Per-step cumulative vehicles having entered (A) and left (D) the link.

    Reads the link's record after each step (exited = entered - count).
    """
    state = log.links_by_name.get(link)
    if state is None:
        raise UnknownLink(f"no link named {link!r} in this run")
    j = state.id
    dn = log.platoon_size
    dt = log.dt
    curve = []
    for step, (_ids, count, _speed, entered) in enumerate(log.link_records.steps(), 1):
        a = entered[j] * dn
        curve.append((step * dt, a, a - count[j] * dn))
    return curve


def mfd_points(log, world, bin_s: float) -> list[MFDPoint]:
    """Network density/flow per time bin, generalized over all links.

    bin_s must be a finite whole number of time steps, at least one. The
    last bin may be shorter than bin_s when the horizon is not a bin
    multiple; it is normalized by its actual width.
    """
    dt = log.dt
    steps = bin_s / dt
    if not (math.isfinite(steps) and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9):
        raise ValidationError(f"bin {bin_s} s is not a positive multiple of dt {dt} s")
    total_length = left_sum(link.length for link in log.links_by_name.values())
    duration = log.duration
    per_bin = round(steps)
    # counted in whole steps: float division can add an empty bin at the horizon
    n_bins = max(1, -(-round(duration / dt) // per_bin))
    dn = log.platoon_size
    # each link's (vehicles * dt, vehicles * mean_speed * dt) after the step,
    # None while empty; held lists them in link-id order for the links that hold platoons
    terms = [None] * len(log.links_by_name)
    held = []
    records = log.link_records.steps()
    points = []
    for idx in range(n_bins):
        time_sum = dist_sum = 0.0
        for ids, count, speed, _entered in islice(records, per_bin):
            for j in ids:
                vehicles = count[j] * dn
                terms[j] = (vehicles * dt, vehicles * speed[j] * dt) if vehicles else None
            if ids:
                held = list(filter(None, terms))
            for time_term, dist_term in held:
                time_sum += time_term
                dist_sum += dist_term
        t_bin = idx * bin_s
        norm = total_length * min(bin_s, duration - t_bin)
        points.append(MFDPoint(t_bin=t_bin, density=time_sum / norm, flow=dist_sum / norm))
    return points


def time_space_points(log, link_sequence: list[str]) -> dict[int, list[tuple[float, float]]]:
    """Per-platoon (t, cumulative distance) polylines along a corridor.

    The corridor must chain head to tail and name each link once;
    positions on later links are offset by the preceding lengths. Only the
    passages on the corridor are drawn, so only their platoons are replayed.
    """
    offsets = {}
    previous = None
    for name in link_sequence:
        link = log.links_by_name.get(name)
        if link is None:
            raise UnknownLink(f"no link named {name!r} in this run")
        if link.id in offsets:
            raise ValidationError(f"link {name!r} appears more than once in the corridor")
        if previous is not None and previous.spec.to_node != link.spec.from_node:
            raise DisconnectedPath(f"link {name!r} does not start where {previous.name!r} ends")
        offsets[link.id] = 0.0 if previous is None else offsets[previous.id] + previous.length
        previous = link
    dt = log.dt
    polylines: dict[int, list[tuple[float, float]]] = {}
    for platoon in log.platoons:
        trajectory = platoon.trajectory
        drawn = [(start, end, offsets[link]) for start, end, link in trajectory.passages()
                 if link in offsets and start < end]  # a hop may await its first point
        if drawn:
            positions = trajectory.replay()[0]
            polylines[platoon.id] = [
                (step * dt, offset + x) for start, end, offset in drawn
                for step, x in enumerate(positions[start:end], trajectory.first + start)]
    return polylines


def export_bin(log) -> float:
    """The step multiple nearest the default MFD bin, capped at the horizon."""
    bin_s = max(1, round(DEFAULT_MFD_BIN / log.dt)) * log.dt
    return min(bin_s, log.duration)


# most entries one export memo holds; a full memo is emptied
_MEMO_LIMIT = 65536


class _Memo(dict):
    """render(key) of each distinct key, computed once per export.

    Holds at most _MEMO_LIMIT entries. Zero keys are kept only when
    keep_zero: 0.0 and -0.0 are the same key but render as "0" and "-0".
    """

    __slots__ = ("render", "keep_zero")

    def __init__(self, render, keep_zero: bool = True):
        super().__init__()
        self.render = render
        self.keep_zero = keep_zero

    def __missing__(self, key):
        text = self.render(key)
        if key or self.keep_zero:
            if len(self) >= _MEMO_LIMIT:
                self.clear()
            self[key] = text
        return text


def _fmt(value: float) -> str:
    """Deterministic number rendering: up to 6 significant digits."""
    return format(value, ".6g")


def _csv_field(name: str) -> str:
    """name as the csv module writes it inside a row, quoted if needed."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([name])
    return buffer.getvalue()[:-1]


def _lines(*columns) -> str:
    """CSV lines, each ending in LF, from equal-length columns of rendered cells."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _write_table(out_dir: str, name: str, header: list[str], chunks) -> str:
    """Write a header and pre-rendered lines (UTF-8, LF endings); return the path."""
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(chunks)
    return path


def export_csv(log, world, out_dir: str, mfd: list[MFDPoint] | None = None) -> list[str]:
    """Write vehicles.csv, links.csv, summary.csv, and mfd.csv into out_dir.

    Rendering is deterministic (6 significant digits, LF endings, names
    quoted as the csv module quotes them), so re-exporting the same run
    reproduces the files byte for byte. Each distinct number, step time
    and name is rendered once; the tables are written one platoon
    (vehicles.csv) or one step (links.csv) at a time. mfd.csv holds mfd,
    which must be mfd_points(log, world, export_bin(log)); it is
    computed here when not given.
    """
    os.makedirs(out_dir, exist_ok=True)
    dn = log.platoon_size
    dt = log.dt
    num = _Memo(_fmt, keep_zero=False).__getitem__
    name = _Memo(_csv_field).__getitem__
    scaled = _Memo(lambda count: str(count * dn)).__getitem__  # platoons to vehicles
    step_time = _Memo(lambda step: _fmt(step * dt)).__getitem__  # stamped at the step's end

    names = [name(link) for link in log.links_by_name]  # rendered, by link id

    def vehicles():
        for p in world.platoons:
            trajectory = p.trajectory
            if trajectory:
                ids = f"{p.id},{name(p.origin)},{name(p.destination)}"
                first = trajectory.first
                replayed = x, segments = trajectory.replay()
                on_link = chain.from_iterable(
                    repeat(names[link], end - start) for start, end, link in segments
                )
                yield _lines(map(step_time, range(first, first + len(x))), repeat(ids),
                             on_link, map(num, x), map(num, trajectory.speeds(dt, replayed)))

    def links():
        rows = names[:]  # each link's row after the step time
        for step, (ids, counts, speeds, entered) in enumerate(log.link_records.steps(), 1):
            for j in ids:
                c, a = counts[j], entered[j]
                rows[j] = f"{names[j]},{scaled(c)},{num(speeds[j])},{scaled(a)},{scaled(a - c)}"
            t = step_time(step)
            yield t + "," + f"\n{t},".join(rows) + "\n"

    stats = basic_stats(log, world)
    summary = (
        f"{stats.completed_trips},{stats.stranded_trips},{num(stats.total_travel_time)},"
        f"{num(stats.average_travel_time)},{num(stats.total_delay)}\n"
    )
    if mfd is None:
        mfd = mfd_points(log, world, export_bin(log))
    mfd_lines = [f"{num(point.t_bin)},{num(point.density)},{num(point.flow)}\n" for point in mfd]
    return [
        _write_table(
            out_dir, "vehicles.csv", ["t", "platoon_id", "orig", "dest", "link", "x", "v"],
            vehicles(),
        ),
        _write_table(out_dir, "links.csv", ["t", "link", "count", "mean_speed", "A", "D"], links()),
        _write_table(out_dir, "summary.csv", ["completed_trips", "stranded_trips",
                     "total_travel_time", "average_travel_time", "total_delay"], [summary]),
        _write_table(out_dir, "mfd.csv", ["t_bin", "density", "flow"], mfd_lines),
    ]
