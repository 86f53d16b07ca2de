"""Link dynamics: platoon motion and link-level instantaneous quantities.

Each platoon bundles a fixed number of vehicles and moves along a link
according to a discretized car-following rule with two regimes:

    X(t + dt) = min(X(t) + u*dt,  X_leader(t) - delta*dn)

i.e. free flow capped by the leader's previous position minus the jam
footprint of one platoon. Because the time step equals reaction_time *
platoon_size, the congested branch needs exactly the one-step-old leader
position, so updates run front-to-back against a pre-update snapshot.

The triangular flow-density relation this induces has capacity
u / (u*tau + delta) at the critical density, with congested waves moving
backward at delta/tau.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, repeat
from math import copysign
from operator import sub, truediv

from .errors import ConsistencyError
from .scenario import LinkSpec

_SPACING_TOL = 1e-9
V_MIN = 1.0  # speed floor, m/s, for link costs (see instantaneous_travel_time)
# the kinds of a trajectory run, the low two bits of its header (see Trajectory)
EXPLICIT, FREE, STAND = 0, 1, 2


def _same_bits(x: float, y: float) -> bool:
    """Whether x and y are one float, the sign of zero included."""
    return x == y and (x != 0.0 or copysign(1.0, x) == copysign(1.0, y))


class Trajectory:
    """A platoon's logged positions, one per step spent on a link, kept as runs.

    Points run without a gap from insertion to arrival or the horizon, so
    the k-th point is stamped (first + k) * dt, the end time of step
    first + k - 1. hops lists one (point index, link name) entry per link
    entered: points from that index up to the next entry's were logged on
    that link. len() counts points.

    A point's previous position is the point before it, or 0.0 at a hop's
    first point, where process_node puts the platoon. The motion rule fixes
    most points from it: a free-flow step adds the link's u * dt and a
    standing step repeats it, bit for bit. Only the other points keep their
    position (explicit points): capped steps that moved, a first point
    logged before any hop, and a hop's first point when the platoon did not
    start it at 0.0. update_link logs each point by its kind, and data
    holds one entry per run of a kind: a header, count * 4 + kind, then a
    free run's u * dt or an explicit run's positions (a standing run has no
    payload). hop() closes the open run, so no run spans a hop; mark < 0
    until a point follows the last hop. The last run may be open: mark is
    its header's index, and run counts its free (run > 0) or standing
    (run < 0) steps, so update_link extends an open free run by run + 1
    alone. positions() replays the runs with the step loop's float
    additions; speeds(dt) derives the speeds from them.
    """

    __slots__ = ("first", "hops", "data", "size", "run", "mark")

    def __init__(self):
        self.first = 0
        self.hops: list[tuple[int, str]] = []
        self.data = array("d")
        self.size = 0  # points in closed runs and in an open explicit run
        self.run = 0
        self.mark = -1

    def __len__(self):
        return self.size + abs(self.run)

    def _close(self):
        """Write the open run's header; the next point opens a run."""
        run = self.run
        if run > 0:
            self.data[self.mark] = run * 4 + FREE
            self.size += run
        elif run:
            self.data[self.mark] = -run * 4 + STAND
            self.size -= run
        self.run = 0
        self.mark = -1

    def _open(self, kind: int):
        if self.run:
            self._close()
        self.mark = len(self.data)
        self.data.append(kind)

    def explicit(self, x: float):
        """Log a point by its position."""
        if self.run or self.mark < 0:
            self._open(EXPLICIT)
        self.data[self.mark] += 4
        self.data.append(x)
        self.size += 1

    def free(self, x: float, before: float, move: float):
        """Log a free-flow step, x = before + move, where no free run is open."""
        # the sign of a zero before leaves before + move unchanged
        if self.mark < 0 and (before != 0.0 or not self.hops):
            self.explicit(x)
            return
        self._open(FREE)
        self.data.append(move)
        self.run = 1

    def capped(self, x: float, before: float):
        """Log a capped step: a standing step if x is before's float, else explicit."""
        # most capped steps move, and x != before tells them without a call
        if x != before or not _same_bits(x, before) or (
            self.mark < 0 and not (self.hops and _same_bits(before, 0.0))
        ):
            self.explicit(x)
        elif self.run < 0:
            self.run -= 1
        else:
            self._open(STAND)
            self.run = -1

    def hop(self, link_name: str):
        """Record that the next point is the first on link_name."""
        self._close()
        self.hops.append((self.size, link_name))

    def positions(self) -> list[float]:
        """Every point's position, in order, as update_link set it."""
        data = self.data
        starts = {start for start, _link in self.hops}
        open_at = self.mark if self.run else -1  # an open run's header is written at its close
        x: list[float] = []
        end = len(data)
        i = 0
        while i < end:
            header = int(data[i])
            kind = header & 3
            count = abs(self.run) if i == open_at else header >> 2
            i += 1
            if kind == EXPLICIT:
                x += data[i:i + count]
                i += count
                continue
            previous = 0.0 if len(x) in starts else x[-1]
            if kind == FREE:
                # one addition per step, as update_link made them
                move = data[i]
                x.extend(accumulate(repeat(move, count - 1), initial=previous + move))
                i += 1
            else:
                x.extend(repeat(previous, count))
        return x

    def segments(self):
        """(start, end, link) per hop: points start..end-1 were logged on link."""
        ends = [start for start, _link in self.hops[1:]]
        ends.append(len(self))
        for (start, link), end in zip(self.hops, ends):
            yield start, end, link

    def speeds(self, dt: float, x: list[float] | None = None):
        """Per point, (x - previous x) / dt, with 0.0 before a hop's first point.

        x is positions(), computed here when not given.
        """
        if x is None:
            x = self.positions()
        before = [0.0, *x]  # one longer than x: a hop may await its first point
        for start, _link in self.hops:
            before[start] = 0.0
        return map(truediv, map(sub, x, before), repeat(dt))

    def rows(self, dt: float):
        """(t, link, x, v) per point, in order."""
        x = self.positions()
        speeds = self.speeds(dt, x)
        for start, end, link in self.segments():
            for step, position, v in zip(range(self.first + start, self.first + end),
                                         x[start:end], speeds):
                yield step * dt, link, position, v


class Platoon:
    """A group of platoon_size vehicles simulated as one moving unit.

    Position x is measured in meters from the start of the current link.
    The trajectory logs each link entered and, as update_link sets x, the
    position at the end of every step on a link; insertion was at
    (trajectory.first - 1) * dt. States: waiting (in an origin queue),
    running (on a link), arrived, stranded (unfinished at horizon end).
    """

    __slots__ = (
        "id",
        "origin",
        "destination",
        "depart_t",
        "state",
        "x",
        "arrival_t",
        "next_choice",
        "trajectory",
    )

    def __init__(self, pid: int, origin: str, destination: str, depart_t: float):
        self.id = pid
        self.origin = origin
        self.destination = destination
        self.depart_t = depart_t
        self.state = "waiting"
        self.x = 0.0
        self.arrival_t: float | None = None
        # outgoing link chosen at the current node; kept until the node is crossed
        self.next_choice: LinkState | None = None
        self.trajectory = Trajectory()

    def __repr__(self):
        return (
            f"Platoon(id={self.id}, {self.origin}->{self.destination}, "
            f"state={self.state}, x={self.x:.1f})"
        )


class LinkState:
    """Runtime state of one link: its spec plus the platoons currently on it.

    platoons[0] is the front platoon (nearest the link end); new entrants
    append at the back with x = 0. entered_count / exited_count are
    cumulative platoon counts used for cumulative-curve analysis; id is the
    link's position in link order, set by engine.index_nodes.
    """

    __slots__ = (
        "spec",
        "id",
        "name",
        "length",
        "u",
        "spacing",
        "platoons",
        "entered_count",
        "exited_count",
        "mean_speed",
    )

    def __init__(self, spec: LinkSpec, platoon_size: int):
        self.spec = spec
        self.name = spec.name
        self.length = spec.length
        self.u = spec.free_flow_speed
        # minimum front-to-back gap between consecutive platoons
        self.spacing = spec.jam_spacing * platoon_size
        self.platoons: deque[Platoon] = deque()
        self.entered_count = 0
        self.exited_count = 0
        self.mean_speed = spec.free_flow_speed

    def __repr__(self):
        return f"LinkState({self.name}, platoons={len(self.platoons)})"


def update_link(link: LinkState, dt: float) -> LinkState:
    """Move every platoon on the link one step forward, front-to-back.

    Each platoon advances against its leader's pre-update position; the
    front platoon is capped at the link length and waits there for a
    node transfer. Each new x is the platoon's one trajectory point for the
    step, logged by the branch that set it: a free-flow step extends an open
    free run by a count alone, a capped step is a standing step when it
    keeps x_old's float and an explicit position otherwise (see
    Trajectory). The link's mean speed is refreshed (free-flow speed when
    empty) from the speeds (x_new - x_old) / dt, which Trajectory.speeds
    derives again from the replayed positions.
    """
    platoons = link.platoons
    if not platoons:
        link.mean_speed = link.u
        return link
    length = link.length
    free_move = link.u * dt
    spacing = link.spacing
    min_gap = spacing - _SPACING_TOL
    leader_x_old = None
    leader_x_new = 0.0
    speed_sum = 0.0
    for platoon in platoons:
        x_old = platoon.x
        x_new = x_free = x_old + free_move
        if leader_x_old is None:
            if x_new > length:
                x_new = length
        else:
            bound = leader_x_old - spacing
            if bound < x_new:
                x_new = bound
            if x_new < x_old:
                x_new = x_old
            if leader_x_new - x_new < min_gap:
                raise ConsistencyError(
                    f"link {link.name}: spacing violated between platoons at "
                    f"{leader_x_new:.3f} and {x_new:.3f} (minimum {spacing})"
                )
        speed_sum += (x_new - x_old) / dt
        platoon.x = x_new
        trajectory = platoon.trajectory
        if x_new is not x_free:  # a cap set it
            trajectory.capped(x_new, x_old)
        elif (run := trajectory.run) > 0:
            trajectory.run = run + 1
        else:
            trajectory.free(x_new, x_old, free_move)
        leader_x_old = x_old
        leader_x_new = x_new
    link.mean_speed = speed_sum / len(platoons)
    return link


def instantaneous_travel_time(link: LinkState) -> float:
    """Current cost of traversing the link, seconds.

    Empty links cost their free-flow time; otherwise length over the mean
    of the platoon speeds logged in the latest step, floored at V_MIN:
    a fully stopped link has mean speed 0, and the floor makes its cost
    length / V_MIN, large but finite, instead of a division by zero.
    """
    if not link.platoons:
        return link.length / link.u
    v_bar = link.mean_speed
    if v_bar < V_MIN:
        v_bar = V_MIN
    return link.length / v_bar
