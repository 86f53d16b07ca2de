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
from itertools import accumulate, pairwise, repeat
from operator import sub, truediv

from .errors import ConsistencyError
from .scenario import LinkSpec

_SPACING_TOL = 1e-9
V_MIN = 1.0  # speed floor, m/s, for link costs (see instantaneous_travel_time)
# the kinds of a trajectory run, the low two bits of its header (see Trajectory)
EXPLICIT, FREE, STAND, HOP = 0, 1, 2, 3


class Trajectory:
    """A platoon's logged positions, one per step spent on a link, kept as runs.

    Points run without a gap from insertion to arrival or the horizon, so
    the k-th point is stamped (first + k) * dt, the end time of step
    first + k - 1. len() counts points.

    Every point follows a hop, and process_node starts every hop at +0.0;
    each step then gives x_new >= x_old, so positions stay finite and never
    become -0.0. A point's previous position is the point before it, or 0.0
    at a hop's first point. The motion rule fixes most points from it: a
    free-flow step adds the link's u * dt and a standing step repeats it,
    bit for bit. Only capped steps that moved keep their position (explicit
    points). data holds one entry per run: a header, count * 4 + kind, then
    a free run's u * dt or an explicit run's positions (a standing run has
    no payload). A hop is a run too, link id * 4 + HOP with no payload: the
    points up to the next hop were logged on that link. Readers name links
    from the World's links_by_name, whose keys are in link-id order. _open
    states how the writers keep an open run; _runs() alone reads runs back.
    """

    __slots__ = ("first", "data", "size", "run", "mark")

    def __init__(self):
        self.first = 0
        self.data = array("d")
        self.size = 0  # points in closed runs and in an open explicit run
        self.run = 0
        self.mark = -1

    def __len__(self):
        return self.size + abs(self.run)

    def _open(self, header: int, run: int):
        """Close any open counted run, its count joining its header, and start
        header with run: 1 for a free step, -1 for a standing one, else 0.

        The invariant: mark indexes the header of the last run while it is
        open, and is < 0 from a hop until its first point. An open free
        (run > 0) or standing (run < 0) run keeps its count in run alone, which
        update_link extends; an open explicit run (run == 0) counts each point
        in its header and in size as it comes. No run spans a hop.
        """
        if count := abs(self.run):
            self.data[self.mark] += count * 4
            self.size += count
        self.run = run
        self.mark = len(self.data)
        self.data.append(header)

    def explicit(self, x: float):
        """Log a point by its position."""
        if self.run or self.mark < 0:
            self._open(EXPLICIT, 0)
        self.data[self.mark] += 4
        self.data.append(x)
        self.size += 1

    def hop(self, link):
        """Record that the next point is the first on link, a LinkState of the network."""
        self._open(link.id * 4 + HOP, 0)
        self.mark = -1

    def _runs(self):
        """(kind, count, payload index, points before it) per run; a hop's count is its link id."""
        data = self.data
        open_at = self.mark if self.run else -1  # an open run's header holds no count
        size = len(data)
        i = points = 0
        while i < size:
            header = int(data[i])
            kind = header & 3
            count = abs(self.run) if i == open_at else header >> 2
            i += 1
            yield kind, count, i, points
            if kind != HOP:
                points += count
                i += (count, 1, 0)[kind]  # the payload: EXPLICIT's positions, FREE's u * dt

    def passages(self) -> list[tuple[int, int, int]]:
        """(start, end, link id) per link entered, for points start..end-1, from hops alone."""
        return self._closed([(start, link) for kind, link, _, start in self._runs() if kind == HOP])

    def _closed(self, hops):
        """Each (start, link id) hop as a passage up to the next, the last up to len(self)."""
        return [(start, end, link) for (start, link), (end, _) in pairwise([*hops, (len(self), 0)])]

    def replay(self) -> tuple[list[float], list[tuple[int, int, int]]]:
        """(positions, passages()) in one walk of _runs(): every point's position
        as update_link set it, with the step loop's float additions."""
        data = self.data
        x: list[float] = []
        hops = []  # (start, link id)
        for kind, count, i, before in self._runs():
            if kind == EXPLICIT:
                if count == 1:  # most explicit runs: a capped step between free ones
                    x.append(data[i])
                else:
                    x += data[i:i + count]
            elif kind == HOP:
                hops.append((before, count))
            else:
                previous = 0.0 if before == hops[-1][0] else x[-1]
                if kind == FREE:  # one addition per step, as update_link made them
                    x.extend(accumulate(repeat(data[i], count - 1), initial=previous + data[i]))
                else:
                    x.extend(repeat(previous, count))
        return x, self._closed(hops)

    def speeds(self, dt: float, replayed):
        """Per point, (x - previous x) / dt, with 0.0 before a hop's first point;
        replayed is replay()."""
        x, segments = replayed
        before = [0.0, *x]  # one longer than x: a hop may await its first point
        for start, _end, _link in segments:
            before[start] = 0.0
        return map(truediv, map(sub, x, before), repeat(dt))

    def rows(self, dt: float, names):
        """(t, link name, x, v) per point, in order; names is by link id."""
        replayed = x, segments = self.replay()
        speeds = self.speeds(dt, replayed)
        for start, end, link in segments:
            for step, position, v in zip(range(self.first + start, self.first + end),
                                         x[start:end], speeds):
                yield step * dt, names[link], position, v


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
    node transfer. Every platoon entered the link through a hop at 0.0, as
    process_node puts it (see Trajectory). Each new x is its one trajectory
    point for the step, logged by the branch that set it: a free-flow step,
    or a capped one that kept x_old (standing), extends an open run of its
    kind by a count alone or opens one; a capped step that moved is
    explicit. The link's mean speed is refreshed (free-flow speed when
    empty) from the speeds (x_new - x_old) / dt >= +0.0, never -0.0, which
    Trajectory.speeds derives again from the replayed positions.
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
        if x_new is x_free:
            if (run := trajectory.run) > 0:
                trajectory.run = run + 1
            else:
                trajectory._open(FREE, 1)
                trajectory.data.append(free_move)
        elif x_new != x_old:  # a cap set it, and most capped steps move
            trajectory.explicit(x_new)
        elif (run := trajectory.run) < 0:
            trajectory.run = run - 1
        else:
            trajectory._open(STAND, -1)
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
