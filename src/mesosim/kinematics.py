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
from itertools import repeat
from operator import sub, truediv

from .errors import ConsistencyError
from .scenario import LinkSpec

_SPACING_TOL = 1e-9
V_MIN = 1.0  # speed floor, m/s, for link costs (see instantaneous_travel_time)


class Trajectory:
    """A platoon's logged positions, one per step spent on a link, as a column.

    x holds the positions, appended by update_link as it moves the platoon.
    Points run without a gap from insertion to arrival or the horizon, so
    the k-th point is stamped (first + k) * dt, the end time of step
    first + k - 1. hops lists one (point index, link name) entry per link
    entered: points from that index up to the next entry's were logged on
    that link. Speeds are not stored: speeds(dt) derives them from x and hops.
    """

    __slots__ = ("first", "x", "hops")

    def __init__(self):
        self.first = 0
        self.x = array("d")
        self.hops: list[tuple[int, str]] = []

    def __len__(self):
        return len(self.x)

    def segments(self):
        """(start, end, link) per hop: points start..end-1 were logged on link."""
        ends = [start for start, _link in self.hops[1:]]
        ends.append(len(self.x))
        for (start, link), end in zip(self.hops, ends):
            yield start, end, link

    def speeds(self, dt: float):
        """Per point, (x - previous x) / dt; the previous x of a hop's first point is 0.0."""
        x = self.x
        before = array("d", (0.0,)) + x  # one longer than x: a hop may await its first point
        for start, _link in self.hops:
            before[start] = 0.0
        return map(truediv, map(sub, x, before), repeat(dt))

    def rows(self, dt: float):
        """(t, link, x, v) per point, in order."""
        speeds = self.speeds(dt)
        for start, end, link in self.segments():
            for step, x, v in zip(range(self.first + start, self.first + end),
                                  self.x[start:end], speeds):
                yield step * dt, link, x, v


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
    node transfer. Each new x is appended to the platoon's trajectory, its
    one point for the step. The link's mean speed is refreshed (free-flow
    speed when empty) from the speeds (x_new - x_old) / dt, which
    Trajectory.speeds derives again from the logged positions.
    """
    platoons = link.platoons
    if not platoons:
        link.mean_speed = link.u
        return link
    length = link.length
    free_move = link.u * dt
    spacing = link.spacing
    leader_x_old = None
    leader_x_new = 0.0
    speed_sum = 0.0
    for platoon in platoons:
        x_old = platoon.x
        x_new = x_old + free_move
        if leader_x_old is None:
            if x_new > length:
                x_new = length
        else:
            bound = leader_x_old - spacing
            if bound < x_new:
                x_new = bound
            if x_new < x_old:
                x_new = x_old
            if leader_x_new - x_new < spacing - _SPACING_TOL:
                raise ConsistencyError(
                    f"link {link.name}: spacing violated between platoons at "
                    f"{leader_x_new:.3f} and {x_new:.3f} (minimum {spacing})"
                )
        v = (x_new - x_old) / dt
        platoon.x = x_new
        platoon.trajectory.x.append(x_new)
        speed_sum += v
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
