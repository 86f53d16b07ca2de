"""Fixed-step simulation loop: clock, demand generation, and phase order.

Each step runs four phases in a fixed sequence:

1. route refresh (on cadence),
2. node phase: arrivals, transfers and insertions, node by node in list order,
3. link pass, in link order: each link's consistency check, then, for a
   link that holds platoons now or held them at the previous step, its
   update (kinematics.update_link moves the platoons and logs their
   positions) and its record, stamped with the step's end time (see
   RunLog), stored only when it changed. A link empty at both steps keeps
   its free-flow mean speed and its record. A stored record holds count,
   mean_speed and entered; the check fixes exited = entered - count (see
   LinkRecords).
4. demand generation into origin waiting queues, then the conservation check.

All randomness flows through one seeded generator consumed in this
deterministic order, so a scenario plus a seed fixes every output bit.
Within a step, the node phase reads positions produced by the previous
link pass; a platoon created in phase 4 is first considered for
insertion in the next step's node phase.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice, pairwise, repeat
from operator import sub

from . import node_transfer, routing
from .errors import (
    ConsistencyError,
    DuplicateNode,
    UnknownNode,
    UnreachableDemand,
    ValidationError,
)
from .kinematics import LinkState, Platoon, update_link
from .routing import AttractivenessTable
from .scenario import DemandSpec, LinkSpec, NodeSpec, SimConfig, horizon, left_sum

_ACC_TOL = 1e-9
# total platoons a scenario's demand may ask for; each one is kept in memory.
# It also bounds every link's count and entered, which LinkRecords stores
# as array("i").
MAX_PLATOONS = 10**6


class NodeRuntime:
    """A node plus its resolved incoming/outgoing link states.

    id is its position in node order; in_arcs, the (link id, tail node id)
    pair of each incoming link, is what route searches walk.
    """

    __slots__ = ("spec", "id", "name", "incoming", "outgoing", "in_arcs")

    def __init__(self, spec: NodeSpec, node_id: int):
        self.spec = spec
        self.id = node_id
        self.name = spec.name
        self.incoming: list[LinkState] = []
        self.outgoing: list[LinkState] = []
        self.in_arcs: tuple[tuple[int, int], ...] = ()

    def __repr__(self):
        return f"NodeRuntime({self.name}, in={len(self.incoming)}, out={len(self.outgoing)})"


def index_nodes(nodes: list[NodeSpec], links: list[LinkState]) -> dict[str, NodeRuntime]:
    """The network index: name -> NodeRuntime in node order; link ids by link order."""
    runtimes = {spec.name: NodeRuntime(spec, node_id) for node_id, spec in enumerate(nodes)}
    for link_id, link in enumerate(links):
        link.id = link_id
        runtimes[link.spec.from_node].outgoing.append(link)
        runtimes[link.spec.to_node].incoming.append(link)
    for node in runtimes.values():
        node.in_arcs = tuple((link.id, runtimes[link.spec.from_node].id) for link in node.incoming)
    return runtimes


@dataclass(frozen=True)
class TransferEvent:
    """One platoon hop between two links at time t (see RunLog.transfer_events)."""

    t: float
    platoon_id: int
    from_link: str
    to_link: str


class LinkRecords:
    """One record per link per step, stored only when it changes.

    A stored record is a link's count and entered (platoons) as array("i")
    and mean_speed as array("d"); exited is entered - count, which step()
    checks. step() stores every link at step 0, then each link whose
    count, entered or mean_speed differs from its last stored record, held
    in last_count, last_entered and last_speed; a link left out of a step
    repeats it. Records are step-major, in link-id order within a step, with
    the id in link; ends[s] is where step s's records stop. steps() is the
    one reader of link and ends, and the one place that carries records
    forward. len() counts every logical record.
    """

    __slots__ = ("n_links", "link", "count", "mean_speed", "entered", "ends", "last_count",
                 "last_entered", "last_speed")

    def __init__(self, n_links: int):
        self.n_links = n_links
        self.link = array("i")
        self.count = array("i")
        self.mean_speed = array("d")
        self.entered = array("i")
        self.ends = array("q")
        self.last_count = [-1] * n_links  # no count is negative: step 0 stores every link
        self.last_entered, self.last_speed = [0] * n_links, [0.0] * n_links

    def __len__(self):
        return self.n_links * len(self.ends)

    def steps(self):
        """Per step, the ids it stored (in id order) and every link's record after it.

        Yields (ids, count, mean_speed, entered); the last three are lists by
        link id, updated in place, so a consumer copies what it keeps.
        """
        count, mean_speed, entered = [0] * self.n_links, [0.0] * self.n_links, [0] * self.n_links
        stored = zip(self.link, self.count, self.mean_speed, self.entered)
        for start, end in zip([0, *self.ends], self.ends):
            for j, c, v, a in islice(stored, end - start):
                count[j], mean_speed[j], entered[j] = c, v, a
            yield self.link[start:end], count, mean_speed, entered


class RunLog:
    """Append-only record of everything the analyzer needs.

    link_records holds one record per link per step, stored when it
    changes (see LinkRecords), stamped with the step end time: step s's
    records are at (s + 1) * dt, and link ids follow links_by_name, the
    World's link index. Counts are in platoon units. platoons is the
    World's platoon list; their trajectories, runs of points and hops (see
    kinematics.Trajectory), are the only record of where each went.
    link_rows() reads the records back through LinkRecords.steps(),
    Trajectory.replay() and rows() the points, and transfer_events their
    passages().
    """

    __slots__ = ("dt", "platoon_size", "duration", "links_by_name", "link_records", "platoons",
                 "sealed")

    def __init__(self, dt: float, platoon_size: int, duration: float, links_by_name, platoons):
        self.dt = dt
        self.platoon_size = platoon_size
        self.duration = duration
        self.links_by_name: dict[str, LinkState] = links_by_name
        self.link_records = LinkRecords(len(links_by_name))
        self.platoons = platoons
        self.sealed = False

    @property
    def transfer_events(self) -> list[TransferEvent]:
        """One event per pair of consecutive passages, by platoon id, then in order.

        Built on each access. A passage that ends at point index k is left at
        (first + k - 1) * dt, the float of the node phase that made the hop.
        """
        dt = self.dt
        names = list(self.links_by_name)
        return [
            TransferEvent((p.trajectory.first + k - 1) * dt, p.id, names[from_id], names[to_id])
            for p in self.platoons
            for (_start, k, from_id), (_k, _end, to_id) in pairwise(p.trajectory.passages())
        ]

    def link_rows(self):
        """(t, link, platoon_count, mean_speed, entered, exited) per record, in order."""
        names = list(self.links_by_name)
        for step, (_ids, count, speed, entered) in enumerate(self.link_records.steps(), 1):
            yield from zip(repeat(step * self.dt), names, count, speed, entered,
                           map(sub, entered, count))


class World:
    """Complete mutable simulation state; the constructor cross-checks the scenario.

    Order: node names, links one by one, signals, demand rows in file order,
    the platoon total (at most MAX_PLATOONS), then at least one link. A
    demand error names its row: row k is the k-th entry of demands.
    free_flow_cost maps each demand (origin, destination) to its free-flow cost (s).
    """

    def __init__(
        self,
        config: SimConfig,
        nodes: list[NodeSpec],
        links: list[LinkSpec],
        demands: list[DemandSpec],
    ):
        nodes, links, demands = list(nodes), list(links), list(demands)
        node_names: set[str] = set()
        for spec in nodes:
            if spec.name in node_names:
                raise DuplicateNode(f"node name {spec.name!r} appears more than once")
            node_names.add(spec.name)
        self.links_by_name: dict[str, LinkState] = {}
        for spec in links:
            link = LinkState(spec, config.platoon_size)
            if link.name in self.links_by_name:
                raise ValidationError(f"link name {link.name!r} appears more than once")
            for end, name in (("from", spec.from_node), ("to", spec.to_node)):
                if name not in node_names:
                    raise UnknownNode(f"link {link.name}: unknown {end} node {name!r}")
            if link.length <= link.spacing:
                raise ValidationError(
                    f"link {link.name}: length {link.length} m cannot admit one platoon "
                    f"(needs more than {link.spacing} m)"
                )
            self.links_by_name[link.name] = link
        self.links = list(self.links_by_name.values())

        self.config = config
        self.duration = duration = horizon(config)
        dt = config.time_step
        self.total_steps = int(round(duration / dt))
        self.demands = demands

        self.nodes_by_name = index_nodes(nodes, self.links)
        for node in self.nodes_by_name.values():
            plan = node.spec.signal
            if plan is None:
                continue
            incoming = {link.name for link in node.incoming}
            permitted = set().union(*(phase_links for _, phase_links in plan.phases))
            unknown = permitted - incoming
            if unknown:
                raise ValidationError(
                    f"node {node.name}: signal permits {sorted(unknown)} which are "
                    f"not incoming links of this node"
                )
            missing = incoming - permitted
            if missing:
                raise ValidationError(
                    f"node {node.name}: incoming links {sorted(missing)} appear in no signal phase"
                )

        origins = dict.fromkeys(d.origin for d in demands)
        self.waiting: dict[str, deque[Platoon]] = {origin: deque() for origin in origins}
        # destinations that are not nodes get no row; the demand check reports them
        self.attractiveness = AttractivenessTable(
            (d.destination for d in demands if d.destination in node_names),
            list(self.nodes_by_name.values()), config.route_weight,
        )
        self.accumulators = [0.0] * len(demands)
        self.platoons: list[Platoon] = []

        self.arrived_platoons = 0
        self.stranded_platoons = 0
        self.running_count = 0

        self.rng = random.Random(config.seed)
        self.clock = 0
        self.log = RunLog(dt, config.platoon_size, duration, self.links_by_name, self.platoons)
        # the free-flow pass: the weight-1 blend into zero rows writes 1.0 on each
        # tree link, and each demand pair's cost is read as its tree is built (None
        # where no path leads there, which the row check below reports)
        pairs = {}  # destination -> origin node of each of its demand rows
        for d in demands:
            if d.origin in node_names:
                pairs.setdefault(d.destination, []).append(self.nodes_by_name[d.origin])
        self.free_flow_cost: dict[tuple[str, str], float] = {}
        for z, dist, chosen in routing.build_trees(self):
            for j in chosen:
                self.attractiveness.B[z].values[j] = 1.0
            for origin in pairs.get(z, ()):
                self.free_flow_cost[origin.name, z] = dist[origin.id]
        for row, d in enumerate(self.demands, start=1):
            if d.origin not in node_names:
                raise UnknownNode(f"demand row {row}: origin {d.origin!r} is not a node")
            if d.destination not in node_names:
                raise UnknownNode(f"demand row {row}: destination {d.destination!r} is not a node")
            if d.t_end > duration:
                raise ValidationError(
                    f"demand row {row}: band ends at {d.t_end} s, beyond the {duration} s horizon"
                )
            if d.t_end - d.t_start < dt:
                raise ValidationError(
                    f"demand row {row}: band {d.t_start}-{d.t_end} s is shorter than "
                    f"the {dt} s time step"
                )
            if self.free_flow_cost[d.origin, d.destination] is None:
                raise UnreachableDemand(
                    f"demand row {row}: no directed path from {d.origin!r} to {d.destination!r}"
                )
        vehicles = left_sum(d.flow * (d.t_end - d.t_start) for d in self.demands)
        platoons = vehicles / config.platoon_size
        if platoons > MAX_PLATOONS:
            raise ValidationError(f"demand asks for {platoons:.6g} platoons, over {MAX_PLATOONS}")
        if not self.links:
            raise ValidationError("the scenario has no links")

    def counts(self) -> dict[str, int]:
        """Platoon totals by state, for conservation checks and stats."""
        return {
            "generated": len(self.platoons),
            "waiting": sum(map(len, self.waiting.values())),
            "running": self.running_count,
            "arrived": self.arrived_platoons,
            "stranded": self.stranded_platoons,
        }


def generate_demand(world: World, t: float) -> None:
    """Accumulate active demand bands and emit whole platoons.

    The step [t, t + dt) adds flow * dt vehicles to each band that covers
    it, and flow times the overlap to a band that starts or ends inside
    it; every time an accumulator reaches one platoon's worth, a waiting
    platoon is created at the band's origin with depart_t = t. Fractions
    carry over, so a band releases flow * (t_end - t_start) vehicles,
    rounded down to whole platoons.
    """
    cfg = world.config
    dt = cfg.time_step
    dn = cfg.platoon_size
    t_next = t + dt
    accumulators = world.accumulators
    for idx, demand in enumerate(world.demands):
        if t >= demand.t_start:
            if t_next <= demand.t_end:
                vehicles = demand.flow * dt
            elif t < demand.t_end:  # the band ends inside this step
                vehicles = demand.flow * (demand.t_end - t)
            else:
                continue
        elif t_next > demand.t_start:  # the band starts inside this step
            vehicles = demand.flow * (min(t_next, demand.t_end) - demand.t_start)
        else:
            continue
        acc = accumulators[idx] + vehicles
        while acc >= dn - _ACC_TOL:
            acc -= dn
            platoon = Platoon(len(world.platoons), demand.origin, demand.destination, t)
            world.platoons.append(platoon)
            world.waiting[demand.origin].append(platoon)
        accumulators[idx] = acc


def step(world: World) -> World:
    """Advance one time step: four phases; the link update and record share one pass."""
    i = world.clock
    if i >= world.total_steps:
        raise ConsistencyError("step called past the simulation horizon")
    dt = world.config.time_step
    t = i * dt

    routing.maybe_refresh(world, i)

    rng = world.rng
    for node in world.nodes_by_name.values():
        node_transfer.process_node(node, world, t, rng)

    records = world.log.link_records
    last_count, last_entered = records.last_count, records.last_entered
    last_speed = records.last_speed
    log_link = records.link.append
    log_count = records.count.append
    log_speed = records.mean_speed.append
    log_entered = records.entered.append
    for j, link in enumerate(world.links):
        count = len(link.platoons)
        entered = link.entered_count
        exited = link.exited_count
        # count >= 0, so this also rules out entered < exited
        if entered - exited != count:
            raise ConsistencyError(
                f"link {link.name}: entered {entered} / exited {exited} "
                f"inconsistent with {count} platoons on link"
            )
        if count or last_count[j]:
            update_link(link, dt)
            speed = link.mean_speed
            if count != last_count[j] or entered != last_entered[j] or speed != last_speed[j]:
                log_link(j)
                log_count(count)
                log_speed(speed)
                log_entered(entered)
                last_count[j], last_entered[j], last_speed[j] = count, entered, speed
    records.ends.append(len(records.link))

    generate_demand(world, t)

    counts = world.counts()
    if counts["generated"] != counts["waiting"] + counts["running"] + counts["arrived"]:
        raise ConsistencyError(f"platoon conservation violated: {counts}")

    world.clock = i + 1
    return world


def run(world: World) -> World:
    """Step to the horizon, mark unfinished platoons stranded, seal the log.

    A world whose log is already sealed is returned unchanged.
    """
    if world.log.sealed:
        return world
    while world.clock < world.total_steps:
        step(world)
    for queue in world.waiting.values():
        for platoon in queue:
            platoon.state = "stranded"
            world.stranded_platoons += 1
    for link in world.links:
        for platoon in link.platoons:
            platoon.state = "stranded"
            world.stranded_platoons += 1
    world.log.sealed = True
    return world
