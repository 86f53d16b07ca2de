"""The node rule: arrivals and inter-link platoon transfers at nodes.

Per step a node scans each incoming link's head once. A head at the link
end bound for the node arrives, unconditionally. The other heads at the
link end compete: the node draws a processing order over their links by
repeated weighted sampling on merge priorities, then gives each link one
transfer attempt: the head may hop to its chosen outgoing link if that
link has strictly more entrance room than one platoon's jam footprint.
Blocked attempts are normal outcomes; the platoon simply waits.

Origin queues take part in the same competition as a virtual incoming
link with the default merge priority, so demand entering the network
obeys the same space rule as circulating traffic.
"""

from __future__ import annotations

import random

from . import routing
from .kinematics import LinkState, Platoon
from .scenario import DEFAULT_MERGE_PRIORITY, NodeSpec

# weight of an origin waiting queue when competing with incoming links
ORIGIN_QUEUE_PRIORITY = DEFAULT_MERGE_PRIORITY


def vacant_space(link: LinkState) -> float:
    """Entrance room on a link: the rearmost platoon's position, meters.

    An empty link offers its whole length. A platoon may enter only if
    this exceeds the link's per-platoon jam footprint, strictly.
    """
    platoons = link.platoons
    if not platoons:
        return link.length
    return platoons[-1].x


def select_incoming_order(incoming, alphas, rng: random.Random) -> list:
    """Random processing order over incoming links, priority-weighted.

    Draws repeatedly without replacement with probability
    alpha_l / sum(alpha of the not-yet-drawn links), so higher-priority
    links tend to go first but every link is eventually selected.
    """
    remaining = list(incoming)
    weights = list(alphas)
    order = []
    while len(remaining) > 1:
        k = routing.weighted_draw(weights, rng)
        del weights[k]
        order.append(remaining.pop(k))
    order.extend(remaining)
    return order


def signal_permits(node: NodeSpec, t: float, link_name: str) -> bool:
    """Whether the node's signal lets the named incoming link discharge at t.

    Unsignalized nodes always permit. Otherwise the active phase is the
    one covering ((t + offset) mod cycle) in the cyclic phase sequence.
    """
    plan = node.signal
    if plan is None:
        return True
    phase_t = (t + plan.offset) % plan.cycle
    acc = 0.0
    for duration, permitted in plan.phases:
        acc += duration
        if phase_t < acc:
            return link_name in permitted
    # phase_t == cycle can only arise from float roundoff; wraps to phase 0
    return link_name in plan.phases[0][1]


def process_node(node, world, t: float, rng: random.Random) -> list[Platoon]:
    """Run one step of the node rule; returns the platoons that left an incoming link.

    A head at the end of a link into its destination arrives at t, one per
    link per step, with no random draw and no signal check; the platoon
    behind it is then checked as the head. Competitors are the
    signal-permitted links whose head stands at the link end bound
    elsewhere, plus the origin queue when platoons wait. Each gets one
    attempt in the sampled order: the platoon moves to the start of its
    cached outgoing-link choice if the receiver has strictly more entrance
    room than its jam footprint. Each move, insertions too, appends a hop.
    The returned arrivals and transfers serve perfbench's move count: their
    number plus the change in world.running_count is transfers plus insertions.
    """
    moved: list[Platoon] = []
    candidates = []
    weights = []
    for link in node.incoming:
        platoons = link.platoons
        if not platoons:
            continue
        head = platoons[0]
        if head.x >= link.length and head.destination == node.name:
            platoons.popleft()
            link.exited_count += 1
            head.state = "arrived"
            head.arrival_t = t
            world.arrived_platoons += 1
            world.running_count -= 1
            moved.append(head)
            if not platoons:
                continue
            head = platoons[0]
        if head.x < link.length or head.destination == node.name:
            continue
        if not signal_permits(node.spec, t, link.name):
            continue
        candidates.append(link)
        weights.append(link.spec.merge_priority)
    queue = world.waiting.get(node.name)
    if queue:
        candidates.append(None)
        weights.append(ORIGIN_QUEUE_PRIORITY)
    if not candidates:
        return moved

    for source in select_incoming_order(candidates, weights, rng):
        platoon: Platoon = queue[0] if source is None else source.platoons[0]
        target = platoon.next_choice
        if target is None:
            target = routing.choose_outgoing(platoon, node, world.attractiveness, rng)
            platoon.next_choice = target
        if vacant_space(target) > target.spacing:
            trajectory = platoon.trajectory
            if source is None:
                queue.popleft()
                platoon.state = "running"
                world.running_count += 1
                # the first point is logged at the end of this step
                trajectory.first = world.clock + 1
            else:
                source.platoons.popleft()
                source.exited_count += 1
                moved.append(platoon)
            trajectory.hop(target)
            target.platoons.append(platoon)
            target.entered_count += 1
            platoon.x = 0.0
            platoon.next_choice = None
    return moved
