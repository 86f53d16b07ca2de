"""In-memory span recorder and the wrappers that time mesosim's layers.

A span is one call at a layer boundary: its name, start, end and the
span that was open when it began (its parent). Spans live in flat arrays
while the operation runs and are written out once it ends. A layer's
self time is its spans' total duration minus the time covered by their
child spans.

`install` wraps the public calls into each module by patching module
attributes, so the package under test is not edited. The engine imports
`update_link` and `generate_demand` by name, so those two are patched on
`mesosim.engine`; every other call is patched on the module that the
caller looks it up on.

Counting that the wrappers do themselves (node-transfer attempts) runs
inside `trace.count` spans, which keeps it out of every layer's self
time; all wrapper cost together shows as `trace.overhead_s`.
"""

from __future__ import annotations

import csv
from array import array
from time import perf_counter

from mesosim import analyzer, cli, engine, node_transfer, routing, scenario

NO_PARENT = -1


class Tracer:
    """Spans of one traced operation, all sharing one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [NO_PARENT]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(span)
        self.start.append(perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._open.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """(total seconds, self seconds, calls) per span name."""
        child_time = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                child_time[parent] += self.end[span] - self.start[span]
        out = {name: [0.0, 0.0, 0] for name in self.names}
        for span, name_id in enumerate(self.name):
            duration = self.end[span] - self.start[span]
            entry = out[self.names[name_id]]
            entry[0] += duration
            entry[1] += duration - child_time[span]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in out.items()}

    def write(self, path: str) -> None:
        """One CSV row per span; times in seconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["run_id", "span", "parent", "name", "start_s", "end_s"])
            names = self.names
            run_id = self.run_id
            for span, (name_id, parent, start, end) in enumerate(
                zip(self.name, self.parent, self.start, self.end)
            ):
                writer.writerow(
                    [run_id, span, parent, names[name_id], f"{start - t0:.9f}", f"{end - t0:.9f}"]
                )


def _spanned(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        span = tracer.begin(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(span)

    return wrapper


def install(tracer: Tracer) -> None:
    """Patch every traced call; meant for a process that runs one operation."""
    for name in ("parse_nodes", "parse_links", "parse_demand"):
        setattr(scenario, name, _spanned(tracer, "scenario.parse", getattr(scenario, name)))
    scenario.build_world = _spanned(tracer, "scenario.build_world", scenario.build_world)
    engine.run = _spanned(tracer, "engine.run", engine.run)
    engine.step = _spanned(tracer, "engine.step", engine.step)
    engine.generate_demand = _spanned(tracer, "engine.generate_demand", engine.generate_demand)
    analyzer.export_csv = _spanned(tracer, "analyzer.export_csv", analyzer.export_csv)
    analyzer.basic_stats = _spanned(tracer, "analyzer.basic_stats", analyzer.basic_stats)
    analyzer.mfd_points = _spanned(tracer, "analyzer.mfd_points", analyzer.mfd_points)
    cli.render_mfd_svg = _spanned(tracer, "svgplot.render_mfd_svg", cli.render_mfd_svg)
    routing.choose_outgoing = _spanned(
        tracer, "routing.choose_outgoing", routing.choose_outgoing
    )

    update_link = engine.update_link
    update_id = tracer.name_id("kinematics.update_link")

    def traced_update_link(link, dt):
        tracer.add("kinematics.platoon_advances", len(link.platoons))
        span = tracer.begin(update_id)
        try:
            return update_link(link, dt)
        finally:
            tracer.finish(span)

    engine.update_link = traced_update_link

    maybe_refresh = routing.maybe_refresh
    refresh_id = tracer.name_id("routing.maybe_refresh")

    def traced_maybe_refresh(world, i):
        trees = world.attractiveness.tree_computations
        span = tracer.begin(refresh_id)
        try:
            return maybe_refresh(world, i)
        finally:
            tracer.finish(span)
            if world.attractiveness.tree_computations != trees:
                tracer.add("routing.refreshes", 1)

    routing.maybe_refresh = traced_maybe_refresh

    process_node = node_transfer.process_node
    signal_permits = node_transfer.signal_permits
    process_id = tracer.name_id("node_transfer.process_node")
    count_id = tracer.name_id("trace.count")

    def traced_process_node(node, world, t, rng):
        span = tracer.begin(count_id)
        # the competitors process_node will give one attempt each
        attempts = 1 if world.waiting.get(node.name) else 0
        for link in node.incoming:
            platoons = link.platoons
            if platoons:
                head = platoons[0]
                if (
                    head.x >= link.length
                    and head.destination != node.name
                    and signal_permits(node.spec, t, link.name)
                ):
                    attempts += 1
        running = world.running_count
        tracer.finish(span)
        span = tracer.begin(process_id)
        try:
            events = process_node(node, world, t, rng)
        finally:
            tracer.finish(span)
        tracer.add("node_transfer.attempts", attempts)
        # a move is a link-to-link event or an origin-queue insertion
        tracer.add("node_transfer.moves", len(events) + world.running_count - running)
        return events

    node_transfer.process_node = traced_process_node
