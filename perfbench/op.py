"""One benchmark operation, run in a fresh process: the CLI's whole path.

Reads the three scenario CSVs, parses them and builds the world, runs
the engine, exports the four CSV tables, renders the MFD plot and
computes the trip statistics, the same calls `mesosim --plot-mfd` makes.
It then checks platoon conservation, hashes the outputs and prints one
JSON object: phase times, peak RSS, the deterministic counts and the
output digests. With --spans it also wraps every layer boundary (see
tracing.py), writes the spans to that file and adds per-layer figures.

    python3 perfbench/op.py --inputs DIR --out DIR --seed N --duration S \
        [--route-interval STEPS] [--setup-repeats K] [--spans FILE]

Any failure, including a broken conservation law, ends the process with
a non-zero exit status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mesosim import analyzer, cli, engine, scenario  # noqa: E402

CSV_OUTPUTS = ("vehicles.csv", "links.csv", "mfd.csv", "summary.csv")
OUTPUTS = CSV_OUTPUTS + ("mfd.svg",)


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def setup(args):
    """Read, parse and build: what the CLI does before engine.run."""
    nodes = scenario.parse_nodes(read(os.path.join(args.inputs, "nodes.csv")))
    links = scenario.parse_links(read(os.path.join(args.inputs, "links.csv")))
    demands = scenario.parse_demand(read(os.path.join(args.inputs, "demand.csv")))
    overrides = {"seed": args.seed, "duration": args.duration}
    if args.route_interval is not None:
        overrides["route_update_interval"] = args.route_interval
    config = scenario.SimConfig(**overrides)
    return scenario.build_world(config, nodes, links, demands)


def digest(path: str) -> tuple[str, int, int]:
    """sha256 hex, byte size and line count of a file."""
    h = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines


def layer_figures(tracer, world, counts) -> dict[str, float]:
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    attempts = tracer.counts.get("node_transfer.attempts", 0)
    moves = tracer.counts.get("node_transfer.moves", 0)
    return {
        "scenario.parse_s": total("scenario.parse"),
        "scenario.build_s": total("scenario.build_world"),
        "routing.refresh_s": total("routing.maybe_refresh"),
        "routing.refreshes": tracer.counts.get("routing.refreshes", 0),
        "routing.trees": world.attractiveness.tree_computations,
        "routing.choose_s": total("routing.choose_outgoing"),
        "routing.choices": calls("routing.choose_outgoing"),
        "node_transfer.process_s": self_time("node_transfer.process_node"),
        "node_transfer.calls": calls("node_transfer.process_node"),
        "node_transfer.attempts": attempts,
        "node_transfer.moves": moves,
        "node_transfer.move_ratio": moves / attempts if attempts else 0.0,
        "kinematics.update_s": total("kinematics.update_link"),
        "kinematics.platoon_advances": tracer.counts.get("kinematics.platoon_advances", 0),
        "engine.demand_s": total("engine.generate_demand"),
        "engine.step_self_s": self_time("engine.step"),
        "engine.steps": counts["steps"],
        "engine.trajectory_points": counts["trajectory_points"],
        "engine.link_records": counts["link_records"],
        "engine.transfer_events": counts["transfer_events"],
        "engine.platoons_generated": counts["generated"],
        "engine.platoons_arrived": counts["arrived"],
        "analyzer.export_s": total("analyzer.export_csv"),
        "analyzer.export_rows": counts["export_rows"],
        "analyzer.export_bytes": counts["export_bytes"],
        "analyzer.stats_s": total("analyzer.basic_stats"),
        "analyzer.mfd_s": total("analyzer.mfd_points"),
        "svgplot.plot_s": total("svgplot.render_mfd_svg"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--route-interval", type=int, default=None)
    parser.add_argument("--setup-repeats", type=int, default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(f"{os.path.basename(args.out)}-{os.getpid()}")
        tracing.install(tracer)

    # extra set-ups first; the last one builds the world that runs
    setup_times = []
    for _ in range(args.setup_repeats - 1):
        t0 = time.perf_counter()
        setup(args)
        setup_times.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    world = setup(args)
    t1 = time.perf_counter()
    engine.run(world)
    t2 = time.perf_counter()
    analyzer.export_csv(world.log, world, args.out)
    points = analyzer.mfd_points(world.log, world, analyzer.export_bin(world.log))
    cli.render_mfd_svg(points, os.path.join(args.out, "mfd.svg"))
    stats = analyzer.basic_stats(world.log, world)
    t3 = time.perf_counter()
    setup_times.append(t1 - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    state = world.counts()
    if state["generated"] != state["waiting"] + state["running"] + state["arrived"]:
        sys.exit(f"platoon conservation violated after run: {state}")
    if state["stranded"] != state["waiting"] + state["running"]:
        sys.exit(f"stranded platoons are not the waiting plus running ones: {state}")
    if stats.completed_trips != state["arrived"] * world.config.platoon_size:
        sys.exit(f"basic_stats completed trips disagree with arrivals: {stats} {state}")

    digests = {}
    export_rows = export_bytes = 0
    for name in OUTPUTS:
        digests[name], size, lines = digest(os.path.join(args.out, name))
        if name in CSV_OUTPUTS:
            export_bytes += size
            export_rows += lines - 1
    counts = {
        "steps": world.clock,
        **state,
        "trajectory_points": sum(len(p.trajectory) for p in world.platoons),
        "link_records": len(world.log.link_records),
        "transfer_events": len(world.log.transfer_events),
        "tree_computations": world.attractiveness.tree_computations,
        "export_rows": export_rows,
        "export_bytes": export_bytes,
    }
    result = {
        "times": {
            "wall_s": t3 - t0,
            "setup_s": statistics.median(setup_times),
            "run_s": t2 - t1,
            "peak_rss_mb": peak_rss_mb,
        },
        "counts": counts,
        "digests": digests,
    }
    if tracer is not None:
        layers = layer_figures(tracer, world, counts)
        inserted = state["generated"] - state["waiting"]
        if layers["node_transfer.moves"] != counts["transfer_events"] + inserted:
            sys.exit(
                f"traced moves {layers['node_transfer.moves']} differ from transfer "
                f"events {counts['transfer_events']} plus insertions {inserted}"
            )
        result["layers"] = layers
        tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
