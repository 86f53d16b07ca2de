"""Command-line entry point: load CSVs, simulate, export tables and plots.

Exit codes: 0 on success, 1 on bad scenario input (a parse failure names
its file and row), 2 on IO problems, a closed stdout included, or on
running out of memory, 3 on an engine bug (``internal error:``). The
final stdout line is machine-parseable:

    trips=<int> ttt=<float>s delay=<float>s wall=<float>s

wall times engine.run only, not reading, parsing, export or plotting.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import analyzer, engine, scenario, svgplot
from .errors import ConsistencyError, MesosimError, ParseError, ValidationError

# horizon appended after the last demand band when --duration is omitted,
# so trips in flight at the end of demand can finish
DEFAULT_COOLDOWN = 1800.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesosim",
        description=(
            "Mesoscopic network traffic simulator. Reads a scenario from three "
            "CSV files, runs it, and writes analysis tables (and optional SVG "
            "plots) into the output directory. Command-line values override "
            "configuration defaults."
        ),
    )
    parser.add_argument("--nodes", required=True, help="nodes CSV (name,x,y[,signal])")
    parser.add_argument(
        "--links",
        required=True,
        help="links CSV (name,from,to,length,free_flow_speed,jam_density,merge_priority)",
    )
    parser.add_argument(
        "--demand", required=True, help="demand CSV (orig,dest,start_t,end_t,flow)"
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--deltan", type=int, default=None, help="vehicles per platoon")
    parser.add_argument("--tau", type=float, default=None, help="reaction time, s/veh")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=(
            "simulated horizon in seconds; defaults to the latest demand end "
            f"plus a {DEFAULT_COOLDOWN:.0f} s cool-down"
        ),
    )
    parser.add_argument(
        "--route-interval", type=int, default=None, help="route refresh period, steps"
    )
    parser.add_argument(
        "--route-weight", type=float, default=None, help="route smoothing weight in [0,1]"
    )
    parser.add_argument(
        "--plot-tsd",
        metavar="LINK,LINK,...",
        default=None,
        help="write tsd.svg: trajectories along the given corridor links",
    )
    parser.add_argument(
        "--plot-mfd", action="store_true", help="write mfd.svg: network density vs flow"
    )
    parser.add_argument(
        "--plot-cumulative",
        metavar="LINK",
        default=None,
        help="write cumulative_<LINK>.svg: cumulative entry/exit counts",
    )
    return parser


def render_tsd_svg(polylines, out_path: str, corridor: list[str]) -> str:
    """Time-space diagram: one polyline per platoon along a corridor."""
    t_max = 1.0
    x_max = 1.0
    for points in polylines.values():
        for t, x in points:
            t_max = max(t_max, t)
            x_max = max(x_max, x)
    chart = svgplot.Chart(
        (0.0, t_max),
        (0.0, x_max),
        f"Trajectories along {','.join(corridor)}",
        "time (s)",
        "distance (m)",
    )
    for idx, pid in enumerate(sorted(polylines)):
        color = svgplot.PALETTE[idx % len(svgplot.PALETTE)]
        chart.polyline(polylines[pid], color, width=1.0, opacity=0.75)
    return svgplot.write_chart(chart, out_path)


def render_mfd_svg(points, out_path: str) -> str:
    """Density-flow scatter with a chronological trace to expose loops.

    points is mfd_points output, which always holds at least one bin.
    """
    d_max = max(p.density for p in points)
    f_max = max(p.flow for p in points)
    chart = svgplot.Chart(
        (0.0, d_max),
        (0.0, f_max),
        "Network density vs flow",
        "density (veh/m)",
        "flow (veh/s)",
    )
    trace = [(p.density, p.flow) for p in points]
    chart.polyline(trace, "#bbbbbb", width=1.0)
    for p in points:
        chart.circle(p.density, p.flow, 3.0, svgplot.PALETTE[0])
    return svgplot.write_chart(chart, out_path)


def render_cumulative_svg(series, link: str, out_path: str) -> str:
    """Cumulative entered/exited vehicle counts for one link."""
    t_max = max([t for t, _a, _d in series], default=1.0)
    y_max = max([a for _t, a, _d in series], default=1.0)
    chart = svgplot.Chart(
        (0.0, t_max),
        (0.0, y_max),
        f"Cumulative counts on {link}",
        "time (s)",
        "vehicles",
    )
    chart.polyline([(t, a) for t, a, _d in series], svgplot.PALETTE[0], width=1.5)
    chart.polyline([(t, d) for t, _a, d in series], svgplot.PALETTE[1], width=1.5)
    chart.text(svgplot.WIDTH - 150, svgplot.MARGIN_TOP + 16, "entered")
    chart.text(svgplot.WIDTH - 150, svgplot.MARGIN_TOP + 34, "exited")
    return svgplot.write_chart(chart, out_path)


def _load(parse, path: str) -> list:
    """parse(the text of path); a failure to decode or parse it names the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except UnicodeDecodeError as exc:
        raise MesosimError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except ParseError as exc:
        raise MesosimError(f"{path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        nodes = _load(scenario.parse_nodes, args.nodes)
        links = _load(scenario.parse_links, args.links)
        demands = _load(scenario.parse_demand, args.demand)
        duration = args.duration
        if duration is None:
            latest = max((d.t_end for d in demands), default=0.0)
            duration = latest + DEFAULT_COOLDOWN
        overrides = {"seed": args.seed, "duration": duration}
        if args.deltan is not None:
            overrides["platoon_size"] = args.deltan
        if args.tau is not None:
            overrides["reaction_time"] = args.tau
        if args.route_interval is not None:
            overrides["route_update_interval"] = args.route_interval
        if args.route_weight is not None:
            overrides["route_weight"] = args.route_weight
        config = scenario.SimConfig(**overrides)
        world = scenario.build_world(config, nodes, links, demands)
        # the plot links are checked on the log before the run, so a bad one writes nothing
        if args.plot_tsd is not None:
            corridor = [name.strip() for name in args.plot_tsd.split(",") if name.strip()]
            if not corridor:
                raise ValidationError("--plot-tsd names no link")
            analyzer.time_space_points(world.log, corridor)
        if args.plot_cumulative is not None:
            analyzer.cumulative_counts(world.log, args.plot_cumulative)
            if any(sep and sep in args.plot_cumulative for sep in (os.sep, os.altsep)):
                raise ValidationError(
                    f"link {args.plot_cumulative!r} holds a path separator, so "
                    f"--plot-cumulative cannot name its plot file"
                )

        t0 = time.perf_counter()
        engine.run(world)
        wall = time.perf_counter() - t0

        mfd = analyzer.mfd_points(world.log, world, analyzer.export_bin(world.log))
        analyzer.export_csv(world.log, world, args.out, mfd)
        if args.plot_tsd is not None:
            polylines = analyzer.time_space_points(world.log, corridor)
            render_tsd_svg(polylines, os.path.join(args.out, "tsd.svg"), corridor)
        if args.plot_mfd:
            render_mfd_svg(mfd, os.path.join(args.out, "mfd.svg"))
        if args.plot_cumulative is not None:
            series = analyzer.cumulative_counts(world.log, args.plot_cumulative)
            render_cumulative_svg(
                series,
                args.plot_cumulative,
                os.path.join(args.out, f"cumulative_{args.plot_cumulative}.svg"),
            )
        stats = analyzer.basic_stats(world.log, world)
        print(
            f"trips={stats.completed_trips} "
            f"ttt={format(stats.total_travel_time, '.6g')}s "
            f"delay={format(stats.total_delay, '.6g')}s "
            f"wall={wall:.3f}s",
            flush=True,
        )
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MesosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # the summary is still buffered; without this its flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError:
        print("error: out of memory: the scenario is too large for this process", file=sys.stderr)
        return 2
    return 0


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
