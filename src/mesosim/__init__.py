"""Mesoscopic network traffic simulation with reactive route choice.

Typical use: parse the three scenario CSVs, build a world, run it, then
analyze or export.

    from mesosim import SimConfig, parse_nodes, parse_links, parse_demand
    from mesosim import build_world, run, basic_stats

    world = build_world(SimConfig(seed=1, duration=3600.0),
                        parse_nodes(nodes_csv),
                        parse_links(links_csv),
                        parse_demand(demand_csv))
    run(world)
    print(basic_stats(world.log, world))
"""

from .analyzer import (
    MFDPoint,
    TripStats,
    basic_stats,
    cumulative_counts,
    export_csv,
    mfd_points,
    time_space_points,
)
from .engine import RunLog, World, run, step
from .errors import (
    ConsistencyError,
    DisconnectedPath,
    DuplicateNode,
    MesosimError,
    ParseError,
    UnknownLink,
    UnknownNode,
    UnreachableDemand,
    ValidationError,
)
from .scenario import (
    DemandSpec,
    LinkSpec,
    NodeSpec,
    SignalPlan,
    SimConfig,
    build_world,
    parse_demand,
    parse_links,
    parse_nodes,
    parse_signal,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DemandSpec",
    "DisconnectedPath",
    "DuplicateNode",
    "LinkSpec",
    "MFDPoint",
    "MesosimError",
    "NodeSpec",
    "ParseError",
    "RunLog",
    "SignalPlan",
    "SimConfig",
    "TripStats",
    "UnknownLink",
    "UnknownNode",
    "UnreachableDemand",
    "ValidationError",
    "World",
    "basic_stats",
    "build_world",
    "cumulative_counts",
    "export_csv",
    "mfd_points",
    "parse_demand",
    "parse_links",
    "parse_nodes",
    "parse_signal",
    "run",
    "step",
    "time_space_points",
]
