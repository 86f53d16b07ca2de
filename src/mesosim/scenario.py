"""Scenario data model and CSV ingestion.

A scenario is three CSV files (nodes, links, demand) plus a global
configuration. All types here are immutable; ``build_world`` (or
``engine.World`` directly, the same constructor) cross-checks them and
assembles the mutable simulation state.

CSV formats (UTF-8, comma-separated, exact headers):

    nodes:  name,x,y[,signal]
    links:  name,from,to,length,free_flow_speed,jam_density,merge_priority
    demand: orig,dest,start_t,end_t,flow

The optional signal cell uses the grammar ``offset:dur1:linkA|linkB;dur2:linkC``
(semicolon-separated phases, pipe-separated permitted incoming links).
An empty cell means the node is unsignalized.

Each rule is checked once, in the type that owns it. The spec types check
their own fields however they are built: names as non-empty strings,
finite numbers, signal phases as (duration, frozenset of link names)
pairs of positive duration that permit a link. SimConfig checks the step count
(in [1, 2**52]), World the rules across records. Every parse failure is
a ParseError naming its data row (blank rows are not counted, as in the
World's demand rows); the CLI adds the file.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

DEFAULT_MERGE_PRIORITY = 0.5
# Below this many steps, consecutive step times i * dt are distinct floats
# (ulp(i * dt) < dt); above it they can collide.
_MAX_STEPS = 2**52
# a step count within this of a whole number counts as that number
_STEP_TOL = 1e-9


def left_sum(values) -> float:
    """Float total added left to right.

    Builtin sum() compensates float addition on Python 3.12+, which can
    move the last bits away from results recorded on earlier versions.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):  # not a real number, or an int beyond float range
        return False


def _require_finite(owner: str, spec, *fields: str) -> None:
    for name in fields:
        value = getattr(spec, name)
        if not _is_finite(value):
            raise ValidationError(f"{owner}{name} must be finite, got {value!r}")


def _require_names(owner: str, spec, *fields: str) -> None:
    for name in fields:
        value = getattr(spec, name)
        if not isinstance(value, str):
            raise ValidationError(f"{owner}{name} must be a string, got {value!r}")
        if not value:
            raise ValidationError(f"{owner}{name} must not be empty")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SimConfig:
    """Global simulation parameters.

    Attributes
    ----------
    reaction_time : float
        Per-vehicle following lag in seconds. Together with ``platoon_size``
        it sets the time step: dt = reaction_time * platoon_size.
    platoon_size : int
        Number of vehicles aggregated into one simulated platoon.
    duration : float
        Simulated horizon in seconds. The World rounds it up to a whole
        number of time steps if needed (see ``horizon``).
    seed : int
        Seed for the single RNG stream that drives all stochastic choices.
    route_update_interval : int
        Shortest-path refresh period, in time steps.
    route_weight : float
        Smoothing weight in [0, 1] blending the new shortest-path indicator
        into link attractiveness (1 = follow the latest tree exactly).
    """

    reaction_time: float = 1.0
    platoon_size: int = 5
    duration: float = 3600.0
    seed: int = 0
    route_update_interval: int = 60
    route_weight: float = 0.5

    def __post_init__(self):
        _require_finite("", self, "reaction_time", "duration", "route_weight")
        if self.reaction_time <= 0:
            raise ValidationError("reaction_time must be positive")
        if not _is_count(self.platoon_size):
            raise ValidationError("platoon_size must be a positive integer")
        if not _is_count(self.route_update_interval):
            raise ValidationError("route_update_interval must be a positive integer")
        if not 0.0 <= self.route_weight <= 1.0:
            raise ValidationError("route_weight must lie in [0, 1]")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        try:
            dt = self.time_step
        except OverflowError:  # platoon_size beyond float range
            dt = math.inf
        if dt == math.inf:
            raise ValidationError("time step reaction_time * platoon_size overflows")
        steps = self.duration / dt
        if steps <= _STEP_TOL:
            raise ValidationError(
                f"duration {self.duration:.6g} s rounds to zero time steps of {dt:.6g} s"
            )
        if steps > _MAX_STEPS:
            raise ValidationError(
                f"step count duration / time step = {steps:.6g} overflows the limit {_MAX_STEPS}"
            )

    @property
    def time_step(self) -> float:
        """Simulation step width dt = reaction_time * platoon_size, seconds."""
        return self.reaction_time * self.platoon_size


@dataclass(frozen=True)
class SignalPlan:
    """Fixed-time signal: a tuple of cyclic (duration, frozenset of permitted links) phases."""

    phases: tuple[tuple[float, frozenset[str]], ...]
    offset: float = 0.0

    def __post_init__(self):
        _require_finite("signal ", self, "offset")
        if not (isinstance(self.phases, tuple) and self.phases):
            raise ValidationError(f"signal plan needs a tuple of phases, got {self.phases!r}")
        for phase in self.phases:
            if not (isinstance(phase, tuple) and len(phase) == 2):
                raise ValidationError(f"signal phase {phase!r} is not a (duration, links) pair")
            dur, links = phase
            if not (_is_finite(dur) and dur > 0.0):
                raise ValidationError("signal phase durations must be positive and finite")
            if not (isinstance(links, frozenset) and all(isinstance(n, str) for n in links)):
                raise ValidationError(
                    f"signal phase links must be a frozenset of names, got {links!r}"
                )
            if not links:
                raise ValidationError("every signal phase must permit at least one link")

    @property
    def cycle(self) -> float:
        return left_sum(dur for dur, _ in self.phases)


@dataclass(frozen=True)
class NodeSpec:
    """A network node; x/y are plot coordinates only."""

    name: str
    x: float
    y: float
    signal: SignalPlan | None = None

    def __post_init__(self):
        _require_names("node ", self, "name")
        _require_finite(f"node {self.name}: ", self, "x", "y")


@dataclass(frozen=True)
class LinkSpec:
    """A directed road segment with triangular-FD parameters."""

    name: str
    from_node: str
    to_node: str
    length: float
    free_flow_speed: float
    jam_density: float
    merge_priority: float = DEFAULT_MERGE_PRIORITY

    def __post_init__(self):
        _require_names("link ", self, "name")
        _require_names(f"link {self.name}: ", self, "from_node", "to_node")
        fields = ("length", "free_flow_speed", "jam_density", "merge_priority")
        _require_finite(f"link {self.name}: ", self, *fields)
        if self.from_node == self.to_node:
            raise ValidationError(f"link {self.name}: self-loops are not allowed")
        if self.length <= 0:
            raise ValidationError(f"link {self.name}: length must be positive")
        if self.free_flow_speed <= 0:
            raise ValidationError(f"link {self.name}: free_flow_speed must be positive")
        if self.jam_density <= 0:
            raise ValidationError(f"link {self.name}: jam_density must be positive")
        if self.merge_priority <= 0:
            raise ValidationError(f"link {self.name}: merge_priority must be positive")

    @property
    def jam_spacing(self) -> float:
        """Minimum per-vehicle spacing at standstill, meters (1/jam_density)."""
        return 1.0 / self.jam_density


@dataclass(frozen=True)
class DemandSpec:
    """A constant-rate demand band between one origin-destination pair."""

    origin: str
    destination: str
    t_start: float
    t_end: float
    flow: float

    def __post_init__(self):
        _require_names("demand ", self, "origin", "destination")
        _require_finite("demand ", self, "t_start", "t_end", "flow")
        if self.origin == self.destination:
            raise ValidationError("demand origin and destination must differ")
        if self.t_start >= self.t_end:
            raise ValidationError("demand band needs t_start < t_end")
        if self.t_start < 0:
            raise ValidationError("demand t_start must be non-negative")
        if self.flow < 0:
            raise ValidationError("demand flow must be non-negative")


def _float_field(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"field {name!r}: {raw!r} is not a number") from None


def _at_row(row_idx: int, build, *args):
    """build(*args); a ValidationError it raises becomes a ParseError at row_idx."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ParseError(row_idx, str(exc)) from None


def _csv_rows(text: str):
    """Yield (row number, cells), header row 0, blank rows skipped; bad CSV raises ParseError."""
    rows = csv.reader(io.StringIO(text))
    idx = 0
    try:
        for row in rows:
            if not idx or any(cell.strip() for cell in row):
                yield idx, row
                idx += 1
    except csv.Error as exc:
        raise ParseError(idx, f"malformed CSV: {exc}") from None


def _records(text: str, header: list[str], build, optional: list[str] | None = None):
    """Yield build(*cells) per non-blank data row, its trimmed cells in header order.

    The header must be exact, so a cell's column is its position; cells
    past the header's are dropped, and a missing optional cell is left to
    build's default. Errors name the row.
    """
    rows = _csv_rows(text)
    try:
        found = [h.strip() for h in next(rows)[1]]
    except StopIteration:
        raise ParseError(0, "empty file, header row missing") from None
    allowed = header + (optional or [])
    if found[: len(header)] != header or found not in (header, allowed):
        raise ParseError(0, f"expected header {','.join(allowed)!r}, got {','.join(found)!r}")
    width = len(found)
    for idx, row in rows:
        if len(row) < len(header) or len(row) > len(allowed):
            raise ParseError(idx, f"expected {len(header)}-{len(allowed)} fields, got {len(row)}")
        yield _at_row(idx, build, *[cell.strip() for cell in row[:width]])


def _signal_plan(cell: str) -> SignalPlan:
    head, sep, rest = cell.partition(":")
    if not sep:
        raise ValidationError(f"signal {cell!r}: missing ':' after offset")
    offset = _float_field("signal offset", head)
    phases = []
    for phase_text in rest.split(";"):
        dur_text, sep, links_text = phase_text.partition(":")
        if not sep:
            raise ValidationError(f"signal phase {phase_text!r}: missing ':' after duration")
        links = frozenset(name.strip() for name in links_text.split("|") if name.strip())
        phases.append((_float_field("signal phase duration", dur_text), links))
    return SignalPlan(phases=tuple(phases), offset=offset)


def parse_signal(cell: str, row_idx: int) -> SignalPlan:
    """Parse ``offset:dur1:linkA|linkB;dur2:linkC`` into a SignalPlan; errors name row_idx."""
    return _at_row(row_idx, _signal_plan, cell)


def _node(name: str, x: str, y: str, signal: str = "") -> NodeSpec:
    return NodeSpec(
        name=name,
        x=_float_field("x", x),
        y=_float_field("y", y),
        signal=_signal_plan(signal) if signal else None,
    )


def parse_nodes(text: str) -> list[NodeSpec]:
    """Parse the nodes CSV; the World rejects repeated names."""
    return list(_records(text, ["name", "x", "y"], _node, optional=["signal"]))


def _link(name: str, from_node: str, to_node: str, length: str, free_flow_speed: str,
          jam_density: str, merge_priority: str) -> LinkSpec:
    return LinkSpec(
        name=name,
        from_node=from_node,
        to_node=to_node,
        length=_float_field("length", length),
        free_flow_speed=_float_field("free_flow_speed", free_flow_speed),
        jam_density=_float_field("jam_density", jam_density),
        merge_priority=(
            _float_field("merge_priority", merge_priority)
            if merge_priority else DEFAULT_MERGE_PRIORITY
        ),
    )


def parse_links(text: str) -> list[LinkSpec]:
    """Parse the links CSV. A blank merge_priority falls back to the default.

    The World rejects repeated names.
    """
    header = ["name", "from", "to", "length", "free_flow_speed", "jam_density", "merge_priority"]
    return list(_records(text, header, _link))


def _demand(orig: str, dest: str, start_t: str, end_t: str, flow: str) -> DemandSpec:
    return DemandSpec(
        origin=orig,
        destination=dest,
        t_start=_float_field("start_t", start_t),
        t_end=_float_field("end_t", end_t),
        flow=_float_field("flow", flow),
    )


def parse_demand(text: str) -> list[DemandSpec]:
    """Parse the demand CSV into DemandSpec rows in file order."""
    return list(_records(text, ["orig", "dest", "start_t", "end_t", "flow"], _demand))


def horizon(config: SimConfig) -> float:
    """config.duration, rounded up to a whole number of time steps if needed."""
    dt = config.time_step
    steps = config.duration / dt
    if abs(steps - round(steps)) <= _STEP_TOL:
        return config.duration
    adjusted = math.ceil(steps - _STEP_TOL) * dt
    log.info(
        "duration %.6g s is not a multiple of the %.6g s time step; rounded up to %.6g s",
        config.duration,
        dt,
        adjusted,
    )
    return adjusted


def build_world(
    config: SimConfig,
    nodes: list[NodeSpec],
    links: list[LinkSpec],
    demands: list[DemandSpec],
):
    """Assemble the simulation World, whose constructor cross-checks the scenario."""
    from .engine import World  # deferred: engine depends on scenario types

    return World(config, nodes, links, demands)
