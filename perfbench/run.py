"""mesosim benchmark: the CLI's whole path, one fresh process per operation.

    python3 perfbench/run.py --workload grid --seed 3 --seconds 60 --trace 0

runs operations (op.py) one after another for about --seconds seconds.
Each operation reads the scenario CSVs, parses and builds the world,
runs the engine, exports the tables, renders the MFD plot and computes
trip statistics in a child process; the parent waits for it, so at most
two processes run at once. Every operation's output digests and counts
must equal the reference recorded for the workload and its instance
(seed modulo INSTANCES); a mismatch or an exception is a failed operation.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (medians over the operations). With --trace 1 operations
alternate untraced and traced and the metrics are the per-layer figures
of the traced ones. Other commands:

    python3 perfbench/run.py --record-reference [--workload NAME]
    python3 perfbench/run.py --write-manifest

The first rewrites reference.json from the code as it is; the second
writes BENCHMARK.json from the tables below. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import grid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

RUN_SECONDS = 60
# distinct inputs per workload; any seed maps onto one of them
INSTANCES = 32
# untraced set-ups per operation; setup_s is their median
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0

# name: (scenario directory or None for the generated grid, duration s,
#        route interval in steps or None for the default, why)
WORKLOADS = {
    "sioux_falls": (
        "demos/sioux_falls",
        7200.0,
        120,
        "the paper's real 24-node network; 811k trajectory points make logging and "
        "export the cost while routing barely runs",
    ),
    "grid": (
        None,
        5400.0,
        None,
        "seeded 12x12 lattice, 528 links, 123 destinations: route refresh dominates "
        "run and link records dominate export",
    ),
}

# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

# name, unit, better
PER_LAYER = [
    ("scenario.parse_s", "s", "lower"),
    ("scenario.build_s", "s", "lower"),
    ("routing.refresh_s", "s", "lower"),
    ("routing.refreshes", "count", "lower"),
    ("routing.trees", "count", "lower"),
    ("routing.choose_s", "s", "lower"),
    ("routing.choices", "count", "lower"),
    ("node_transfer.process_s", "s", "lower"),
    ("node_transfer.calls", "count", "lower"),
    ("node_transfer.attempts", "count", "lower"),
    ("node_transfer.moves", "count", "higher"),
    ("node_transfer.move_ratio", "ratio", "higher"),
    ("kinematics.update_s", "s", "lower"),
    ("kinematics.platoon_advances", "count", "lower"),
    ("engine.demand_s", "s", "lower"),
    ("engine.step_self_s", "s", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.trajectory_points", "count", "lower"),
    ("engine.link_records", "count", "lower"),
    ("engine.transfer_events", "count", "higher"),
    ("engine.platoons_generated", "count", "higher"),
    ("engine.platoons_arrived", "count", "higher"),
    ("analyzer.export_s", "s", "lower"),
    ("analyzer.export_rows", "count", "lower"),
    ("analyzer.export_bytes", "bytes", "lower"),
    ("analyzer.stats_s", "s", "lower"),
    ("analyzer.mfd_s", "s", "lower"),
    ("svgplot.plot_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def missing_files() -> list[str]:
    """Files of the program and demos that this directory lacks."""
    needed = ["src/mesosim/__init__.py"]
    for directory, *_ in WORKLOADS.values():
        if directory is not None:
            needed += [f"{directory}/{name}" for name in ("nodes.csv", "links.csv", "demand.csv")]
    return [path for path in needed if not os.path.isfile(os.path.join(ROOT, path))]


def prepare_inputs(workload: str, instance: int, work: str) -> str:
    """Directory holding the workload's three scenario CSVs."""
    directory = WORKLOADS[workload][0]
    if directory is not None:
        return os.path.join(ROOT, directory)
    inputs = os.path.join(work, "inputs")
    grid.write_grid(instance, inputs)
    return inputs


def run_op(workload, instance, inputs, work, setup_repeats, spans, timeout):
    """One operation in a child process: (result dict, None) or (None, error)."""
    _, duration, route_interval, _ = WORKLOADS[workload]
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "op.py"),
        "--inputs", inputs,
        "--out", os.path.join(work, "out"),
        "--seed", str(instance),
        "--duration", repr(duration),
        "--setup-repeats", str(setup_repeats),
    ]
    if route_interval is not None:
        cmd += ["--route-interval", str(route_interval)]
    if spans:
        cmd += ["--spans", os.path.join(work, "spans.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"operation exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return None, tail[0]
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def mismatch(result, reference, first) -> str | None:
    """Why an operation's outputs are wrong, or None when they are right."""
    if reference is None:
        return "no reference recorded for this instance"
    for key in ("digests", "counts"):
        for name, expected in reference[key].items():
            if result[key].get(name) != expected:
                return f"{key[:-1]} {name}: {result[key].get(name)} != reference {expected}"
    if first is not None:
        if result["digests"] != first["digests"] or result["counts"] != first["counts"]:
            return "outputs differ from the first operation of this run"
        for name, unit, _ in PER_LAYER:
            if unit != "s" and name in first.get("layers", {}):
                if result["layers"][name] != first["layers"][name]:
                    return f"count {name} differs between traced operations"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run operations for about `seconds`; returns (results by kind, attempted, errors).

    Results are keyed by whether the operation was traced. In trace mode
    each round is an untraced then a traced operation.
    """
    launched = time.monotonic()
    instance = seed % INSTANCES
    work = os.path.join(WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = prepare_inputs(workload, instance, work)
    with open(REFERENCE, encoding="utf-8") as f:
        references = json.load(f)[workload]
    reference = references[instance] if instance < len(references) else None

    kinds = [False, True] if traced else [False]
    setup_repeats = 1 if traced else SETUP_REPEATS
    ok = {False: [], True: []}
    attempted = 0
    errors = []
    round_times = []
    start = time.monotonic()
    while True:
        if round_times:
            estimate = statistics.median(round_times)
            now = time.monotonic()
            if len(round_times) >= MIN_ROUNDS and now - start + estimate > seconds:
                break
            if now - launched + estimate > HARD_LIMIT_S:
                break
        began = time.monotonic()
        for spans in kinds:
            attempted += 1
            timeout = max(1.0, HARD_LIMIT_S + 5 - (time.monotonic() - launched))
            result, error = run_op(workload, instance, inputs, work, setup_repeats, spans, timeout)
            if error is None:
                error = mismatch(result, reference, ok[spans][0] if ok[spans] else None)
            if error is None:
                ok[spans].append(result)
            else:
                errors.append(error)
        round_times.append(time.monotonic() - began)
    return ok, attempted, errors


def report(workload, seed, traced, ok, attempted, errors) -> None:
    """Print each metric with quartiles and sample count, then the JSON line."""
    failed = len(errors)
    print(
        f"workload {workload}  seed {seed}  instance {seed % INSTANCES}  "
        f"trace {int(traced)}  operations {attempted}  failed {failed}"
    )
    for error in dict.fromkeys(errors):
        print(f"  failed: {error}")
    if traced:
        table = [(name, unit) for name, unit, _ in PER_LAYER]
        samples = {
            name: [r["layers"][name] for r in ok[True]]
            for name, _ in table
            if name != "trace.overhead_s"
        }
        if ok[True] and ok[False]:
            samples["trace.overhead_s"] = [
                statistics.median(r["times"]["run_s"] for r in ok[True])
                - statistics.median(r["times"]["run_s"] for r in ok[False])
            ]
    else:
        table = [(name, unit) for name, unit, *_ in END_TO_END]
        samples = {name: [r["times"][name] for r in ok[False]] for name, _ in table}
    metrics = {}
    for name, unit in table:
        values = samples.get(name)
        if not values:
            continue
        # counts repeat exactly (mismatch checks that), times take the median
        median = statistics.median(values) if unit == "s" else values[0]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:28s} {median:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g}        ({failed} of {attempted})")
    if ok[False]:
        counts = ok[False][0]["counts"]
        print("  counts " + " ".join(f"{k}={v}" for k, v in counts.items()))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def record_reference(workloads) -> None:
    """Run every instance once and store its digests and counts."""
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as f:
            data = json.load(f)
    for workload in workloads:
        rows = []
        for instance in range(INSTANCES):
            work = os.path.join(WORK_DIR, f"reference-{workload}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            inputs = prepare_inputs(workload, instance, work)
            result, error = run_op(workload, instance, inputs, work, 1, False, None)
            if error is not None:
                sys.exit(f"{workload} instance {instance}: {error}")
            rows.append({"digests": result["digests"], "counts": result["counts"]})
            print(f"{workload} {instance}: {result['counts']}", flush=True)
        data[workload] = rows
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec[3]} for name, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        write_manifest()
        return 0
    missing = missing_files()
    if missing:
        print(f"error: not a mesosim checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    traced = bool(args.trace)
    report(args.workload, args.seed, traced, *measure(args.workload, args.seed, args.seconds, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
