"""Seeded synthetic lattice scenario, written as the three mesosim CSVs.

The lattice is fixed by its size: SIZE x SIZE nodes, every neighbouring
pair joined by one link in each direction, all links LINK_LENGTH metres
long. The seed draws only the demand: BANDS origin-destination bands
into DESTINATIONS random destinations, with random origins, start times,
lengths and flows. The number of destinations and the total number of
vehicles are fixed, so routing work and load do not depend on the seed;
only where the traffic goes does. Band ends fall at or before
DEMAND_END, so the CLI's default horizon (last demand end plus its
1800 s cool-down) is the workload's 5400 s horizon.

Run as a script to write a scenario directory:

    python3 perfbench/grid.py --seed 7 --out some/dir
"""

from __future__ import annotations

import argparse
import os
import random

SIZE = 12
LINK_LENGTH = 500.0
FREE_FLOW_SPEED = 15.0
JAM_DENSITY = 0.2
BANDS = 300
DESTINATIONS = 123
VEHICLES = 10000
DEMAND_END = 3600.0


def node_name(row: int, col: int) -> str:
    return f"r{row}c{col}"


def grid_csvs(seed: int) -> tuple[str, str, str]:
    """The nodes, links and demand CSV texts of the lattice for one seed."""
    rng = random.Random(seed)
    nodes = ["name,x,y"]
    names = []
    for row in range(SIZE):
        for col in range(SIZE):
            names.append(node_name(row, col))
            nodes.append(f"{names[-1]},{col * LINK_LENGTH:g},{row * LINK_LENGTH:g}")

    links = ["name,from,to,length,free_flow_speed,jam_density,merge_priority"]
    for row in range(SIZE):
        for col in range(SIZE):
            here = node_name(row, col)
            for d_row, d_col in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                r, c = row + d_row, col + d_col
                if 0 <= r < SIZE and 0 <= c < SIZE:
                    there = node_name(r, c)
                    links.append(
                        f"{here}-{there},{here},{there},{LINK_LENGTH:g},"
                        f"{FREE_FLOW_SPEED:g},{JAM_DENSITY:g},"
                    )

    destinations = rng.sample(names, DESTINATIONS)
    bands = []
    for k in range(BANDS):
        dest = destinations[k % DESTINATIONS]
        orig = rng.choice([name for name in names if name != dest])
        start = rng.randrange(0, 3000, 60)
        end = min(DEMAND_END, start + rng.randrange(600, 1801, 60))
        bands.append((orig, dest, start, end, rng.uniform(0.5, 1.5)))
    # one band always ends at DEMAND_END, so the default horizon is fixed
    bands[-1] = bands[-1][:3] + (DEMAND_END,) + bands[-1][4:]
    scale = VEHICLES / sum(w * (end - start) for _, _, start, end, w in bands)
    demand = ["orig,dest,start_t,end_t,flow"]
    for orig, dest, start, end, w in bands:
        demand.append(f"{orig},{dest},{start},{end:g},{w * scale:.6f}")
    return tuple("\n".join(rows) + "\n" for rows in (nodes, links, demand))


def write_grid(seed: int, out_dir: str) -> None:
    """Write nodes.csv, links.csv and demand.csv for the seed into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in zip(("nodes.csv", "links.csv", "demand.csv"), grid_csvs(seed)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as f:
            f.write(text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_grid(args.seed, args.out)
