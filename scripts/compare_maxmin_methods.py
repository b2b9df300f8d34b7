#!/usr/bin/env python3
"""Head-to-head of the two exact MaxMin methods on generated instances.

For each instance both methods must return the same optimum; the table
contrasts how many feasibility/packing problems each one solves, how many
search nodes those solves visit and how long they take.  Node counts are
deterministic, so comparing them across two checkouts shows whether a
kernel change kept the search tree.  The index-bisection method probes sorted distinct
distances, the interval-subdivision method halves a numeric bracket, so
their solve counts differ even though both are logarithmic.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import divopt as dv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="gkd-d")
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default=None, help="optional CSV output")
    args = parser.parse_args()

    family = dv.Family.from_string(args.family)
    rows = []
    header = (f"{'instance':28s} {'z*':>12s} {'idx solves':>10s} "
              f"{'bound':>5s} {'idx nodes':>9s} {'idx s':>7s} "
              f"{'sub solves':>10s} {'q':>3s} {'sub nodes':>9s} {'sub s':>7s}")
    print(header)
    print("-" * len(header))
    for k in range(args.count):
        spec = dv.GeneratorSpec(family=family, n=args.n, m=args.m,
                                seed=args.seed + k)
        inst = dv.generate(spec)
        t0 = time.perf_counter()
        a = dv.solve_maxmin_improved(inst, args.m)
        ta = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = dv.solve_maxmin_original(inst, args.m)
        tb = time.perf_counter() - t0
        if a.value != b.value:
            print(f"DISAGREEMENT on {inst.name}: {a.value} vs {b.value}",
                  file=sys.stderr)
            return 1
        distinct = dv.spectrum_stats(inst).distinct_count
        bound = math.ceil(math.log2(distinct)) + 1
        a_nodes = a.stats.subsets_or_nodes_explored
        b_nodes = b.stats.subsets_or_nodes_explored
        print(f"{inst.name:28s} {a.value:12.5f} "
              f"{a.stats.decision_solves:10d} {bound:5d} {a_nodes:9d} "
              f"{ta:7.3f} {b.stats.decision_solves:10d} {b.stats.q_used:3d} "
              f"{b_nodes:9d} {tb:7.3f}")
        rows.append((inst.name, a.value, a.stats.decision_solves, bound,
                     a_nodes, ta, b.stats.decision_solves, b.stats.q_used,
                     b_nodes, tb))

    if args.csv:
        lines = ["instance,z_star,index_solves,index_bound,index_nodes,"
                 "index_seconds,subdiv_solves,subdiv_q,subdiv_nodes,"
                 "subdiv_seconds"]
        for r in rows:
            lines.append(",".join(str(v) for v in r))
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
