#!/usr/bin/env python3
"""Regenerate every paper table and figure in one run.

This is the human-facing front end of the experiment registry; the
benchmark harness under benchmarks/ runs the same experiments under
pytest-benchmark timing.

Run:  python examples/paper_tables.py [--scale S] [--only table2,figure3]
                                      [--cache DIR] [--jobs N]

At scale 1.0 the full run simulates ~80M instructions across 15 analogs
and takes several minutes on first run (--jobs fans the simulations over
a process pool; traces are stored content-addressed if --cache is given,
so warm reruns skip simulation).
"""

import argparse
import sys
import time

from repro.eval import ExecutionEngine
from repro.eval.experiments import EXPERIMENTS, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(
        description="regenerate the paper's tables and figures"
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (default 1.0 = full analogs)")
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated experiment ids "
                             f"(known: {', '.join(EXPERIMENTS)})")
    parser.add_argument("--cache", type=str, default="",
                        help="content-addressed artifact store directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation "
                             "(1 = sequential)")
    args = parser.parse_args()

    wanted = (
        [x.strip() for x in args.only.split(",") if x.strip()]
        if args.only
        else list(EXPERIMENTS)
    )
    unknown = [x for x in wanted if x not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    engine = ExecutionEngine(
        scale=args.scale, cache_dir=args.cache or None, jobs=args.jobs
    )
    for experiment_id in wanted:
        experiment = EXPERIMENTS[experiment_id]
        started = time.time()
        print(f"\n================ {experiment.paper_artifact} "
              f"({experiment_id}) ================")
        print(experiment.description)
        print()
        sys.stdout.flush()
        print(run_experiment(experiment_id, engine))
        print(f"[{experiment_id} took {time.time() - started:.1f}s]")
        sys.stdout.flush()
    print()
    print(engine.stats.render())


if __name__ == "__main__":
    main()
