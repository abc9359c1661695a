"""How many scale evaluator builds fail in per-seed pools, against the fixed one.

Usage, from the repository root:

    python3 levybench/pool_survey.py [n_seeds]

The scale workload draws its cpexp and tempered triplets from the fixed
``Scale.POOL_SEED``.  This script draws the same pool from seeds 1..n_seeds,
builds a ``ScaleEvaluator`` on each drawn model, and prints the number of
failing builds per seed, their mean, and the count of the fixed pool.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import levyfn as lf  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402


def failing_builds(pool_seed: int) -> list[str]:
    bad = []
    for e in workloads.Scale.drawn_pool(pool_seed):
        try:
            lf.ScaleEvaluator(e.model, use_closed_form=False)
        except lf.errors.LevyFnError:
            bad.append(e.name)
    return bad


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    counts = []
    for seed in range(1, n + 1):
        bad = failing_builds(seed)
        counts.append(len(bad))
        print(f"seed {seed:3d}: {len(bad)} failing {bad}", flush=True)
    fixed = failing_builds(workloads.Scale.POOL_SEED)
    print(f"per-seed pools 1-{n}: mean {statistics.mean(counts):.3f}, "
          f"median {statistics.median(counts)}, max {max(counts)} failing builds "
          f"of {len(workloads.Scale.drawn_pool(1))}")
    print(f"fixed pool (seed {workloads.Scale.POOL_SEED}): {len(fixed)} failing {fixed}")


if __name__ == "__main__":
    main()
