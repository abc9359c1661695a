"""Fresh-interpreter set-up probe for the ``setup_s`` metric.

Usage: python3 levybench/setup_probe.py <workload> <seed> <workers>

Imports levyfn, validates the workload's models with their Phi(0), builds
every ScaleEvaluator the workload uses, then prints "ready".  The caller
times the interpreter from spawn to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)

workloads.setup(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
print("ready", flush=True)
