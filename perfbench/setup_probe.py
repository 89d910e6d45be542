"""Set-up time of one workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``.
Prints the seconds from the start of this script to the workload's inputs
being built, which includes importing agdsmooth with numpy and scipy.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    root = Path(__file__).resolve().parent.parent
    src = environment.add_package_path(root)
    workloads.build(workload, int(seed), Path(workdir))
    elapsed = time.perf_counter() - T0
    environment.check_imported(src)
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
