"""Time one set-up in a fresh interpreter: import the package and
generate a workload's corpus.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload>

`src/` must be importable (run.py puts it on PYTHONPATH).
"""

import sys
import time


def main(workload_name: str) -> float:
    clock = time.perf_counter()
    import workloads
    workloads.make_corpus(workloads.WORKLOADS[workload_name])
    return time.perf_counter() - clock


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
