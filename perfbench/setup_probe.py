"""Set-up probe: a fresh interpreter imports opjensen and builds one
workload's task list, then exits. The benchmark times whole runs of it:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs src/ on the path)

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]()
    workload.setup(workloads.derive_seed(int(sys.argv[2]), 0))
