"""One cold start of an in-process workload: import mopexact, build the instances.

Usage: python3 perfbench/probe.py WORKLOAD SEED  (with src on PYTHONPATH).
run.py times whole processes of this script for setup_s.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build_instances(sys.argv[1], int(sys.argv[2]))
