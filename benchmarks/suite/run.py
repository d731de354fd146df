"""Run one benchmark workload from the root of a checkout:

    python3 benchmarks/suite/run.py --workload paper --seed 2005 --seconds 18 --trace 0

The same as ``python -m benchmarks.suite run ...``; the program is
imported from this checkout's ``src/``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Replace this script's own directory on the path: the checkout root
# (for ``benchmarks.suite``) and its ``src/`` (for ``repro``) instead.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

if __name__ == "__main__":
    from benchmarks.suite.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
