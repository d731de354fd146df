"""``python -m benchmarks.suite`` (run from the checkout root with
``PYTHONPATH=src``); see :mod:`benchmarks.suite.cli`."""

import sys

if __name__ == "__main__":
    from benchmarks.suite.cli import main

    sys.exit(main())
