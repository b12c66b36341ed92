"""Entry point of one fresh workload process.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

Both modes import ``normspace.cli`` from the checkout's ``src`` before
anything else and print ``ready``, so the parent can time interpreter start
plus import.  ``probe`` stops there; ``run`` hands over to ``measure.main``,
which prints one JSON line with the run's measurements.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import normspace.cli  # noqa: F401  (the import being timed)

    print("ready", flush=True)
    import measure

    sys.exit(measure.main(sys.argv[1:]))
