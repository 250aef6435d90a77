"""``BENCHMARK.json``'s command: ``python3 benchmarks/perf/run.py ...``.

Same CLI as ``python -m benchmarks.perf``; this file only puts the
checkout root on ``sys.path`` so the package resolves when run by path.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
