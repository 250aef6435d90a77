"""``python -m benchmarks.perf`` (see :mod:`.harness`)."""

import sys

from benchmarks.perf.harness import main

sys.exit(main())
