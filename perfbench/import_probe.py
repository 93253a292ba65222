"""Time a fresh interpreter's imports: numpy, then agdim's command line.

run.py starts this script several times to measure set-up time; it prints one
JSON object with the two import times in seconds.

Usage: python3 import_probe.py SRC_DIR
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import agdim.cli  # noqa: E402,F401  (imports every agdim module a workload calls)

t2 = time.perf_counter()
print(json.dumps({"numpy_import_s": t1 - t0, "agdim_import_s": t2 - t1}))
