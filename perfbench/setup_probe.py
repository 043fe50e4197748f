"""Time one cold set-up of the simulator in a fresh interpreter.

Run as ``python perfbench/setup_probe.py <scenario> <bits>`` with ``src`` on
``PYTHONPATH``.  Set-up is what every ``repro run`` pays before simulating:
importing the package (NumPy included), resolving the compute kernel (the
compiled-kernel cache is expected warm; the parent warms it first and
records whether it had to) and resolving the scenario into a cache-keyed run
request.  Prints one JSON object with the seconds and the resolved kernel.
"""

import json
import sys
import time

started = time.perf_counter()

from repro.frontdoor import RunRequest  # noqa: E402
from repro.kernels import available_kernels, get_kernel  # noqa: E402

kernel = get_kernel().name
RunRequest.build(sys.argv[1], seed=0, bits=int(sys.argv[2])).run_key()
elapsed = time.perf_counter() - started
print(json.dumps({"setup_s": elapsed, "kernel": kernel, "available": list(available_kernels())}))
