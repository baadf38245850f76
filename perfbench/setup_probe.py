"""One fresh-interpreter set-up of a workload: import ctmcpert, read the
workload's scenario texts, and build and validate its chains once.

Usage: python3 perfbench/setup_probe.py <workload>  (with the checkout's
``src`` on PYTHONPATH).  Prints the CPU seconds of that set-up.  The
interpreter's own start and the import of the benchmark's modules are
left out: they are not ctmcpert's work, and the start is the part of a
fresh process that slows most when the host is busy.
"""

import sys
from time import process_time

start = process_time()
from ctmcpert import cli  # noqa: E402
spent = process_time() - start

from workloads import WORKLOADS  # noqa: E402

start = process_time()
WORKLOADS[sys.argv[1]].build(cli)
print(repr(spent + process_time() - start))
