"""Starts the cli workload's nvswap subprocesses on the worker's behalf.

The peak resident memory the kernel reports for a child (ru_maxrss) includes
the memory of the process that started it, up to the child's exec.  The
worker holds numpy and nvswap, so every child it started would report at
least the worker's size.  This small process starts them instead, so the
largest child's peak is the child's own.  It reads one JSON argv per line and
answers each with [stdout, returncode, largest child peak so far in KiB].
"""

import json
import resource
import subprocess
import sys

for line in sys.stdin:
    done = subprocess.run(json.loads(line), capture_output=True, text=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps([done.stdout, done.returncode, peak]), flush=True)
