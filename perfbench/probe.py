"""Fresh-interpreter probe for set-up time and peak memory.

Usage: ``python3 probe.py [WORKLOAD SEED WORKDIR]`` with the checkout's
``src`` on PYTHONPATH. Prints one JSON line holding the CLOCK_MONOTONIC time
at which ``import dirout`` and ``import dirout.cli`` finished. Given a
workload, it then runs one pass on the first inputs in WORKDIR and adds the
peak resident set of the process and the digest (or error) of every
operation.
"""

import time

import dirout  # noqa: F401
import dirout.cli  # noqa: F401

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

report = {"imported": imported}
if len(sys.argv) == 4:
    import workloads

    work = workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])[0]
    _, outputs = workloads.run_pass(work)
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["outputs"] = {
        op: {"error": f"{type(d).__name__}: {d}"} if isinstance(d, Exception) else d
        for op, d in workloads.digests(outputs).items()
    }
print(json.dumps(report))
