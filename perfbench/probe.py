"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py WORKLOAD ARGS_JSON   # import tritorus, run one op
    python3 perfbench/probe.py import               # import tritorus only

Prints the monotonic clock when done and the seconds the import took.
"""

import json
import sys
import time

start = time.perf_counter()
if sys.argv[1] == "import":
    import tritorus  # noqa: F401
else:
    import ops

    ops.OPS[sys.argv[1]](*json.loads(sys.argv[2]))
end = time.perf_counter()
print(end, end - start)
