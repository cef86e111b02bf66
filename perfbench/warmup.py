"""One set-up sample: start an interpreter, import ghzstab (and numpy), run
one CLI call, and report on stdout the seconds since ``run.py`` spawned
this process, read from the monotonic clock both processes share.

    PERFBENCH_SPAWNED_AT=<time.monotonic()> python3 perfbench/warmup.py <ghzstab CLI arguments>
"""

import contextlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from ghzstab import cli  # noqa: E402

if __name__ == "__main__":
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(sys.argv[1:])
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWNED_AT"])
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "setup_s": setup_s}))
