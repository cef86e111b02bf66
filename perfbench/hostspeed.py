"""A fixed probe of how fast the shared host runs the benchmark's kind of work.

On a shared host the speed of one core drifts by 10-30% over tens of seconds,
and every call of a run drifts with it. ``run.py`` times this probe after
every call and scales each call's time by ``REFERENCE_PROBE_S`` over the
median of the probes timed around it, so that a run reports what it would
have measured at the reference speed. The probe is the benchmark's own code,
not the program's, so a change to the program moves the scaled timings as
much as the raw ones.

The probe mixes the work the program does: an interpreted loop over small
integers and a JSON dump of bit strings (pattern enumeration and output),
small complex matrix products on a 64-amplitude state with renormalization
(sequential collapse) and a small Hermitian eigensolve (the even-parity block).
"""

from __future__ import annotations

import json
import time

import numpy as np

# median probe time on the reference machine (2 vCPU shared host, Python
# 3.11, numpy 2.4 with OpenBLAS); scaled timings are in its units
REFERENCE_PROBE_S = 0.0022


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20051011)
        self.state = rng.normal(size=64) + 1j * rng.normal(size=64)
        self.state /= np.linalg.norm(self.state)
        mats = rng.normal(size=(6, 8, 8)) + 1j * rng.normal(size=(6, 8, 8))
        self.mats = [np.linalg.qr(m)[0] for m in mats]
        h = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        self.herm = h + h.conj().T
        self.result = self._work()

    def _work(self) -> float:
        acc = 0
        for m in range(3000):
            acc += (m * 2654435761 + (m >> 3)) % 97
        words = [format(m, "016b") for m in range(0, 3000, 3)]
        acc += len(json.dumps({"m_set": words}))
        x = self.state
        for k in range(120):
            x = (self.mats[k % 6] @ x.reshape(8, 8)).reshape(64)
            x = x / np.sqrt(float(np.vdot(x, x).real))
        w = np.linalg.eigvalsh(self.herm)
        return acc + float(abs(x[0])) + float(w[0])

    def time(self) -> float:
        """Seconds one probe takes now; raises if its result changed."""
        start = time.perf_counter()
        result = self._work()
        elapsed = time.perf_counter() - start
        if result != self.result:
            raise RuntimeError("perfbench: host-speed probe gave a different result")
        return elapsed
