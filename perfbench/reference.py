"""A fixed reference routine that measures how fast the machine is right now.

On a 2-vCPU Xeon virtual machine that shares its CPUs with other
machines, speed switches between states that last seconds to minutes and
differ by up to 65 %, and nothing inside the machine can stop that.
The benchmark therefore times this routine between operations and reports
each operation's time scaled by REF_SECONDS over the routine's time
around it, that is, at the speed at which the routine takes REF_SECONDS.

The routine does the kind of work a cohkit command does, with its own
code: JSON decoding and encoding, a small complex matrix built from
Python lists, and Jacobi rotations through numpy column and row updates.
It does no file I/O, whose speed tracked the rest of the machine less
well. Do not change it: the scaled figures of two commits are comparable
only when both ran the same routine. NOTES.md shows how the scaled and
unscaled figures spread.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Time of the routine (faster of two runs) on that 2-vCPU Xeon machine in
# its fast state.
REF_SECONDS = 0.45e-3

_RNG = np.random.default_rng(20170118)
_G = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_M = _G @ _G.conj().T
_DOC = json.dumps({"dim": 4, "entries": [[[v.real, v.imag] for v in row] for row in _M / _M.trace().real]})


def _routine() -> None:
    a = np.array([[complex(*cell) for cell in row] for row in json.loads(_DOC)["entries"]])
    d = len(a)
    for _ in range(4):
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = 1.0 / (tau + math.copysign(math.hypot(1.0, tau), tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / mag
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * phase.conjugate() * col_q
                a[:, q] = s * col_p + c * phase.conjugate() * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
    json.loads(json.dumps({"diagonal": [float(x) for x in a.diagonal().real], "norm": float(np.linalg.norm(a))},
                          indent=2, sort_keys=True))


def reference_seconds() -> float:
    """Faster of two timed runs of the routine."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _routine()
        best = min(best, time.perf_counter() - start)
    return best
