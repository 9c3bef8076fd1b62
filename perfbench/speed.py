"""CPU-speed measurement, so that times taken on a shared machine can be compared.

On a shared host the same pass can take from 1x to 2x as long from one minute
to the next, because other tenants share the physical cores.  A fixed chunk
of interpreter work is timed (thread CPU time) over and over; the mean of
(reference chunk time / measured chunk time) is the speed factor, and a
reported time is the wall time multiplied by the factor measured around it:
the wall time at the reference speed.  The chunk has the shape of the work
that dominates the library's passes, a closure table filled by ``any`` over a
generator; a plain integer loop followed the host's slow spells on the verify
grid only half as well.  The chunk is the benchmark's own code, so a change
to the library cannot change it.  Raw wall times and factors are kept in the
results file.

The chunk must not compete with the program under test, or the program's own
load would move the factor.  Two ways keep it apart:

* ``SpeedSampler`` runs the chunk every 20 ms from a SIGALRM handler while a
  single-threaded pass runs.  The handler pre-empts the program's only busy
  thread, so the chunk always runs on an otherwise idle process, and the
  factor follows the host from second to second.
* ``calibrate`` runs the chunk for a short spell while the program is idle.
  It serves passes with pool workers (a sampler inside them would be slowed
  by the workers), before and after the pass, and the set-up probes.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

CHUNK = 200  # closure table entries filled in one sample
CHUNK_GENS = (7, 11, 13)
INTERVAL_S = 0.02
REF_CHUNK_S = 150e-6  # the chunk's thread time at the reference speed


def _chunk() -> float:
    t0 = time.thread_time()
    table = [False] * CHUNK
    table[0] = True
    for x in range(1, CHUNK):
        table[x] = any(x >= g and table[x - g] for g in CHUNK_GENS)
    return time.thread_time() - t0


def _factor(chunks: list[float]) -> float:
    return sum(REF_CHUNK_S / max(c, 1e-9) for c in chunks) / len(chunks)


def calibrate(spell_s: float) -> float:
    """The speed factor over a spell of ``spell_s`` seconds of chunks."""
    chunks = []
    end = time.perf_counter() + spell_s
    while time.perf_counter() < end or len(chunks) < 3:
        chunks.append(_chunk())
    return _factor(chunks)


class SpeedSampler:
    """Context manager that samples CPU speed while a single-threaded block runs.

    ``tag``, if given, is called with the interrupted frame at each sample, and
    its result is kept with the sample (``tags``), so a pass can tell which of
    its parts was running when.
    """

    def __init__(self, tag: Callable | None = None) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, chunk thread time)
        self.tags: list = []
        self._tag = tag

    def _sample(self, signum, frame) -> None:
        if self._tag is not None:
            self.tags.append(self._tag(frame))
        self.samples.append((time.perf_counter(), _chunk()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Speed factor over [start, end], or over the whole block when that
        interval holds fewer than three samples; 1.0 with no samples at all."""
        chunks = [c for t, c in self.samples if start is not None and start <= t <= end]
        if len(chunks) < 3:
            chunks = [c for _, c in self.samples]
        return _factor(chunks) if chunks else 1.0
