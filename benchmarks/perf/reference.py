"""How fast the host is while a pass runs: a fixed computation on a timer.

The box this benchmark was sized on changes speed in bursts of seconds and
phases of minutes — the same pass takes 6.0 s and, a little later, 9.3 s,
with nothing else running and no steal time — which is more than any bound
an end-to-end metric may carry.  Host-time metrics are therefore reported in
*reference seconds*: measured seconds divided by how many times slower than
:data:`NOMINAL_S` the small computation below ran *during the same interval*.
An interval timer interrupts the measured code five times a second and times
one execution; sampling inside the interval matters, because samples taken
just before and after a pass miss the bursts (measured: spread between
passes 17 % raw, 18 % with before/after samples, 3-5 % with these).

The computation uses the standard library and numpy only, nothing from
``repro``, so no change to the program can move it.  Its two halves mirror
where the workloads spend host time: walking, canonical-JSON encoding and
hashing a nested payload (the chain side), and small dense matrix products
(training and scoring).
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

#: CPU seconds one :meth:`HostSpeed.sample` takes on the sizing box while it
#: is quiet.  Only a scale: it makes a reference second read like a second of
#: that box, and cancels out of every comparison between two commits.
NOMINAL_S = 0.004

#: Seconds between samples while a block is being measured.
INTERVAL_S = 0.2

#: A reading of fewer samples than this is topped up when its block ends.
MIN_SAMPLES = 20

_ENCODINGS = 20
_PRODUCTS = 8


def _walk(obj: object) -> object:
    """Rebuild ``obj`` container by container, as a canonical encoder does."""
    if isinstance(obj, dict):
        return {str(key): _walk(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_walk(item) for item in obj]
    return obj


@dataclass
class Reading:
    """What :meth:`HostSpeed.during` saw while its block ran."""

    samples: list[float] = field(default_factory=list)
    #: Host seconds the samples themselves took, inside the block.
    spent_s: float = 0.0

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the host ran.

        The mean sample, each capped at five times the median one: about one
        sample in three thousand stalls for a second (seen once, inside a
        2 ms sample), which says nothing about the speed of the host.
        """
        cap = 5.0 * statistics.median(self.samples)
        return statistics.fmean(min(sample, cap) for sample in self.samples) / NOMINAL_S

    def reference_s(self, seconds: float) -> float:
        """``seconds`` measured over the block, in reference seconds."""
        return (seconds - self.spent_s) / self.slowdown


class HostSpeed:
    """The fixed computation, and the timer that runs it during a block."""

    def __init__(self) -> None:
        self._payload = {
            f"k{i}": {
                "a": list(range(20)),
                "b": "x" * 40,
                "c": {"d": i * 1.5, "e": [str(j) for j in range(10)]},
            }
            for i in range(8)
        }
        rng = np.random.default_rng(0)
        self._batch = rng.normal(size=(64, 768))
        self._weights = rng.normal(size=(768, 64))

    def sample(self) -> float:
        """CPU seconds one execution takes now.

        CPU time of this thread, not wall time: in a multiprocess run the
        workers compete for the cores, and time spent descheduled in their
        favour says nothing about how fast the host is.
        """
        start = time.thread_time()
        for _ in range(_ENCODINGS):
            encoded = json.dumps(_walk(self._payload), sort_keys=True, separators=(",", ":"))
            hashlib.sha256(encoded.encode("utf-8")).digest()
        for _ in range(_PRODUCTS):
            hidden = self._batch @ self._weights
            np.maximum(hidden, 0.0, out=hidden)
            hidden.T @ self._batch
        return time.thread_time() - start

    @contextmanager
    def during(self) -> Iterator[Reading]:
        """Sample every :data:`INTERVAL_S` while the ``with`` body runs.

        Main thread only (``SIGALRM``).  The handler touches nothing of the
        program, so results are unchanged; interrupted system calls resume.
        Runtime workers are other processes and are not sampled.
        """
        reading = Reading()

        def tick(signum: int, frame: object) -> None:
            start = time.perf_counter()
            # The sample frees every container it allocates, so with the
            # collector held off its allocation count ends where it began and
            # the program's collections, hence its peak memory, stay put.
            collecting = gc.isenabled()
            gc.disable()
            try:
                reading.samples.append(self.sample())
            finally:
                if collecting:
                    gc.enable()
            reading.spent_s += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            while len(reading.samples) < MIN_SAMPLES:
                reading.samples.append(self.sample())
