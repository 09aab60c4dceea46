"""Asynchronous aggregation policies — when to stop waiting.

The paper's core question ("wait or not to wait") is a policy choice:

* :class:`WaitForAll` — synchronous: aggregate only after every expected
  peer has submitted (the conventional FL baseline).
* :class:`WaitForK` — asynchronous: proceed as soon as ``k`` submissions
  (including one's own) are available.
* :class:`Deadline` — proceed when a simulated-time deadline passes,
  whatever has arrived by then (Wilhelmi et al.'s age-of-block flavour).

Policies are pure predicates over (submissions-so-far, cohort size, clock),
so the same objects drive both the centralized orchestrator and the
on-chain coordinator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.errors import ConfigError, require_finite


class AsyncPolicy:
    """Interface: decide whether aggregation may proceed."""

    #: Whether :meth:`ready` can change with ``elapsed`` alone.  A waiting
    #: driver re-asks a policy that says so after every simulator event,
    #: and one that does not only when a submission or a chain view moved;
    #: ``True`` is the safe answer for a policy that does not say.
    reads_clock = True

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        """True when the aggregator should stop waiting.

        ``submitted``: models received so far; ``expected``: cohort size;
        ``elapsed``: seconds since the round opened.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Short label for logs and benchmark tables."""
        raise NotImplementedError


def _require_count(policy: AsyncPolicy, name: str) -> None:
    """``policy.<name>`` counts models: an integer >= 1, never a bool or a
    float (``submitted >= nan`` never holds)."""
    value = getattr(policy, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class WaitForAll(AsyncPolicy):
    """Synchronous baseline: wait for the full cohort."""

    reads_clock = False

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        return submitted >= expected

    def describe(self) -> str:
        return "wait-for-all"


@dataclass(frozen=True)
class WaitForK(AsyncPolicy):
    """Asynchronous: proceed at ``k`` submissions (capped by cohort size)."""

    reads_clock = False

    k: int

    def __post_init__(self) -> None:
        require_finite(self)
        _require_count(self, "k")

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        return submitted >= min(self.k, expected)

    def describe(self) -> str:
        return f"wait-for-{self.k}"


@dataclass(frozen=True)
class Deadline(AsyncPolicy):
    """Proceed after ``seconds`` elapsed, or when everyone submitted early.

    Requires at least ``min_models`` submissions (default 1) so an empty
    aggregation can never fire.
    """

    reads_clock = True

    seconds: float
    min_models: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seconds <= 0:
            raise ConfigError(f"deadline must be positive, got {self.seconds}")
        _require_count(self, "min_models")

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        if submitted >= expected:
            return True
        return elapsed >= self.seconds and submitted >= self.min_models

    def describe(self) -> str:
        return f"deadline-{self.seconds:g}s"
