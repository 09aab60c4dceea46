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

from dataclasses import dataclass

from repro.errors import ConfigError, require_finite


class AsyncPolicy:
    """Interface: decide whether aggregation may proceed."""

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        """True when the aggregator should stop waiting.

        ``submitted``: models received so far; ``expected``: cohort size;
        ``elapsed``: seconds since the round opened.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Short label for logs and benchmark tables."""
        raise NotImplementedError


@dataclass(frozen=True)
class WaitForAll(AsyncPolicy):
    """Synchronous baseline: wait for the full cohort."""

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        return submitted >= expected

    def describe(self) -> str:
        return "wait-for-all"


@dataclass(frozen=True)
class WaitForK(AsyncPolicy):
    """Asynchronous: proceed at ``k`` submissions (capped by cohort size)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

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

    seconds: float
    min_models: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seconds <= 0:
            raise ConfigError(f"deadline must be positive, got {self.seconds}")
        if self.min_models < 1:
            raise ConfigError(f"min_models must be >= 1, got {self.min_models}")

    def ready(self, submitted: int, expected: int, elapsed: float) -> bool:
        if submitted >= expected:
            return True
        return elapsed >= self.seconds and submitted >= self.min_models

    def describe(self) -> str:
        return f"deadline-{self.seconds:g}s"
