"""Proof-of-work consensus: statistical sealing and difficulty retargeting.

The paper's private Ethereum runs PoW ("the computation cost from PoW
consensus cannot be avoided; however, Ethereum enables openness").  Sealing
here is statistical, not a nonce search: it consumes *simulated time* drawn
from the exponential distribution real PoW follows (memoryless trials), so
block intervals and leader election are faithful without burning CPU.  A
sealed header's nonce is a sampled pseudo-nonce that nothing verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RetargetRule:
    """Ethereum-flavoured difficulty adjustment.

    If the parent interval was below ``target_interval``, difficulty rises by
    ``1/adjustment_quotient`` of itself; if above, it falls, bounded below by
    ``min_difficulty``.
    """

    target_interval: float = 13.0
    adjustment_quotient: int = 16
    min_difficulty: int = 1

    def next_difficulty(self, parent_difficulty: int, parent_interval: float) -> int:
        """Difficulty for a child given the parent's difficulty and interval."""
        step = max(parent_difficulty // self.adjustment_quotient, 1)
        if parent_interval < self.target_interval:
            adjusted = parent_difficulty + step
        elif parent_interval > self.target_interval:
            adjusted = parent_difficulty - step
        else:
            adjusted = parent_difficulty
        return max(adjusted, self.min_difficulty)


class ProofOfWork:
    """Statistical PoW used by the network simulation.

    Each miner has a hashrate (hashes per simulated second).  The time to
    find a block at difficulty ``d`` is exponential with mean
    ``d / hashrate`` in expectation (success probability per hash is
    ``1/d``).  ``sample_mining_time`` draws that time; the event engine
    schedules block discovery accordingly, which makes leader election
    proportional to hashrate — exactly the property the paper's three equal
    VMs rely on for fairness.
    """

    def __init__(self, rng: np.random.Generator, retarget: RetargetRule | None = None) -> None:
        self.rng = rng
        self.retarget = retarget if retarget is not None else RetargetRule()

    def expected_time(self, difficulty: int, hashrate: float) -> float:
        """Mean simulated seconds to seal at ``difficulty`` with ``hashrate``."""
        if hashrate <= 0:
            raise ValueError("hashrate must be positive")
        return difficulty / hashrate

    def sample_mining_time(self, difficulty: int, hashrate: float) -> float:
        """Draw one exponential mining duration."""
        return float(self.rng.exponential(self.expected_time(difficulty, hashrate)))

    def sample_nonce(self) -> int:
        """Draw a pseudo-nonce recorded in simulated-sealed headers."""
        return int(self.rng.integers(0, 2**63))

    def next_difficulty(self, parent_difficulty: int, parent_interval: float) -> int:
        """Delegate to the retarget rule."""
        return self.retarget.next_difficulty(parent_difficulty, parent_interval)
