"""One record of a communication round: the :class:`Round`.

The paper's speed metric is one subtraction per peer per round — the
instant the peer's waiting policy fired minus the instant its own
submission went out.  The driver's phases (:meth:`repro.core.decentralized
.DecentralizedFL.run_round`) hand one ``Round`` to each other; it holds
those instants and the round's working set, and nothing else does.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import GatewayUnavailableError


@dataclass
class Round:
    """Working set and clock marks (simulated seconds) of one round.

    Built by the driver's open phase from the participation and fault
    plans — ``live`` is the selected subcohort minus any crash window, in
    cohort order, and ``degradable`` says whether the fault harness is on.
    Fault-free, full-participation runs have ``live`` equal to the whole
    cohort and can never drop a peer.  ``view_records`` holds, for each
    peer that reached aggregation and in cohort order, the on-chain
    submission records its view is built from — read once, by the driver,
    and handed to every compute step of the round.
    """

    round_id: int
    live: list[str]
    opened_at: float
    degradable: bool = False
    dropped: set[str] = field(default_factory=set)
    submitted_at: dict[str, float] = field(default_factory=dict)
    ready_at: dict[str, float] = field(default_factory=dict)
    view_records: dict[str, list[dict]] = field(default_factory=dict)

    def expected(self) -> int:
        """How many submissions the waiting policy quorums against: the
        peers still in the round, so wait-for-all degrades to
        wait-for-the-survivors instead of waiting forever for a crashed or
        dropped peer."""
        return len(self.live) - len(self.dropped)

    @contextmanager
    def may_drop(self, peer_id: str) -> Iterator[None]:
        """The one place a round loses a peer: with the fault harness on,
        a gateway that gave up (:class:`GatewayUnavailableError`) drops its
        peer from the round and abandons the guarded step; fault-free runs
        propagate the error."""
        try:
            yield
        except GatewayUnavailableError:
            if not self.degradable:
                raise
            self.dropped.add(peer_id)
