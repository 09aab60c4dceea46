"""Client sampling, availability windows, and churn — the participation axis.

Production cross-device FL never trains every client every round: a small
subcohort is *sampled* per round, devices come and go (churn), and some are
simply offline for a stretch (availability windows).  This module supplies
the declarative knob (:class:`ParticipationSpec`, an axis of
:class:`~repro.scenarios.spec.ScenarioSpec`) and its deterministic
resolution (:class:`ParticipationPlan`): given the spec, the cohort order,
the round count, and an rng factory, the plan precomputes which peers are
offline and which are selected for every round.

Determinism contract: the plan draws only from dedicated
``participation/<round>`` and ``participation/churn/<round>`` streams, one
draw batch per stream, so it is a pure function of ``(spec, peer_ids,
rounds, seed)``.  The in-process driver, the multiprocess coordinator, and
every worker rebuild the identical plan independently — participation can
never depend on runtime, worker count, or wall-clock.

Two kinds of absence, deliberately different:

* **Sampled out** (``sampled_k``): the peer is healthy and its node keeps
  mining; it just does no FL work this round (no training, no submission,
  no rating, no vote) and keeps its personalized model.
* **Offline** (windows/churn): the peer's node is partitioned from the
  network for the duration, exactly like a PR-7 crash window; on return it
  re-syncs the chain and catches up through the FedAvg path.

The head peer (``peer_ids[0]``) deploys the contracts and anchors the
genesis bookkeeping, so it is always selected and never goes offline —
specs that would take it down are rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.errors import ConfigError, require_finite
from repro.utils.rng import RngFactory

#: A sampled round still needs two participants: the FL passes compare and
#: aggregate across peers, and a 1-peer "cohort" degenerates to local training.
MIN_SAMPLED_K = 2


@dataclass(frozen=True)
class ParticipationSpec:
    """Declarative per-round participation policy.

    ``sampled_k``
        Train only ``k`` of the available peers each round, chosen from a
        dedicated ``participation/<round>`` rng stream.  ``None`` (the
        default) keeps today's full participation; ``sampled_k == n`` is
        byte-identical to it at the same seed.
    ``windows``
        Scheduled absences as ``(peer_index, first_round, rounds)`` tuples:
        the peer at that cohort index (1-based rounds, index 0 is the head
        and may never be scheduled offline) leaves the network at
        ``first_round`` and rejoins after ``rounds`` rounds away.
    ``churn_rate``
        Per-round probability in ``[0, 1)`` that a non-head peer is offline
        that round, drawn from ``participation/churn/<round>`` streams.
        Consecutive offline draws merge into one absence; the rejoin takes
        the same sync + FedAvg catch-up path as a window's end.
    """

    sampled_k: Optional[int] = None
    windows: Tuple[Tuple[int, int, int], ...] = ()
    churn_rate: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.sampled_k is not None:
            if int(self.sampled_k) != self.sampled_k or self.sampled_k < MIN_SAMPLED_K:
                raise ConfigError(
                    f"sampled_k must be an int >= {MIN_SAMPLED_K}, got {self.sampled_k!r}"
                )
            object.__setattr__(self, "sampled_k", int(self.sampled_k))
        normalized = []
        for window in self.windows:
            entries = tuple(int(value) for value in window)
            if len(entries) != 3:
                raise ConfigError(
                    f"availability windows are (peer_index, first_round, rounds) "
                    f"triples, got {window!r}"
                )
            peer_index, first_round, length = entries
            if peer_index < 1:
                raise ConfigError(
                    "availability windows cannot take the cohort head (index 0) "
                    "offline — it deploys the contracts and anchors catch-up"
                )
            if first_round < 1 or length < 1:
                raise ConfigError(
                    f"availability window {entries!r} needs first_round >= 1 "
                    f"and rounds >= 1"
                )
            normalized.append(entries)
        # Canonical order: logically equal specs must compare (and hash)
        # equal — they key dataset-memo entries.
        object.__setattr__(self, "windows", tuple(sorted(normalized)))
        if not 0.0 <= float(self.churn_rate) < 1.0:
            raise ConfigError(
                f"churn_rate must be in [0, 1), got {self.churn_rate!r}"
            )

    def check_cohort(self, size: int) -> None:
        """Raise unless the spec fits a cohort of ``size`` peers: at most
        ``size`` sampled, and every window's peer index in range."""
        if self.sampled_k is not None and self.sampled_k > size:
            raise ConfigError(
                f"sampled_k {self.sampled_k} exceeds the cohort size {size}"
            )
        for peer_index, _first, _length in self.windows:
            if peer_index >= size:
                raise ConfigError(
                    f"availability window peer index {peer_index} is out of "
                    f"range for cohort size {size}"
                )

    @property
    def engaged(self) -> bool:
        """Whether any participation knob departs from full participation."""
        return (
            self.sampled_k is not None
            or bool(self.windows)
            or self.churn_rate > 0.0
        )

    @property
    def has_absences(self) -> bool:
        """Whether peers can be *offline* (as opposed to merely unsampled)."""
        return bool(self.windows) or self.churn_rate > 0.0


class ParticipationPlan:
    """The spec resolved against a concrete cohort: who does what, when.

    Built once per run (and rebuilt bit-identically by every runtime
    process); all queries are dictionary lookups afterwards.  ``offline``
    and ``active`` answer per round; ``ever_active`` bounds which peers the
    driver must materialize at all — at 1000 registered / 25 sampled / 3
    rounds that is at most 76 peers, which is what makes thousand-peer
    cohorts affordable.
    """

    def __init__(
        self,
        spec: ParticipationSpec,
        peer_ids: Sequence[str],
        rounds: int,
        rngs: RngFactory,
    ) -> None:
        self.spec = spec
        self.peer_ids: Tuple[str, ...] = tuple(peer_ids)
        spec.check_cohort(len(self.peer_ids))
        head = self.peer_ids[0]
        churn_pool = self.peer_ids[1:]
        self._offline: Dict[int, FrozenSet[str]] = {}
        self._active: Dict[int, Tuple[str, ...]] = {}
        ever = {head}
        for round_id in range(1, int(rounds) + 1):
            away = set()
            for peer_index, first_round, length in spec.windows:
                if first_round <= round_id < first_round + length:
                    away.add(self.peer_ids[peer_index])
            if spec.churn_rate > 0.0 and churn_pool:
                # One fixed-size draw batch per round, independent of who is
                # already away, so window edits never perturb churn draws.
                draws = rngs.get("participation", "churn", round_id).random(
                    len(churn_pool)
                )
                away.update(
                    peer_id
                    for peer_id, draw in zip(churn_pool, draws)
                    if draw < spec.churn_rate
                )
            offline = frozenset(away)
            self._offline[round_id] = offline
            candidates = [pid for pid in self.peer_ids if pid not in offline]
            k = spec.sampled_k
            if k is not None and len(candidates) > k:
                picks = rngs.get("participation", round_id).choice(
                    len(candidates), size=k, replace=False
                )
                chosen = {candidates[int(index)] for index in picks}
                active = tuple(pid for pid in candidates if pid in chosen)
            else:
                active = tuple(candidates)
            self._active[round_id] = active
            ever.update(active)
        self.ever_active: FrozenSet[str] = frozenset(ever)

    @property
    def engaged(self) -> bool:
        return self.spec.engaged

    @property
    def has_absences(self) -> bool:
        return self.spec.has_absences

    def offline(self, round_id: int) -> FrozenSet[str]:
        """Peers partitioned from the network for ``round_id``."""
        return self._offline.get(round_id, frozenset())

    def active(self, round_id: int) -> Tuple[str, ...]:
        """The round's selected subcohort, in cohort order."""
        return self._active.get(round_id, self.peer_ids)
