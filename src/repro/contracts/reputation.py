"""Reputation / incentive ledger contract (extension).

The paper's related work (BESIFL, Biscotti, VFChain) and its future-work
section motivate credit-based participant scoring.  This contract provides
that extension: peers rate each other's model submissions after evaluating
them locally; scores feed the ``adversarial/reputation`` scenario, where a
peer whose models repeatedly fail the fitness threshold loses reputation and
can be excluded from future aggregations.
"""

from __future__ import annotations

from repro.chain.runtime import CallContext, Contract

_SCORE_PREFIX = "score:"
_RATING_PREFIX = "rating:"   # rating:<round>:<rater>:<subject>


class ReputationLedger(Contract):
    """Additive reputation scores with per-round, per-rater idempotence."""

    NAME = "reputation_ledger"

    def init(self, ctx: CallContext, initial_score: int = 100) -> None:
        """Set the score assigned to first-seen subjects."""
        ctx.require(initial_score >= 0, "initial score must be non-negative")
        ctx.sstore("initial_score", int(initial_score))

    def rate(self, ctx: CallContext, round_id: int, subject: str, delta: int, reason: str = "") -> int:
        """Apply ``delta`` to ``subject``'s score for ``round_id``.

        A rater may rate a given subject once per round; self-rating is
        rejected.  Returns the subject's new score (floored at zero).
        """
        ctx.require(subject != ctx.sender, "cannot rate yourself")
        ctx.require(-100 <= delta <= 100, "delta out of range [-100, 100]")
        rating_key = f"{_RATING_PREFIX}{int(round_id):08d}:{ctx.sender}:{subject}"
        ctx.require(ctx.sload(rating_key) is None, "already rated this round")
        ctx.sstore(rating_key, int(delta))
        score_key = _SCORE_PREFIX + subject
        current = ctx.sload(score_key)
        if current is None:
            current = int(ctx.sload("initial_score", 100))
        new_score = max(int(current) + int(delta), 0)
        ctx.sstore(score_key, new_score)
        ctx.log("Rated", round_id=int(round_id), rater=ctx.sender, subject=subject, delta=int(delta), reason=reason)
        return new_score

    def score_of(self, ctx: CallContext, address: str) -> int:
        """Current score (initial score for unseen addresses)."""
        score = ctx.sload(_SCORE_PREFIX + address)
        if score is None:
            return int(ctx.sload("initial_score", 100))
        return int(score)

    def is_credible(self, ctx: CallContext, address: str, threshold: int = 50) -> bool:
        """BESIFL-style credibility gate."""
        return self.score_of(ctx, address) >= int(threshold)

    def rating_of(self, ctx: CallContext, round_id: int, rater: str, subject: str) -> int | None:
        """The delta ``rater`` applied to ``subject`` in ``round_id``."""
        return ctx.sload(f"{_RATING_PREFIX}{int(round_id):08d}:{rater}:{subject}")
