"""The chain axis: one declaration and one validation of every chain knob.

:class:`ChainSpec` lives in the chain layer so that everything above it —
the decentralized driver, the worker processes, the scenario spec tree,
the wire codec, the CLI — holds the *same object* instead of re-declaring
its fields.  A knob earns a field here only when two callers need
different values; a value every caller leaves alone is a named constant
at its reader.  Adding one means adding a field (and its check) here and
reading it where it takes effect; nothing in between copies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.gateway import GATEWAY_BACKENDS
from repro.errors import ConfigError, require_finite


@dataclass(frozen=True)
class ChainSpec:
    """The chain parameters a scenario varies.

    The block pace, link latency, gossip batching and ledger-wait deadline
    are the paper's one private-chain deployment, not fields: see the
    constants beside :data:`~repro.core.decentralized.PEER_ALLOCATION`.

    ``gateway`` selects the ledger backend every peer talks through
    (:mod:`repro.chain.gateway`): ``"inprocess"`` delegates straight to
    the peer's node (bit-identical to the pre-gateway driver),
    ``"batching"`` coalesces the per-round read fan-out behind a
    head-keyed cache whose entries also expire after
    ``gateway_staleness`` simulated seconds.  Reads are pure functions of
    the canonical head, so the backend never changes a result — only
    transport round trips (``chain_stats()["gateway"]``; a sweepable
    axis: ``replace_axis(spec, "chain.gateway", "batching")``).

    ``drop_rate`` makes the p2p links lossy: each gossiped message is
    dropped with that probability, drawn from the dedicated
    ``network/drop`` stream so sweeping it never perturbs latency draws.

    The scale-out axes are byte-neutral — they change resource usage,
    never results: ``execution="parallel"`` routes blocks of at least
    ``parallel_min_txs`` transactions through the speculate/merge
    scheduler; ``cold_storage`` gives the cohort a shared
    content-addressed cold store with ``hot_window`` resident blocks per
    node and a world-state checkpoint every ``snapshot_interval`` blocks
    (0 disables checkpoints).
    """

    drop_rate: float = 0.0
    gateway: str = "inprocess"
    gateway_staleness: float = 5.0
    execution: str = "serial"
    parallel_min_txs: int = 64
    cold_storage: bool = False
    hot_window: int = 16
    snapshot_interval: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.gateway not in GATEWAY_BACKENDS:
            raise ConfigError(
                f"unknown gateway backend {self.gateway!r}; "
                f"choose from {GATEWAY_BACKENDS}"
            )
        if self.gateway_staleness <= 0:
            raise ConfigError(
                f"gateway_staleness must be positive, got {self.gateway_staleness}"
            )
        if self.execution not in ("serial", "parallel"):
            raise ConfigError(
                f"execution must be 'serial' or 'parallel', got {self.execution!r}"
            )
        if self.parallel_min_txs < 1:
            raise ConfigError("parallel_min_txs must be >= 1")
        if self.hot_window < 1:
            raise ConfigError("hot_window must be >= 1")
        if self.snapshot_interval < 0:
            raise ConfigError("snapshot_interval must be >= 0")
        if self.snapshot_interval > 0 and not self.cold_storage:
            raise ConfigError("snapshot_interval requires cold_storage")
