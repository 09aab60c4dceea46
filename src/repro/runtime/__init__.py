"""Out-of-process cohort runtime: workers compute, the coordinator keeps the ledger.

The package splits the decentralized deployment across OS processes
without changing a single result byte:

* :mod:`~repro.runtime.wire` — length-prefixed JSON+blob frames and the
  typed-error codec;
* :mod:`~repro.runtime.gateway` — :class:`RemoteOffchain`, the worker's
  content-addressed mirror of the coordinator's off-chain store;
* :mod:`~repro.runtime.server` — :class:`GatewayServer`, the
  coordinator-side dispatcher answering one blob request at a time;
* :mod:`~repro.runtime.steps` — ``STEPS``, the one table of how each
  round step crosses the wire as a task ``(op, round, per-peer inputs)``;
* :mod:`~repro.runtime.broker` / :mod:`~repro.runtime.worker` /
  :mod:`~repro.runtime.coordinator` — the process trio.  These are
  imported by dotted path (``repro.runtime.coordinator``), not re-
  exported here: the coordinator pulls in the scenario layer, which
  lazily imports back into this package, and keeping the package root
  light breaks that cycle.

Select the runtime per scenario via ``ScenarioSpec.runtime``
(``"inprocess"`` | ``"multiprocess"``) and ``runtime_workers``.
"""

from repro.runtime.gateway import RemoteOffchain
from repro.runtime.server import GatewayServer
from repro.runtime.speccodec import decode_spec, encode_spec
from repro.runtime.wire import (
    WIRE_ERROR_TYPES,
    WireChannel,
    WireClosedError,
    connect,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
)

__all__ = [
    "WIRE_ERROR_TYPES",
    "GatewayServer",
    "RemoteOffchain",
    "WireChannel",
    "WireClosedError",
    "connect",
    "decode_error",
    "decode_frame",
    "decode_spec",
    "encode_error",
    "encode_frame",
    "encode_spec",
]
