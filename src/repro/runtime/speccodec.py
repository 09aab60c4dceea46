"""JSON codec for the :class:`~repro.scenarios.spec.ScenarioSpec` tree.

Worker processes rebuild their whole world — datasets, models, rng
streams — from the spec alone, so the init task ships the spec over the
wire.  The spec tree is frozen dataclasses all the way down; this codec
walks a closed registry of those types (``{"__spec__": <class name>,
"fields": {...}}``) instead of pickling, per the wire-discipline rule.

Decoding coerces JSON lists back to tuples: every sequence field in the
spec tree is a tuple (``client_ids``, ``volumes``, ``times``, ``crash``
windows), and the frozen dataclasses must stay hashable after a
round-trip because :class:`~repro.scenarios.runner.ScenarioContext`
memoizes datasets on spec-derived keys.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any

from repro.data.synthetic import SyntheticSpec
from repro.errors import WireProtocolError
from repro.core.participation import ParticipationSpec
from repro.faults import FaultSpec, RetryPolicy
from repro.fl.async_policy import Deadline, WaitForAll, WaitForK
from repro.scenarios.spec import (
    AdversarySpec,
    ChainSpec,
    CohortSpec,
    HeterogeneitySpec,
    ScenarioSpec,
)

_TAG = "__spec__"

#: The closed set of dataclasses allowed inside a wire-encoded spec.
SPEC_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ScenarioSpec,
        CohortSpec,
        AdversarySpec,
        HeterogeneitySpec,
        ChainSpec,
        FaultSpec,
        ParticipationSpec,
        RetryPolicy,
        SyntheticSpec,
        WaitForAll,
        WaitForK,
        Deadline,
    )
}
_SPEC_CLASSES = tuple(SPEC_TYPES.values())


def encode_spec(obj: Any) -> Any:
    """Recursively encode a spec tree into JSON-able primitives."""
    if is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in SPEC_TYPES:
            raise WireProtocolError(f"{name} is not a registered wire spec type")
        return {
            _TAG: name,
            "fields": {spec.name: encode_spec(getattr(obj, spec.name)) for spec in fields(obj)},
        }
    if isinstance(obj, (list, tuple)):
        return [encode_spec(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): encode_spec(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise WireProtocolError(f"cannot wire-encode spec field of type {type(obj).__name__}")


def decode_spec(payload: Any) -> Any:
    """Inverse of :func:`encode_spec`; sequences come back as tuples.

    A spec payload must name exactly its class's fields (the encoder
    writes every one), and a sub-spec slot must hold a registered spec:
    nothing is filled in from a default.
    """
    if isinstance(payload, dict):
        if _TAG in payload:
            cls = SPEC_TYPES.get(payload[_TAG])
            if cls is None:
                raise WireProtocolError(f"unknown wire spec type {payload[_TAG]!r}")
            raw = payload.get("fields", {})
            if not isinstance(raw, dict):
                raise WireProtocolError(f"malformed fields payload for {payload[_TAG]}")
            declared = {spec.name for spec in fields(cls)}
            missing, unknown = sorted(declared - set(raw)), sorted(set(raw) - declared)
            if missing or unknown:
                raise WireProtocolError(
                    f"{payload[_TAG]} lacks fields {missing} and has no field {unknown}"
                )
            values = {key: decode_spec(value) for key, value in raw.items()}
            for spec in fields(cls):
                if spec.default_factory in _SPEC_CLASSES and not isinstance(
                    values[spec.name], _SPEC_CLASSES
                ):
                    raise WireProtocolError(
                        f"{payload[_TAG]}.{spec.name} must be a wire spec, got {raw[spec.name]!r}"
                    )
            return cls(**values)
        return {key: decode_spec(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return tuple(decode_spec(item) for item in payload)
    return payload
