"""Wire codec, typed errors, spec codec, and the served blob store.

Structure:

* frame codec round trips + every truncation/corruption path;
* golden-file fixtures (``tests/fixtures/wire_frames.json``) pinning the
  byte-exact wire format of a ``CallRequest`` rpc, off-chain blob frames,
  and **every** registered error subtype — adding
  a :class:`~repro.errors.GatewayError` subclass to the registry without
  regenerating the fixtures fails loudly;
* the typed-error registry: type and message preserved across
  encode/decode for all 14 classes, graceful degradation for unknowns;
* :mod:`repro.runtime.speccodec` round trips on real scenario specs;
* :class:`~repro.runtime.server.GatewayServer` serving blobs over a real
  socketpair to the :class:`~repro.runtime.gateway.RemoteOffchain`
  mirror — and nothing else — plus a hand-driven peer whose replies
  carry the wrong blobs.

Regenerate fixtures (deliberate format changes only)::

    PYTHONPATH=src python tests/test_runtime_wire.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.offchain import OffchainStore
from repro.errors import GatewayError, SerializationError, WireProtocolError
from repro.nn.serialize import as_archive, weights_to_bytes
from repro.runtime.gateway import RemoteOffchain
from repro.runtime.server import GatewayServer
from repro.runtime.speccodec import decode_spec, encode_spec
from repro.runtime.wire import (
    WIRE_ERROR_TYPES,
    WireChannel,
    WireClosedError,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
)
from repro.scenarios.spec import ScenarioSpec

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_frames.json"


def golden_frames() -> dict:
    return json.loads(FIXTURE_PATH.read_text())["frames"]


def build_golden_frames() -> dict:
    """The checked-in frame set; the single source for --regenerate."""
    frames = {}

    def add(name, header, blobs=()):
        frames[name] = {
            "header": header,
            "blobs": [b.hex() for b in blobs],
            "hex": encode_frame(header, tuple(blobs)).hex(),
        }

    add(
        "rpc_call",
        {
            "kind": "rpc",
            "method": "call",
            "peer": "A",
            "params": {
                "contract": "0xmodelstore",
                "method": "round_submissions",
                "args": {"round_id": 3},
            },
        },
    )
    add(
        "rpc_batch_call",
        {
            "kind": "rpc",
            "method": "batch_call",
            "peer": "B",
            "params": {
                "requests": [
                    {"contract": "0xreputation", "method": "score_of", "args": {"address": "0xaa"}},
                    {"contract": "0xreputation", "method": "score_of", "args": {"address": "0xbb"}},
                ]
            },
        },
    )
    add(
        "rpc_offchain_put",
        {"kind": "rpc", "method": "offchain_put", "params": {}},
        [b"codec-v2 weight payload stand-in"],
    )
    add("rpc_result_with_blob", {"kind": "rpc-result", "value": None}, [b"fetched blob"])
    for name in sorted(WIRE_ERROR_TYPES):
        add(
            f"error_{name}",
            {"kind": "rpc-error", "error": {"type": name, "message": f"boom from {name}"}},
        )
    return frames


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip_with_blobs(self):
        header = {"kind": "task", "op": "train", "params": {"round": 2}}
        blobs = (b"alpha", b"", b"\x00" * 17)
        data = encode_frame(header, blobs)
        assert decode_frame(data) == (header, blobs)

    def test_round_trip_header_only(self):
        assert decode_frame(encode_frame({"kind": "hello", "worker": 0})) == (
            {"kind": "hello", "worker": 0},
            (),
        )

    def test_blobs_key_is_reserved(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"kind": "rpc", "blobs": [1]})

    def test_missing_length_prefix(self):
        with pytest.raises(WireProtocolError):
            decode_frame(b"\x00")

    def test_truncated_header(self):
        data = encode_frame({"kind": "rpc", "method": "now", "params": {}})
        with pytest.raises(WireProtocolError):
            decode_frame(data[:10])

    def test_truncated_blob(self):
        data = encode_frame({"kind": "rpc-result", "value": None}, (b"payload",))
        with pytest.raises(WireProtocolError):
            decode_frame(data[:-3])

    def test_trailing_garbage(self):
        data = encode_frame({"kind": "rpc-result", "value": 1})
        with pytest.raises(WireProtocolError):
            decode_frame(data + b"x")

    def test_header_must_carry_kind(self):
        with pytest.raises(WireProtocolError):
            decode_frame(encode_frame({"kind": "x"}).replace(b'"kind":"x"', b'"king":"x"'))

    def test_unparseable_header(self):
        bad = b"\x00\x00\x00\x04}}}}"
        with pytest.raises(WireProtocolError):
            decode_frame(bad)


class TestWireChannel:
    def test_send_recv_and_byte_accounting(self):
        left_sock, right_sock = socket.socketpair()
        left, right = WireChannel(left_sock), WireChannel(right_sock)
        try:
            sent = left.send({"kind": "rpc", "method": "now", "params": {}}, (b"blob",))
            header, blobs, received = right.recv()
            assert header == {"kind": "rpc", "method": "now", "params": {}}
            assert blobs == (b"blob",)
            assert sent == received == left.bytes_sent == right.bytes_received
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_raises_closed(self):
        left_sock, right_sock = socket.socketpair()
        right = WireChannel(right_sock)
        try:
            left_sock.sendall(b"\x00\x00\x00\xff")  # promises a 255-byte header
            left_sock.close()
            with pytest.raises(WireClosedError):
                right.recv()
        finally:
            right.close()


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------


class TestGoldenFrames:
    def test_fixture_file_matches_builder(self):
        # The checked-in file IS the builder's output: any wire-format
        # drift (codec, key order, error registry) shows up as a diff.
        assert golden_frames() == build_golden_frames()

    @pytest.mark.parametrize("name", sorted(build_golden_frames()))
    def test_encode_reproduces_pinned_bytes(self, name):
        entry = golden_frames()[name]
        blobs = tuple(bytes.fromhex(b) for b in entry["blobs"])
        assert encode_frame(entry["header"], blobs).hex() == entry["hex"]

    @pytest.mark.parametrize("name", sorted(build_golden_frames()))
    def test_decode_recovers_header_and_blobs(self, name):
        entry = golden_frames()[name]
        header, blobs = decode_frame(bytes.fromhex(entry["hex"]))
        assert header == entry["header"]
        assert [b.hex() for b in blobs] == entry["blobs"]

    def test_every_registered_error_has_a_fixture(self):
        frames = golden_frames()
        for name in WIRE_ERROR_TYPES:
            assert f"error_{name}" in frames, (
                f"{name} is wire-registered but has no golden frame — "
                "regenerate tests/fixtures/wire_frames.json"
            )

    @pytest.mark.parametrize("name", sorted(WIRE_ERROR_TYPES))
    def test_error_fixture_decodes_to_typed_exception(self, name):
        entry = golden_frames()[f"error_{name}"]
        header, _ = decode_frame(bytes.fromhex(entry["hex"]))
        exc = decode_error(header["error"])
        assert type(exc) is WIRE_ERROR_TYPES[name]
        assert str(exc) == f"boom from {name}"


# ---------------------------------------------------------------------------
# Typed-error registry
# ---------------------------------------------------------------------------


class TestErrorCodec:
    @pytest.mark.parametrize("name", sorted(WIRE_ERROR_TYPES))
    def test_type_and_message_preserved(self, name):
        original = WIRE_ERROR_TYPES[name](f"failure detail for {name}")
        rebuilt = decode_error(encode_error(original))
        assert type(rebuilt) is type(original)
        assert str(rebuilt) == str(original)

    def test_unregistered_exception_degrades_to_gateway_error(self):
        payload = encode_error(ValueError("odd"))
        assert payload["type"] == "GatewayError"
        assert isinstance(decode_error(payload), GatewayError)

    def test_unknown_remote_type_keeps_name_in_message(self):
        exc = decode_error({"type": "FutureError", "message": "from v99"})
        assert type(exc) is GatewayError
        assert "FutureError" in str(exc) and "from v99" in str(exc)


# ---------------------------------------------------------------------------
# Spec codec
# ---------------------------------------------------------------------------


class TestSpecCodec:
    def test_quick_spec_round_trips_equal(self):
        spec = ScenarioSpec(name="wire", kind="decentralized", seed=3).quick()
        payload = encode_spec(spec)
        # The chain axis moved to repro.chain.spec; its wire tag did not.
        assert payload["fields"]["chain"]["__spec__"] == "ChainSpec"
        rebuilt = decode_spec(payload)
        assert rebuilt == spec

    def test_removed_field_rejected_typed(self):
        """A peer still sending a deleted knob gets a protocol error, not a
        ``TypeError`` traceback out of the dataclass constructor."""
        for path, name in ((("chain", "fields"), "poll_interval"), ((), "selection_workers")):
            payload = encode_spec(ScenarioSpec(name="wire", kind="decentralized", seed=3))
            fields = payload["fields"]
            for key in path:
                fields = fields[key]
            fields[name] = 1
            with pytest.raises(WireProtocolError, match=name):
                decode_spec(payload)

    def test_multiprocess_fields_survive(self):
        spec = dataclasses.replace(
            ScenarioSpec(name="wire", kind="decentralized", seed=3).quick(),
            runtime="multiprocess",
            runtime_workers=4,
        )
        rebuilt = decode_spec(encode_spec(spec))
        assert rebuilt.runtime == "multiprocess"
        assert rebuilt.runtime_workers == 4
        assert rebuilt == spec

    def test_payload_survives_json_round_trip(self):
        # The encoded form is exactly what rides the init task frame.
        spec = ScenarioSpec(name="wire", kind="decentralized", seed=9).quick()
        payload = json.loads(json.dumps(encode_spec(spec)))
        assert decode_spec(payload) == spec


# ---------------------------------------------------------------------------
# Served blob store over a real socketpair
# ---------------------------------------------------------------------------


class ServedStore:
    """A GatewayServer pumping one socketpair end on a daemon thread."""

    def __init__(self, offchain=None):
        self.offchain = offchain if offchain is not None else OffchainStore()
        self.server = GatewayServer(self.offchain)
        server_sock, client_sock = socket.socketpair()
        self.server_channel = WireChannel(server_sock)
        self.client_channel = WireChannel(client_sock)
        self.thread = threading.Thread(
            target=self.server.serve_channel, args=(self.server_channel,), daemon=True
        )
        self.thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.client_channel.close()
        self.server_channel.close()
        self.thread.join(timeout=10)


class TestServedStore:
    def test_server_serves_blobs_only(self):
        # Workers hold no ledger access: a ledger or write RPC is unknown.
        server = GatewayServer(OffchainStore())
        for method in ("call", "submit", "next_nonce", "wait_for", "offchain_put"):
            with pytest.raises(WireProtocolError, match=f"unknown rpc method '{method}'"):
                server.dispatch(method, {})


def answer_once(channel: WireChannel, blobs: tuple[bytes, ...]) -> threading.Thread:
    """A hand-driven peer: read one rpc frame, reply ``rpc-result`` with
    exactly ``blobs`` (right or wrong), then stop."""

    def serve():
        channel.recv()
        channel.send({"kind": "rpc-result", "value": None}, blobs)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestRemoteOffchain:
    def test_put_archive_stays_in_the_mirror(self):
        # A worker's writes travel in its task result, never as an RPC.
        store = OffchainStore()
        with ServedStore(offchain=store) as served:
            remote = RemoteOffchain(served.client_channel)
            archive = as_archive({"w": np.arange(4, dtype=np.float32)})
            key = remote.put_archive(archive)
            assert key not in store
            assert remote.get(key) == archive.payload
            assert served.client_channel.bytes_sent == 0

    def test_missing_blob_is_serialization_error(self):
        with ServedStore() as served:
            remote = RemoteOffchain(served.client_channel)
            with pytest.raises(SerializationError):
                remote.get("0" * 64)

    @pytest.fixture
    def hand_driven(self):
        """``(peer, remote)``: a RemoteOffchain whose coordinator end is
        driven by the test through :func:`answer_once`."""
        peer_sock, client_sock = socket.socketpair()
        peer, client = WireChannel(peer_sock), WireChannel(client_sock)
        yield peer, RemoteOffchain(client)
        peer.close()
        client.close()

    @staticmethod
    def wanted_and_other() -> tuple[bytes, bytes]:
        return (
            weights_to_bytes({"w": np.arange(4, dtype=np.float32)}),
            weights_to_bytes({"w": np.ones(4, dtype=np.float32)}),
        )

    @pytest.mark.parametrize("read", ["get", "get_weights"])
    @pytest.mark.parametrize(
        "reply,error",
        [("none", "returned 0 blobs"), ("two", "returned 2 blobs"), ("wrong", "blob mismatch")],
    )
    def test_bad_reply_blobs_are_a_protocol_error(self, hand_driven, read, reply, error):
        peer, remote = hand_driven
        wanted, other = self.wanted_and_other()
        key = OffchainStore().put(wanted)
        blobs = {"none": (), "two": (wanted, wanted), "wrong": (other,)}[reply]
        thread = answer_once(peer, blobs)
        with pytest.raises(WireProtocolError, match=error):
            getattr(remote, read)(key)
        thread.join(timeout=10)
        assert key not in remote._mirror  # nothing asked for was kept

    @pytest.mark.parametrize("read", ["get", "get_weights"])
    def test_one_matching_blob_is_mirrored(self, hand_driven, read):
        peer, remote = hand_driven
        wanted, _ = self.wanted_and_other()
        key = OffchainStore().put(wanted)
        thread = answer_once(peer, (wanted,))
        got = getattr(remote, read)(key)
        thread.join(timeout=10)
        if read == "get":
            assert got == wanted
        else:
            assert list(got["w"]) == [0.0, 1.0, 2.0, 3.0]
        # Mirrored: served locally from now on, nothing more is sent.
        sent = remote.channel.bytes_sent
        assert key in remote._mirror and getattr(remote, read)(key) is not None
        assert remote.channel.bytes_sent == sent

    @pytest.mark.parametrize(
        "reply,error",
        [("short", "returned 1 blobs, expected 2"), ("unasked", "blob mismatch")],
        ids=["short", "unasked"],
    )
    def test_fetch_reply_must_carry_every_requested_blob(self, hand_driven, reply, error):
        # The coordinator only hands a worker keys its store holds, so a
        # reply that drops one (or swaps in another) is a protocol error.
        peer, remote = hand_driven
        wanted, other = self.wanted_and_other()
        third = weights_to_bytes({"w": np.full(4, 2.0, dtype=np.float32)})
        keys = [OffchainStore().put(wanted), OffchainStore().put(third)]
        blobs = {"short": (wanted,), "unasked": (wanted, other)}[reply]
        thread = answer_once(peer, blobs)
        with pytest.raises(WireProtocolError, match=error):
            remote.fetch_available(keys)
        thread.join(timeout=10)
        assert not any(key in remote._mirror for key in keys)

    def test_fetch_available_matches_local_store_semantics(self):
        store = OffchainStore()
        weights_a = {"w": np.arange(4, dtype=np.float32)}
        weights_b = {"w": np.ones(4, dtype=np.float32)}
        key_a = store.put(weights_to_bytes(weights_a))
        key_b = store.put(weights_to_bytes(weights_b))
        with ServedStore(offchain=store) as served:
            remote = RemoteOffchain(served.client_channel)
            got = remote.fetch_available([key_a, key_b, key_a])
            assert list(got) == [key_a, key_b]  # deduplicated, first-seen order
            np.testing.assert_array_equal(got[key_a]["w"], weights_a["w"])
            np.testing.assert_array_equal(got[key_b]["w"], weights_b["w"])
            assert remote.stats.rpc_round_trips == 1  # one batch RPC
            # Mirrored: a re-fetch costs zero additional round trips.
            again = remote.fetch_available([key_b, key_a])
            assert list(again) == [key_b, key_a]
            assert remote.stats.rpc_round_trips == 1

    def test_fetching_a_key_the_coordinator_lacks_is_a_protocol_error(self):
        store = OffchainStore()
        key = store.put(weights_to_bytes({"w": np.arange(4, dtype=np.float32)}))
        with ServedStore(offchain=store) as served:
            remote = RemoteOffchain(served.client_channel)
            with pytest.raises(WireProtocolError, match="returned 1 blobs, expected 2"):
                remote.fetch_available([key, "0x" + "f" * 64])


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        payload = {
            "_comment": (
                "Golden wire frames for repro.runtime.wire. Regenerate only on a "
                "deliberate wire-format change: "
                "PYTHONPATH=src python tests/test_runtime_wire.py --regenerate"
            ),
            "frames": build_golden_frames(),
        }
        FIXTURE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE_PATH}")
    else:
        sys.exit(pytest.main([__file__, "-q"]))
