"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chain.crypto import KeyPair, verify
from repro.chain.gas import GasMeter, intrinsic_gas
from repro.chain.merkle import merkle_proof, merkle_root, verify_proof
from repro.fl.aggregation import ModelUpdate, fedavg
from repro.fl.async_policy import Deadline, WaitForAll, WaitForK
from repro.nn.serialize import weights_from_bytes, weights_hash, weights_to_bytes
from repro.utils.hashing import hash_object
from repro.utils.serialization import canonical_dumps, canonical_loads

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.binary(max_size=32),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

small_arrays = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
).flatmap(
    lambda shape: st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda values: np.array(values, dtype=np.float64).reshape(shape))
)

weight_dicts = st.dictionaries(
    st.sampled_from(["a/W", "a/b", "b/W", "b/b"]),
    small_arrays,
    min_size=1,
    max_size=3,
)


# ---------------------------------------------------------------------------
# Serialization properties
# ---------------------------------------------------------------------------


@given(json_values)
@settings(max_examples=80)
def test_canonical_round_trip(value):
    restored = canonical_loads(canonical_dumps(value))
    # Tuples normalize to lists; everything else is preserved exactly.
    assert canonical_dumps(restored) == canonical_dumps(value)


@given(json_values)
@settings(max_examples=60)
def test_hash_object_deterministic(value):
    assert hash_object({"v": value}) == hash_object({"v": value})


@given(weight_dicts)
@settings(max_examples=40)
def test_weights_round_trip_and_hash(weights):
    payload = weights_to_bytes(weights)
    restored = weights_from_bytes(payload)
    assert set(restored) == set(weights)
    for key in weights:
        np.testing.assert_array_equal(restored[key], weights[key])
    assert weights_hash(restored) == weights_hash(weights)


# ---------------------------------------------------------------------------
# Merkle properties
# ---------------------------------------------------------------------------


@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=24), st.data())
@settings(max_examples=60)
def test_merkle_every_leaf_verifies(leaves, data):
    root = merkle_root(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = merkle_proof(leaves, index)
    assert verify_proof(leaves[index], proof, root)


@given(st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=12), st.data())
@settings(max_examples=40)
def test_merkle_foreign_leaf_fails(leaves, data):
    root = merkle_root(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = merkle_proof(leaves, index)
    foreign = b"\xff" + leaves[index]
    if foreign not in leaves:
        assert not verify_proof(foreign, proof, root)


# ---------------------------------------------------------------------------
# Crypto properties
# ---------------------------------------------------------------------------


@given(st.binary(min_size=32, max_size=32), st.text(min_size=1, max_size=8))
@settings(max_examples=40)
def test_sign_verify_round_trip(digest, seed):
    kp = KeyPair.from_seed(seed)
    assert verify(kp.public_bundle, digest, kp.sign(digest))


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
@settings(max_examples=40)
def test_signature_does_not_transfer(digest_a, digest_b):
    kp = KeyPair.from_seed("prop")
    sig = kp.sign(digest_a)
    if digest_a != digest_b:
        assert not verify(kp.public_bundle, digest_b, sig)


# ---------------------------------------------------------------------------
# Gas properties
# ---------------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=60)
def test_intrinsic_gas_monotone_in_payload(payload):
    assert intrinsic_gas(payload + b"\x01") > intrinsic_gas(payload)
    assert intrinsic_gas(payload) >= 21_000


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=20))
@settings(max_examples=40)
def test_gas_meter_never_exceeds_limit(charges):
    meter = GasMeter(5_000)
    for charge in charges:
        try:
            meter.charge(charge)
        except Exception:
            break
    assert 0 <= meter.used <= meter.limit


# ---------------------------------------------------------------------------
# Aggregation properties
# ---------------------------------------------------------------------------


def _updates_from(arrays, counts):
    return [
        ModelUpdate(client_id=f"c{i}", weights={"w": array}, num_samples=count)
        for i, (array, count) in enumerate(zip(arrays, counts))
    ]


@given(
    st.lists(small_arrays, min_size=1, max_size=5),
    st.data(),
)
@settings(max_examples=50)
def test_fedavg_within_bounds(arrays, data):
    """FedAvg output lies coordinate-wise within [min, max] of the inputs."""
    shape = arrays[0].shape
    arrays = [a.reshape(shape) if a.shape == shape else None for a in arrays]
    arrays = [a for a in arrays if a is not None]
    counts = data.draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=len(arrays), max_size=len(arrays))
    )
    updates = _updates_from(arrays, counts)
    result = fedavg(updates)["w"]
    stacked = np.stack(arrays)
    # Tolerance must scale with magnitude: the convex combination holds
    # mathematically, but the weighted tensordot rounds by O(|x| * eps),
    # which exceeds any absolute epsilon for large coordinates (hypothesis
    # found |x| ~ 3e7 violating a flat 1e-9).
    tol = 1e-9 + 1e-12 * np.abs(stacked).max(axis=0)
    assert (result >= stacked.min(axis=0) - tol).all()
    assert (result <= stacked.max(axis=0) + tol).all()


@given(small_arrays, st.integers(min_value=1, max_value=100))
@settings(max_examples=40)
def test_fedavg_identity_on_single(array, count):
    result = fedavg(_updates_from([array], [count]))
    np.testing.assert_allclose(result["w"], array)


@given(st.lists(small_arrays, min_size=2, max_size=4), st.data())
@settings(max_examples=40)
def test_fedavg_permutation_invariant(arrays, data):
    shape = arrays[0].shape
    arrays = [a for a in arrays if a.shape == shape]
    counts = data.draw(
        st.lists(st.integers(min_value=1, max_value=50), min_size=len(arrays), max_size=len(arrays))
    )
    updates = _updates_from(arrays, counts)
    permuted = list(reversed(updates))
    np.testing.assert_allclose(fedavg(updates)["w"], fedavg(permuted)["w"], atol=1e-12)


@given(st.lists(small_arrays, min_size=1, max_size=5))
@settings(max_examples=40)
def test_uniform_equals_fedavg_for_equal_counts(arrays):
    shape = arrays[0].shape
    arrays = [a for a in arrays if a.shape == shape]
    updates = _updates_from(arrays, [10] * len(arrays))
    np.testing.assert_allclose(np.mean(arrays, axis=0), fedavg(updates)["w"], atol=1e-12)


# ---------------------------------------------------------------------------
# Async policy properties
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
@settings(max_examples=60)
def test_policies_monotone_in_submissions(submitted, expected, elapsed):
    """Once ready, adding more submissions can never unready a policy."""
    for policy in (WaitForAll(), WaitForK(2), Deadline(seconds=30.0)):
        if policy.ready(submitted, expected, elapsed):
            assert policy.ready(submitted + 1, expected, elapsed)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
@settings(max_examples=40)
def test_wait_for_all_implies_wait_for_k(expected, k):
    """wait-for-all readiness implies wait-for-k readiness (k <= cohort)."""
    policy_all, policy_k = WaitForAll(), WaitForK(k)
    if policy_all.ready(expected, expected, 0.0):
        assert policy_k.ready(expected, expected, 0.0)
