"""Batched, memoized combination-scoring engine.

The paper's "consider" aggregation makes every peer score subsets of the
models it received on its private test set each round.  The seed
implementation (:mod:`repro.fl.selection`) pays, per subset, one full
FedAvg recompute (stack + tensordot over every member), a save/restore of
the scratch model, and one forward pass of its own.  This module is the
fast path; :mod:`repro.fl.selection` remains the serial reference it is
tested against.

Memoization key
---------------
Every accuracy ever computed is cached in an :class:`EvaluationCache`
under a **content-addressed** key ``(weights_id, test_set_id)``:

* ``test_set_id`` is a SHA-256 over the test set's ``x``/``y`` buffers,
  computed once per :class:`~repro.data.dataset.Dataset` object — distinct
  test sets can share one cache without ever sharing entries.
* For raw weight dicts (solo models, external callers) ``weights_id`` is
  :func:`~repro.nn.serialize.weights_fingerprint`, a SHA-256 over the
  sorted ``(key, dtype, shape, buffer)`` stream, so a *mutated* weight
  dict never produces a stale hit.  Updates fetched from the off-chain
  store arrive read-only with that value already attached
  (``ModelUpdate.fingerprint``, hashed once per committed model, not once
  per reader); hand-built updates are hashed here.
* For subsets the engine aggregates itself, ``weights_id`` is derived
  structurally: ``("fedavg", ((member_id, num_samples), ...))`` in
  evaluation order, where each ``member_id`` is the member's content
  hash.  The aggregate is a pure function of that tuple, so the derived
  key is content-addressed by construction — without hashing the
  aggregated buffers on the hot path.

A single-member subset *is* its member's weights bit-for-bit (FedAvg's
``n/n = 1.0`` coefficient is exact), so solo subsets are keyed by the raw
content hash.  That one identity is what lets
:func:`CombinationEngine.threshold_filter` and the reputation rating pass
(:meth:`repro.core.shard.PeerShard.rate`) reuse the
solo scores computed during enumeration instead of re-evaluating them.

Incremental aggregation
-----------------------
FedAvg over a subset is ``(sum_k n_k * w_k) / (sum_k n_k)``.  The engine
pre-scales each update once into a *row*, walks subsets depth-first
extending a running left-to-right sum of rows — one vector add per subset
— and divides a sum by its sample total only when the subset has to be
evaluated.  The summation order (sorted members, left to right) is fixed.

FedAvg is linear and so is a ``Dense``: ``X @ ((sum_k n_k W_k) / N) +
(sum_k n_k b_k) / N`` equals ``(sum_k n_k (X @ W_k + b_k)) / N``.  An
engine requires the first parameterised layer to be a ``Dense`` — both
registered models' is — and raises :class:`~repro.errors.ConfigError` on
any other architecture.  The **split** falls after that ``Dense``: a
search starts with one *activation pass*, each update's ``Z_k = X @ W_k +
b_k`` on this engine's test set, and a row is ``n_k * [Z_k ; the
parameters after the split]`` — 3 000 + 754 floats for ``simple_nn`` on
150 samples instead of 62 214, and ``Z_k`` alone for
``efficientnet_b0_sim``, whose candidates' logits are then the FedAvg of
the solo logits.  The pass is one GEMM per ``batch_size`` chunk of the
test set by the *first-layer stack*, all ``K`` updates' ``W_k`` side by
side, which the viewers of a round share.  The 3072-wide product is paid
once per (viewer, update), never per candidate.

Rows are keyed ``(update fingerprint, num_samples)`` on the engine and
**search-scoped**: they are built when :meth:`CombinationEngine.enumerate`
or :meth:`~CombinationEngine.greedy` first needs them — greedy's solo pass
and its steps share one set — and released when the outermost search
returns.  Between searches an engine holds scores, never rows.  Packing
needs one float dtype shared by the updates, the model and the test
inputs; anything else is aggregated per subset by
:func:`~repro.fl.aggregation.fedavg` itself and keyed by content hash.

Batched evaluation
------------------
No candidate is ever installed into the scratch model (only its shapes
are read).  Every search — the exhaustive walk, a greedy step, the solo
pass, ``threshold_filter``, a single ``solo_accuracy`` — asks a
:class:`_Batch` for each candidate's accuracy in the order the serial
reference would evaluate them.  A request answered by the cache costs
nothing; otherwise the candidate (a row sum, divided) is written into the
next free of :data:`BATCH_WIDTH` slots, and when the slots are full or
the step ends all of them go through
:meth:`repro.nn.model.Sequential.predict_stacked` at once, *from the
split on*: the layers after it run on each candidate's own averaged
pre-activations.  Results are stored and ``instrument`` fires in request
order, and a key requested twice before its batch runs is evaluated once
and counts one cache hit, exactly as if the first request had finished.

Past the activation pass the per-candidate cost is element-wise-bound,
not FLOP-bound: a row-sum add and divide, two skinny per-candidate GEMMs
(``simple_nn``: 20 -> 24 -> 10), two ReLUs, an argmax and the guard, each
over a few hundred KB.  Memory traffic, temporaries and numpy call
overhead set its pace, so that tail allocates one array per step where it
can and reduces over contiguous rows (``ReLU.forward``, :func:`_decided`).

Raw weight dicts (``threshold_filter``, ``solo_accuracy``,
``score_weights``, a non-packable subset's aggregate) are copied into a
process-wide workspace of :data:`BATCH_WIDTH` whole weight sets and scored
from the first layer by :meth:`~repro.nn.model.Sequential.evaluate_stacked`,
bit for bit a forward pass with the dict installed — the **exact kernel**,
which is also what re-scores any candidate the guard below does not pass.

Determinism contract
--------------------
For both strategies (exhaustive, greedy) the engine returns the same
chosen members, the same accuracy table, and consumes tie-break RNG
draws exactly like the serial reference in :mod:`repro.fl.selection`:

* subsets are enumerated in a fixed order and re-sorted by
  ``(-accuracy, members)`` exactly like the reference;
* tie-breaking happens in the caller via
  :func:`repro.fl.selection.pick_best` with the caller's RNG, so the
  stream sees one draw per multi-way tie, same as the reference;
* the *adopted* combination's weights are materialized with
  :func:`~repro.fl.aggregation.fedavg` itself (one call per search), so
  downstream state is byte-identical to the serial path.

Aggregated accuracies may differ from the reference by the usual
floating-point reassociation only in the last ulp of the *logits*; the
reported metric is an argmax count, which both suites pin to be equal.
Averaging after the first ``Dense`` instead of before it is one more
reassociation, summing ``Z_k`` in one wide GEMM instead of ``X @ W_k``
alone another, and the **guard** keeps both out of the count: a candidate's
activation-space score is accepted only if, for every test sample, the
winning logit leads the runner-up by more than :data:`GUARD` times the
candidate's largest ``|logit|`` — a comparison NaN and inf logits (a
poisoned update) fail.  Every other candidate, exact ties included, is
rebuilt in weight space — the same left-to-right ``(n_a w_a + n_b w_b +
...) / n`` the rows add up, a single member being its own weights bit for
bit — and re-scored by the exact kernel; :attr:`CombinationEngine.rechecked`
counts them.  Why :data:`GUARD` is enough: a length-``m`` dot product
summed in any order lies within ``m * 2**-53`` of ``sum_i |x_i| |w_i|``
(``m = 3072``: 3.4e-13), so the two orders' pre-activations differ by about
that much of the magnitude they were summed from; ReLU passes a difference
on at most unchanged, and the parameters after the split are element-wise
identical on both paths, so each later ``Dense`` scales it by at most its
operator norm.  The logits therefore agree to ``~1e-12`` of (first-layer
magnitude x tail norms), and an argmax can differ only where a gap is
smaller than that.  :data:`GUARD` leaves six orders for the ratio of that
magnitude to the largest logit — cancellation that deep would leave the
logits themselves without a correct digit.  Measured on the driver-outcome
specs the deviation is below ``1e-13`` of the largest logit
(``tests/test_fl_scoring_activation.py`` holds it a thousand times under
:data:`GUARD`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import combinations as iter_combinations
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError, SelectionError
from repro.fl.aggregation import ModelUpdate, _check_compatible, fedavg
from repro.fl.selection import CombinationResult, pick_best
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.nn.serialize import weights_fingerprint

#: Candidates evaluated per kernel call.  The workspace holds this many
#: weight sets: 8 x 62k float64 parameters = 4 MB for ``simple_nn``, 2.3 %
#: of ``paper3_tradeoff``'s resident set, whose ``peak_rss_mb`` bound is 5 %.
#: Sixteen slots score ~15 % faster per candidate and cost twice that.
BATCH_WIDTH = 8

#: A row-space score stands only where every sample's top-two logit gap
#: exceeds this fraction of the candidate's largest ``|logit|`` (module
#: docstring, "Determinism contract"); seven orders above the measured
#: reassociation error.
GUARD = 1e-6

#: ``(architecture, stack)``: the process's one whole-weights workspace,
#: rebuilt when an engine with another architecture needs it.
_WORKSPACE: Optional[tuple[tuple, dict[str, np.ndarray]]] = None

#: ``(row keys, (W, b))``: the process's one first-layer stack, rebuilt
#: when an activation pass covers other updates (:func:`_first_layer`).
_FIRST_LAYER: Optional[tuple[tuple, tuple[np.ndarray, ...]]] = None


def _workspace(model: Sequential) -> dict[str, np.ndarray]:
    """The shared :data:`BATCH_WIDTH`-slot candidate stack for ``model``."""
    global _WORKSPACE
    architecture = tuple(
        (key, value.shape, value.dtype.str) for key, value in model.parameters().items()
    )
    if _WORKSPACE is None or _WORKSPACE[0] != architecture:
        _WORKSPACE = (architecture, model.candidate_stack(BATCH_WIDTH))
    return _WORKSPACE[1]


def _split(model: Sequential) -> int:
    """How many leading layers an activation pass stands in for: through
    the first parameterised layer, which must be a plain ``Dense`` — its
    output is linear in ``(W, b)``, so FedAvg commutes with it."""
    for index, layer in enumerate(model.layers):
        if layer.params:
            if type(layer) is Dense:
                return index + 1
            break
    raise ConfigError(f"{model.name!r}: the first layer with parameters must be a Dense")


def _first_layer(
    missing: list[tuple[tuple[str, int], ModelUpdate]], head: list[str], dtype: np.dtype
) -> tuple[np.ndarray, ...]:
    """``(W, b)``: ``missing``'s split-``Dense`` parameters side by side, ``W``
    one C-contiguous ``(fan_in, K * units)`` matrix.  Every viewer whose pass
    covers the same updates in the same order shares it; the key is their
    row keys, content hashes, so a hit is never stale."""
    global _FIRST_LAYER
    keys = tuple(key for key, _update in missing)
    if _FIRST_LAYER is None or _FIRST_LAYER[0] != keys:
        _FIRST_LAYER = None  # the old stack goes before the new one is built
        stack = [[update.weights[name] for _key, update in missing] for name in head]
        _FIRST_LAYER = (keys, tuple(np.concatenate(part, -1, dtype=dtype) for part in stack))
    return _FIRST_LAYER[1]


def _decided(logits: np.ndarray) -> np.ndarray:
    """Per candidate of ``(count, batch, classes)`` logits: does every
    sample's winner lead by more than the guard (NaN and inf never do).

    ``top - logit`` falls as ``logit`` rises, rounding included, so "every
    other class trails the top by more than ``reach``" is exactly "the
    runner-up does".  The top itself (and a tie for it) leads by 0, never
    more than ``reach >= 0``; so a candidate passes when all but one class
    per sample clear.  Class-major, every reduction runs over contiguous
    rows instead of ten-element ones.
    """
    count, batch, classes = logits.shape
    if classes < 2:
        return np.ones(count, dtype=bool)  # one class: no argmax to move
    by_class = logits.transpose(2, 0, 1).copy()  # a copy: lead is written into it
    # inf - inf is NaN, which compares False; an overflowed lead is inf,
    # which clears any finite reach, as it should.
    with np.errstate(invalid="ignore", over="ignore"):
        reach = GUARD * np.abs(logits).max(axis=(1, 2))
        lead = np.subtract(by_class.max(axis=0), by_class, out=by_class)
        clear = lead > reach[:, None]
    return clear.sum(axis=(0, 2)) == (classes - 1) * batch


def _install_fedavg(
    stack: dict[str, np.ndarray], members: Sequence[ModelUpdate], slot: int
) -> None:
    """Write ``members``' FedAvg, in weight space, into workspace ``slot``.

    Element for element the sum the rows run: ``n_a * w_a`` plus each later
    ``n_k * w_k`` left to right, over the sample total; a single member is
    its own weights bit for bit.
    """
    first = members[0]
    if len(members) == 1:
        for name, room in stack.items():
            np.copyto(room[slot], first.weights[name])
        return
    total = sum(member.num_samples for member in members)
    for name, room in stack.items():
        sums = np.multiply(first.weights[name], first.num_samples)
        for member in members[1:]:
            sums += np.multiply(member.weights[name], member.num_samples)
        np.divide(sums, total, out=room[slot])


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of a test set's sample and label buffers, once per
    ``Dataset`` object (whose arrays are immutable by contract)."""
    if dataset.fingerprint is None:
        digest = hashlib.sha256()
        for array in (dataset.x, dataset.y):
            array = np.ascontiguousarray(array)
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(array.data)
        dataset.fingerprint = digest.hexdigest()
    return dataset.fingerprint


def _fingerprint(update: ModelUpdate) -> str:
    """The update's content hash: carried if known, else hashed now."""
    return update.fingerprint or weights_fingerprint(update.weights)


class EvaluationCache:
    """Content-addressed accuracy store shared across searches.

    Keys are ``(weights_id, test_set_id)`` tuples (see the module
    docstring).  ``stats`` counts ``hits`` (served from cache) and
    ``misses`` (real model evaluations run by the owning engine).
    """

    def __init__(self) -> None:
        self._entries: dict[object, float] = {}
        self.stats = {"hits": 0, "misses": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: object) -> Optional[float]:
        """Cached accuracy for ``key``, counting the hit; None on miss."""
        value = self._entries.get(key)
        if value is not None:
            self.stats["hits"] += 1
        return value

    def store(self, key: object, accuracy: float) -> None:
        """Record a freshly evaluated accuracy (counts one miss)."""
        self.stats["misses"] += 1
        self._entries[key] = accuracy

    def clear(self) -> None:
        """Drop all entries; cumulative stats are kept."""
        self._entries.clear()


@dataclass(frozen=True)
class ScoredSubset:
    """One scored combination: membership and local-test accuracy."""

    members: tuple[str, ...]
    accuracy: float

    @property
    def label(self) -> str:
        """Human-readable combination label, e.g. ``"A,B,C"``."""
        return ",".join(self.members)


class _PackedSums:
    """FedAvg numerators as flat rows, and the slots their quotients fill.

    ``scaled[k]`` is update ``k``'s row — ``n_k`` times the leading
    ``Dense``'s outputs on the engine's test set followed by its parameters
    after the split (module docstring, "Incremental aggregation") — taken
    from the engine's search-scoped rows, built into them when missing.
    :attr:`scratch` rows hold running sums, so extending a sum by one
    member is a single vector add.  :attr:`slots` is laid out like a row:
    :meth:`divide_into`, the one place a sum becomes a candidate, is one
    vector divide, and :attr:`inputs` / :attr:`stack` are the views of the
    slots that :meth:`evaluate` hands the layers after the split.
    Element-wise arithmetic never reassociates: every parameter after the
    split is bit-identical to ``(n_a * w_a + n_b * w_b + ...) / n``.
    """

    def __init__(
        self,
        engine: "CombinationEngine",
        updates: Sequence[ModelUpdate],
        fingerprints: Sequence[str],
        scratch_rows: int,
    ) -> None:
        self.engine = engine
        params = engine.model.parameters()
        samples = len(engine.test_set.x)
        dense = engine.model.layers[engine.split - 1]
        #: The split Dense's parameters: in no row, their product is.
        self._head = [f"{dense.name}/{name}" for name in dense.params]
        tail = [key for key in params if key not in self._head]
        ends = np.cumsum([samples * dense.units] + [params[key].size for key in tail]).tolist()
        self._tail = list(zip(tail, zip(ends, ends[1:])))
        dtype = engine.test_set.x.dtype
        self.slots = np.empty((BATCH_WIDTH, ends[-1]), dtype=dtype)
        self.inputs = self.slots[:, : ends[0]].reshape(BATCH_WIDTH, samples, dense.units)
        self.stack = {
            key: self.slots[:, begin:end].reshape((BATCH_WIDTH,) + params[key].shape)
            for key, (begin, end) in self._tail
        }
        row_keys = [
            (fingerprint, update.num_samples)
            for update, fingerprint in zip(updates, fingerprints)
        ]
        missing = list(
            {  # a dict: updates of equal bytes and count share one row
                key: update for key, update in zip(row_keys, updates) if key not in engine._rows
            }.items()
        )
        if missing:
            self._build(missing)
        self.scaled = [engine._rows[key] for key in row_keys]
        self.scratch = np.empty((scratch_rows, ends[-1]), dtype=dtype)

    def _build(self, missing: list[tuple[tuple[str, int], ModelUpdate]]) -> None:
        """Rows for ``missing``'s updates: one activation pass.

        Each ``batch_size`` chunk of the test inputs is multiplied by the
        round's first-layer stack (:func:`_first_layer`) in one GEMM,
        ``K * units`` columns wide, and each update's column block, times
        its sample count, lands in its row.
        """
        engine = self.engine
        for key, update in missing:
            engine._check_against_model(update.weights)
            row = engine._rows[key] = np.empty_like(self.slots[0])
            for name, (begin, end) in self._tail:
                np.multiply(update.weights[name].reshape(-1), update.num_samples, out=row[begin:end])
        weights, bias = _first_layer(missing, self._head, self.slots.dtype)
        activations = [  # each row's leading (samples, units) block
            engine._rows[key][: self.inputs[0].size].reshape(self.inputs.shape[1:])
            for key, _update in missing
        ]
        x, enter = engine.test_inputs()
        for begin in range(0, len(x), engine.batch_size):
            chunk = slice(begin, begin + engine.batch_size)
            inputs = x[chunk]
            for layer in engine.model.layers[enter : engine.split - 1]:
                inputs = layer.forward(inputs, training=False)  # parameterless
            product = (inputs @ weights + bias).reshape(len(inputs), len(missing), -1)
            for index, (_key, update) in enumerate(missing):
                np.multiply(product[:, index], update.num_samples, out=activations[index][chunk])

    def divide_into(self, sums: np.ndarray, total: int, slot: int) -> None:
        """Write ``sums / total`` — a candidate — into ``slot``."""
        np.divide(sums, total, out=self.slots[slot])

    def evaluate(self, count: int) -> tuple[list[float], np.ndarray]:
        """Accuracy of each of the first ``count`` slots, from the split on,
        and whether the guard lets each stand."""
        engine = self.engine
        y = engine.test_set.y
        correct = np.zeros(count, dtype=np.int64)
        decided = np.ones(count, dtype=bool)
        for begin in range(0, len(y), engine.batch_size):
            chunk = slice(begin, begin + engine.batch_size)
            logits = engine.model.predict_stacked(
                self.inputs[:count, chunk], self.stack, count, start=engine.split
            )
            correct += (logits.argmax(axis=2) == y[chunk]).sum(axis=1)
            decided &= _decided(logits)
        return [int(hits) / len(y) if len(y) else 0.0 for hits in correct], decided


class _Batch:
    """One search step's accuracy requests, answered in request order.

    :meth:`claim` either answers a request (cache hit, or a key already
    waiting in this batch) or hands out a slot for the caller to write the
    candidate into — a slot of ``packed`` when the batch scores row sums,
    of the whole-weights workspace (:attr:`stack`) when it scores raw
    dicts; :meth:`finish` returns one accuracy per request.  Dropping a
    batch (a search that raised) leaves nothing behind: slots are scratch
    and the cache only learns results.
    """

    def __init__(self, engine: "CombinationEngine", packed: Optional[_PackedSums] = None) -> None:
        self.engine = engine
        self.packed = packed
        #: ``stack[key][slot]`` is where a raw dict's ``key`` goes.
        self.stack = _workspace(engine.model)
        self.accuracies: list[Optional[float]] = []
        self._slots: dict[object, int] = {}  # key -> request position, in slot order
        self._members: list[Sequence[ModelUpdate]] = []  # per slot, for the exact kernel
        self._repeats: list[tuple[int, object]] = []

    def claim(self, key: object, members: Sequence[ModelUpdate] = ()) -> Optional[int]:
        """Register a request for ``key``'s accuracy.

        Returns the slot to fill with the candidate, or None when no
        evaluation is needed.  ``members`` are the updates a row sum
        averages, in order: what re-scores it if the guard objects.
        """
        engine = self.engine
        position = len(self.accuracies)
        cached = engine.cache.lookup(key)
        self.accuracies.append(cached)
        if cached is not None:
            return None
        if key in self._slots:
            self._repeats.append((position, key))
            return None
        if len(self._slots) == BATCH_WIDTH:
            self._flush()
        if engine.instrument is not None:
            engine.instrument(key)
        self._slots[key] = position
        self._members.append(members)
        return len(self._slots) - 1

    def _exact(self, count: int) -> list[float]:
        """The exact kernel over the workspace's first ``count`` slots."""
        engine = self.engine
        x, enter = engine.test_inputs()
        return engine.model.evaluate_stacked(
            x, engine.test_set.y, self.stack, count, batch_size=engine.batch_size, start=enter
        )

    def _flush(self) -> None:
        engine = self.engine
        if self._slots:
            if self.packed is None:
                evaluated = self._exact(len(self._slots))
            else:
                evaluated, decided = self.packed.evaluate(len(self._slots))
                doubted = np.flatnonzero(~decided).tolist()
                if doubted:
                    for index, slot in enumerate(doubted):
                        _install_fedavg(self.stack, self._members[slot], index)
                    for slot, accuracy in zip(doubted, self._exact(len(doubted))):
                        evaluated[slot] = accuracy
                    engine.rechecked += len(doubted)
            for (key, position), accuracy in zip(self._slots.items(), evaluated):
                engine.cache.store(key, accuracy)
                self.accuracies[position] = accuracy
            self._slots.clear()
            self._members.clear()
        for position, key in self._repeats:
            self.accuracies[position] = engine.cache.lookup(key)
        self._repeats.clear()

    def finish(self) -> list[float]:
        """Evaluate what is still queued; every request's accuracy."""
        self._flush()
        return self.accuracies


def _search_scoped(search):
    """Give ``search`` the engine's row store for as long as the outermost
    decorated call runs (greedy's solo pass is a nested ``enumerate``)."""

    @functools.wraps(search)
    def scoped(self, *args, **kwargs):
        if self._rows is not None:
            return search(self, *args, **kwargs)
        self._rows = {}
        try:
            return search(self, *args, **kwargs)
        finally:
            self._rows = None

    return scoped


class CombinationEngine:
    """Batched, memoized combination scorer for one peer.

    One engine wraps one scratch ``model`` (read for its architecture,
    never written) and one private ``test_set`` and exposes the same
    searches as :mod:`repro.fl.selection` — :meth:`enumerate`,
    :meth:`best`, :meth:`greedy`, :meth:`threshold_filter` — with
    identical results (see the module docstring's determinism contract).
    The model's first layer with parameters must be a ``Dense``; any other
    architecture raises :class:`~repro.errors.ConfigError` here.

    ``instrument``, when set, is called with the cache key of every
    *real* model evaluation, in evaluation order (cache hits never fire
    it).  :attr:`rechecked` counts the candidates the guard sent to the
    exact kernel.
    """

    #: Every engine aggregates with ``fedavg``, so subsets are summed from
    #: rows and keyed structurally whenever the updates pack
    #: (:meth:`_packable`).  Constant; kept only because the perf harness's
    #: tracer test reads it.
    _incremental = True

    def __init__(
        self,
        model: Sequential,
        test_set: Dataset,
        cache: Optional[EvaluationCache] = None,
        batch_size: int = 512,
        instrument: Optional[Callable[[object], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        #: Leading layers an activation pass stands in for (:func:`_split`).
        self.split = _split(model)
        self.model = model
        self.test_set = test_set
        self.cache = cache if cache is not None else EvaluationCache()
        self.batch_size = batch_size
        self.instrument = instrument
        self.rechecked = 0
        self.test_set_id = dataset_fingerprint(test_set)
        #: ``{(update fingerprint, num_samples): row}`` while a search runs.
        self._rows: Optional[dict[tuple[str, int], np.ndarray]] = None

    # ------------------------------------------------------------------
    # Scoring primitives
    # ------------------------------------------------------------------

    def test_inputs(self) -> tuple[np.ndarray, int]:
        """``(x, start)``: the test samples as the input of layer ``start``
        — past the model's frozen prefix when ``batch_size``-row chunks of
        its memoised features are exact, else the samples and 0."""
        return self.model.inputs(self.test_set).chunked(self.batch_size)

    def _request(self, batch: _Batch, key: object, weights: dict[str, np.ndarray]) -> None:
        """Ask ``batch`` for the accuracy of a raw weight dict."""
        slot = batch.claim(key)
        if slot is not None:
            # Raw dicts arrive from arbitrary callers (threshold_filter,
            # score_weights), so every one is re-validated: a partial dict
            # must never be scored with a previous candidate's leftovers.
            self._check_against_model(weights)
            for name, value in weights.items():
                np.copyto(batch.stack[name][slot], value)

    def _check_against_model(self, weights: dict[str, np.ndarray]) -> None:
        """Keys and shapes must be the model's: np.copyto / ``out=`` would
        otherwise broadcast a mismatch silently."""
        params = self.model.parameters()
        if set(weights) != set(params):
            raise SelectionError(
                f"weight keys {sorted(weights)} do not match model {sorted(params)}"
            )
        for name, value in weights.items():
            if params[name].shape != np.shape(value):
                raise SelectionError(
                    f"{name}: shape {np.shape(value)} != model {params[name].shape}"
                )

    def _packable(self, weights: dict[str, np.ndarray]) -> bool:
        """Whether rows of one vector keep every parameter's arithmetic:
        the updates, the model and the test inputs share one float dtype
        (mixed or integer dtypes would be computed in another precision)."""
        dtypes = {value.dtype for value in weights.values()}
        dtypes.add(self.test_set.x.dtype)
        dtypes.update(value.dtype for value in self.model.parameters().values())
        return len(dtypes) == 1 and np.issubdtype(dtypes.pop(), np.floating)

    def _score(self, key: object, weights: dict[str, np.ndarray]) -> float:
        batch = _Batch(self)
        self._request(batch, key, weights)
        return batch.finish()[0]

    def solo_key(self, update: ModelUpdate) -> tuple[str, str]:
        """Cache key of one update's raw weights on this test set."""
        return (_fingerprint(update), self.test_set_id)

    def solo_accuracy(self, update: ModelUpdate) -> float:
        """Accuracy of one update's own model (cached)."""
        return self._score(self.solo_key(update), update.weights)

    def score_weights(self, weights: dict[str, np.ndarray]) -> float:
        """Accuracy of an arbitrary weight dict (content-hash cached)."""
        return self._score((weights_fingerprint(weights), self.test_set_id), weights)

    def _subset_key(self, trace: tuple[tuple[str, int], ...]) -> tuple:
        """Structural cache key for a FedAvg aggregate (evaluation order);
        a single member's is its solo key."""
        if len(trace) == 1:
            return (trace[0][0], self.test_set_id)
        return ("fedavg", trace, self.test_set_id)

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------

    @_search_scoped
    def enumerate(
        self,
        updates: Sequence[ModelUpdate],
        min_size: int = 1,
        max_size: Optional[int] = None,
    ) -> list[ScoredSubset]:
        """Score every subset with ``min_size <= |S| <= max_size``.

        Output is sorted by ``(-accuracy, members)`` — the reference
        ordering of :func:`repro.fl.selection.enumerate_combinations`.
        """
        if not updates:
            raise SelectionError("no updates to combine")
        if min_size < 1:
            raise SelectionError(f"min_size must be >= 1, got {min_size}")
        _check_compatible(updates)
        ordered = sorted(updates, key=lambda update: update.client_id)
        limit = min(max_size if max_size is not None else len(ordered), len(ordered))
        if min_size > limit:
            scored = []  # the reference's empty size range
        elif self._packable(ordered[0].weights):
            scored = self._enumerate_fedavg(ordered, min_size, limit)
        else:
            scored = self._enumerate_generic(ordered, min_size, limit)
        scored.sort(key=lambda result: (-result.accuracy, result.members))
        return scored

    def _enumerate_generic(
        self, ordered: list[ModelUpdate], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Per-subset ``fedavg`` calls for updates that do not pack into
        rows (keys fall back to content hashes of the aggregated weights)."""
        batch = _Batch(self)
        members = []
        for size in range(min_size, limit + 1):
            for subset in iter_combinations(ordered, size):
                weights = fedavg(subset)
                self._request(batch, (weights_fingerprint(weights), self.test_set_id), weights)
                members.append(tuple(update.client_id for update in subset))
        return [ScoredSubset(subset, accuracy) for subset, accuracy in zip(members, batch.finish())]

    def _enumerate_fedavg(
        self, ordered: list[ModelUpdate], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Depth-first incremental enumeration (one add + scale per subset).

        Depth ``d`` owns one :class:`_PackedSums` scratch row: a node's
        sum stays valid for its whole subtree, siblings overwrite it only
        after the subtree finishes — the hot loop allocates nothing.  A
        candidate exists only as the quotient written into a slot at the
        moment the subset is requested.
        """
        fingerprints = [_fingerprint(update) for update in ordered]
        packed = _PackedSums(self, ordered, fingerprints, limit + 1)
        batch = _Batch(self, packed)
        scaled, scratch = packed.scaled, packed.scratch
        out_subsets: list[tuple[ModelUpdate, ...]] = []
        n = len(ordered)

        def visit(start, chosen, trace, sums, total) -> None:
            size = len(chosen) + 1
            for index in range(start, n):
                update = ordered[index]
                new_chosen = chosen + (update,)
                new_trace = trace + ((fingerprints[index], update.num_samples),)
                new_total = total + update.num_samples
                if size == 1:
                    new_sums = scaled[index]
                elif size < limit:
                    new_sums = np.add(sums, scaled[index], out=scratch[size])
                else:
                    new_sums = None  # leaf: only summed if it must be evaluated
                if size >= min_size:
                    out_subsets.append(new_chosen)
                    slot = batch.claim(self._subset_key(new_trace), new_chosen)
                    if slot is not None:
                        if new_sums is None:
                            new_sums = np.add(sums, scaled[index], out=scratch[size])
                        packed.divide_into(new_sums, new_total, slot)
                if size < limit:
                    visit(index + 1, new_chosen, new_trace, new_sums, new_total)

        visit(0, (), (), None, 0)
        return [
            ScoredSubset(tuple(update.client_id for update in subset), accuracy)
            for subset, accuracy in zip(out_subsets, batch.finish())
        ]

    def materialize(
        self, members: Sequence[str], updates: Sequence[ModelUpdate], accuracy: float
    ) -> CombinationResult:
        """Exact-reference weights for an adopted combination.

        One ``fedavg`` call over the members *in the given order* — the
        adopted weights are byte-identical to the serial reference's.
        """
        by_id = {update.client_id: update for update in updates}
        weights = fedavg([by_id[member] for member in members])
        return CombinationResult(members=tuple(members), accuracy=accuracy, weights=weights)

    def best(
        self, updates: Sequence[ModelUpdate], rng: Optional[np.random.Generator] = None
    ) -> CombinationResult:
        """Best-scoring subset with the reference tie-break semantics."""
        scored = self.enumerate(updates)
        chosen = pick_best(scored, rng)
        return self.materialize(chosen.members, updates, chosen.accuracy)

    @_search_scoped
    def greedy(
        self, updates: Sequence[ModelUpdate], seed_client: Optional[str] = None
    ) -> CombinationResult:
        """Forward selection replicating the reference step for step.

        Candidate sets are scored from a running sum of the chosen
        members' rows (insertion order) plus the candidate's and keyed
        structurally, so each step costs one add + scale per candidate and
        one kernel call per :data:`BATCH_WIDTH` candidates — on the rows
        the solo pass already built; updates that do not pack into rows
        pay one ``fedavg`` call per candidate and content-hash keys.
        """
        if not updates:
            raise SelectionError("no updates to combine")
        _check_compatible(updates)
        pool = {update.client_id: update for update in updates}
        if seed_client is not None:
            if seed_client not in pool:
                raise SelectionError(f"seed client {seed_client!r} not among updates")
            chosen = [pool.pop(seed_client)]
        else:
            solos = self.enumerate(list(pool.values()), min_size=1, max_size=1)
            chosen = [pool.pop(solos[0].members[0])]
        first = chosen[0]
        incremental = self._packable(first.weights)
        if incremental:
            # Scratch row 0 is the chosen members' running sum, row 1 the
            # candidate's: the same adds, in the same order, as enumerate.
            hashes = [_fingerprint(update) for update in updates]
            packed = _PackedSums(self, updates, hashes, 2)
            scaled = {update.client_id: row for update, row in zip(updates, packed.scaled)}
            fingerprints = {update.client_id: hashed for update, hashed in zip(updates, hashes)}
            trace = ((fingerprints[first.client_id], first.num_samples),)
            sums = scaled[first.client_id]
            total = first.num_samples
            best_acc = self._score(self._subset_key(trace), first.weights)
        else:
            packed = None
            weights = fedavg(chosen)
            best_acc = self._score((weights_fingerprint(weights), self.test_set_id), weights)
        while pool:
            batch = _Batch(self, packed)
            candidates = sorted(pool)
            for client_id in candidates:
                candidate = pool[client_id]
                if not incremental:
                    weights = fedavg(chosen + [candidate])
                    self._request(batch, (weights_fingerprint(weights), self.test_set_id), weights)
                    continue
                slot = batch.claim(
                    self._subset_key(trace + ((fingerprints[client_id], candidate.num_samples),)),
                    chosen + [candidate],
                )
                if slot is not None:
                    np.add(sums, scaled[client_id], out=packed.scratch[1])
                    packed.divide_into(packed.scratch[1], total + candidate.num_samples, slot)
            best_candidate = None
            for client_id, accuracy in zip(candidates, batch.finish()):
                if accuracy > best_acc:
                    best_acc = accuracy
                    best_candidate = client_id
            if best_candidate is None:
                break
            candidate = pool.pop(best_candidate)
            chosen.append(candidate)
            if incremental:
                sums = np.add(sums, scaled[best_candidate], out=packed.scratch[0])
                total += candidate.num_samples
                trace = trace + ((fingerprints[best_candidate], candidate.num_samples),)
        return self.materialize(
            tuple(update.client_id for update in chosen), updates, best_acc
        )

    def threshold_filter(
        self,
        updates: Sequence[ModelUpdate],
        threshold: float,
        always_keep: Optional[str] = None,
    ) -> list[ModelUpdate]:
        """Reference fitness gate, served from the solo-score cache."""
        ordered = sorted(updates, key=lambda update: update.client_id)
        batch = _Batch(self)
        for update in ordered:
            if update.client_id != always_keep:
                self._request(batch, self.solo_key(update), update.weights)
        accuracies = iter(batch.finish())  # one per update not always kept
        kept = [
            update
            for update in ordered
            if update.client_id == always_keep or next(accuracies) >= threshold
        ]
        if not kept:
            raise SelectionError(f"no update passed threshold {threshold}")
        return kept
