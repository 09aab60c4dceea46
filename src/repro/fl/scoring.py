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
  computed once per engine — distinct test sets can share one cache
  without ever sharing entries.
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
pre-scales each update once (``n_k * w_k``) and walks subsets
depth-first, extending a running left-to-right sum — each subset costs
one tensor add and one scale instead of a stack-and-tensordot over all
members.  The summation order (sorted members, left to right) is fixed.

The pre-scaled rows live in a *row pool*, ``{(update fingerprint,
num_samples): row}``, which the engine's owner passes in as ``rows=``:
:class:`repro.core.shard.PeerShard` hands one dict to every engine it
builds and clears it when a new round begins, so the viewers of a round
— who all read the same read-only updates — build each row once per
shard instead of once per search, and never hold two rounds' rows at
once.  A row is ``np.multiply(w_k, n_k)`` whoever builds it, so sharing
moves no bit.  Rows are laid out like the engines' workspace, so one
pool serves engines of one architecture.  An engine given no pool builds
its rows per search and drops them with it; a search keeps only its
scratch rows (two for greedy, ``limit + 1`` for the exhaustive walk).

Batched evaluation
------------------
No candidate is ever installed into the scratch model (only its shapes
are read).  Every search — the exhaustive walk, a greedy step, the solo
pass, ``threshold_filter``, a single ``solo_accuracy`` — asks a
:class:`_Batch` for each candidate's accuracy in the order the serial
reference would evaluate them.  A request answered by the cache costs
nothing; otherwise the candidate's weights (the running sum, divided) are
written into the next free slot of a :data:`BATCH_WIDTH`-slot workspace —
one per process, shared by every engine of the same architecture — and
when the workspace is full or the step ends, all occupied slots go
through :meth:`repro.nn.model.Sequential.evaluate_stacked` at once: the
layers ahead of the first trained one run once, and the first ``Dense``
multiplies the shared test batch by all candidates in a single GEMM.
Each candidate's logits are bit-for-bit those of a forward pass with it
installed, results are stored and ``instrument`` fires in request order,
and a key requested twice before its batch runs is evaluated once and
counts one cache hit, exactly as if the first request had finished.

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
* the *adopted* combination's weights are materialized with the
  reference aggregator itself (one call per search), so downstream state
  is byte-identical to the serial path.

Aggregated accuracies may differ from the reference by the usual
floating-point reassociation only in the last ulp of the *logits*; the
reported metric is an argmax count, which both suites pin to be equal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations as iter_combinations
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ConfigError, SelectionError
from repro.fl.aggregation import ModelUpdate, _check_compatible, fedavg
from repro.fl.selection import CombinationResult, pick_best
from repro.nn.model import Sequential
from repro.nn.serialize import weights_fingerprint

Aggregator = Callable[[Sequence[ModelUpdate]], dict[str, np.ndarray]]

#: ``{(update fingerprint, num_samples): n_k * w_k row}`` — see the module
#: docstring, "Incremental aggregation".
RowPool = dict[tuple[str, int], np.ndarray]

#: Candidates evaluated per kernel call.  The workspace holds this many
#: weight sets: 8 x 62k float64 parameters = 4 MB for ``simple_nn``, 2.3 %
#: of ``paper3_tradeoff``'s resident set, whose ``peak_rss_mb`` bound is
#: 5 %.  Sixteen slots score ~15 % faster per candidate and cost twice that.
BATCH_WIDTH = 8

#: ``(architecture, stack)``: the process's one candidate workspace, rebuilt
#: when an engine with another architecture needs it.
_WORKSPACE: Optional[tuple[tuple, dict[str, np.ndarray]]] = None


def _workspace(model: Sequential) -> dict[str, np.ndarray]:
    """The shared :data:`BATCH_WIDTH`-slot candidate stack for ``model``."""
    global _WORKSPACE
    architecture = tuple(
        (key, value.shape, value.dtype.str) for key, value in model.parameters().items()
    )
    if _WORKSPACE is None or _WORKSPACE[0] != architecture:
        _WORKSPACE = (architecture, model.candidate_stack(BATCH_WIDTH))
    return _WORKSPACE[1]


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of a test set's sample and label buffers."""
    digest = hashlib.sha256()
    for array in (dataset.x, dataset.y):
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.data)
    return digest.hexdigest()


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


class _Batch:
    """One search step's accuracy requests, answered in request order.

    :meth:`claim` either answers a request (cache hit, or a key already
    waiting in this batch) or hands out a workspace slot for the caller to
    write the candidate's weights into; :meth:`finish` returns one
    accuracy per request.  Dropping a batch (a search that raised) leaves
    nothing behind: slots are scratch and the cache only learns results.
    """

    def __init__(self, engine: "CombinationEngine") -> None:
        self.engine = engine
        #: ``stack[key][slot]`` is where a claimed slot's ``key`` goes.
        self.stack = _workspace(engine.model)
        self.accuracies: list[Optional[float]] = []
        self._slots: dict[object, int] = {}  # key -> request position, in slot order
        self._repeats: list[tuple[int, object]] = []

    def claim(self, key: object) -> Optional[int]:
        """Register a request for ``key``'s accuracy.

        Returns the slot to fill with the candidate's weights, or None
        when no evaluation is needed.
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
        return len(self._slots) - 1

    def _flush(self) -> None:
        engine = self.engine
        if self._slots:
            evaluated = engine.model.evaluate_stacked(
                engine.test_set.x,
                engine.test_set.y,
                self.stack,
                len(self._slots),
                batch_size=engine.batch_size,
            )
            for (key, position), accuracy in zip(self._slots.items(), evaluated):
                engine.cache.store(key, accuracy)
                self.accuracies[position] = accuracy
            self._slots.clear()
        for position, key in self._repeats:
            self.accuracies[position] = engine.cache.lookup(key)
        self._repeats.clear()

    def finish(self) -> list[float]:
        """Evaluate what is still queued; every request's accuracy."""
        self._flush()
        return self.accuracies


class _PackedSums:
    """FedAvg numerators as flat vectors, laid out like the workspace.

    ``scaled[k]`` is update ``k``'s ``n_k * w_k`` with every parameter
    packed end to end — taken from the ``rows`` pool, built into it when
    missing; :attr:`scratch` rows hold running sums,
    so extending a sum by one member is a single vector add.  Each
    parameter lies in its row in the *memory order of its workspace slot*
    (the first ``Dense`` keeps ``W`` transposed), so :meth:`divide_into` —
    the one place a sum becomes candidate weights — streams over
    contiguous memory on both sides.  Element-wise arithmetic never
    reassociates: every value is bit-identical to the per-parameter
    ``(n_a * w_a + n_b * w_b + ...) / n``, whatever the layout.
    """

    def __init__(
        self,
        stack: dict[str, np.ndarray],
        updates: Sequence[ModelUpdate],
        fingerprints: Sequence[str],
        keys: list[str],
        scratch_rows: int,
        rows: Optional[RowPool],
    ) -> None:
        if rows is None:
            rows = {}  # no pool: this search's own rows, dropped with it
        template = updates[0].weights
        self._rooms = [stack[key] for key in keys]  # each parameter's workspace entry
        self._ends = np.cumsum([template[key].size for key in keys]).tolist()
        dtype = template[keys[0]].dtype
        self.scaled = []
        for update, fingerprint in zip(updates, fingerprints):
            row_key = (fingerprint, update.num_samples)
            row = rows.get(row_key)
            if row is None:
                row = rows[row_key] = np.empty(self._ends[-1], dtype=dtype)
                for key, view in zip(keys, self._views(row)):
                    np.multiply(update.weights[key], update.num_samples, out=view)
            self.scaled.append(row)
        self.scratch = np.empty((scratch_rows, self._ends[-1]), dtype=dtype)
        self._scratch_views = [self._views(row) for row in self.scratch]

    def _views(self, row: np.ndarray) -> list[np.ndarray]:
        """``row``'s parameters, each shaped and strided like its slot."""
        views = []
        for room, start, end in zip(self._rooms, [0] + self._ends, self._ends):
            shape = room.shape[1:]
            if room[0].flags.c_contiguous:
                views.append(row[start:end].reshape(shape))
            else:  # Layer.allocate_stack's transposed layout
                views.append(row[start:end].reshape(shape[::-1]).T)
        return views

    def divide_into(self, scratch_row: int, total: int, slot: int) -> None:
        """Write ``scratch[scratch_row] / total`` into workspace ``slot``."""
        for room, view in zip(self._rooms, self._scratch_views[scratch_row]):
            np.divide(view, total, out=room[slot])


def _uniform_float(weights: dict[str, np.ndarray]) -> bool:
    """Whether packing ``weights`` into one vector keeps every parameter's
    arithmetic precision (mixed or integer dtypes would not)."""
    dtypes = {value.dtype for value in weights.values()}
    return len(dtypes) == 1 and np.issubdtype(dtypes.pop(), np.floating)


class CombinationEngine:
    """Batched, memoized combination scorer for one peer.

    One engine wraps one scratch ``model`` (read for its architecture,
    never written) and one private ``test_set`` and exposes the same
    searches as :mod:`repro.fl.selection` — :meth:`enumerate`,
    :meth:`best`, :meth:`greedy`, :meth:`threshold_filter` — with
    identical results (see the module docstring's determinism contract).

    ``instrument``, when set, is called with the cache key of every
    *real* model evaluation, in evaluation order (cache hits never fire
    it).  ``rows``, when given, is the owner's row pool (module docstring,
    "Incremental aggregation"): shared by engines of one architecture and
    cleared by the owner.
    """

    def __init__(
        self,
        model: Sequential,
        test_set: Dataset,
        aggregator: Aggregator = fedavg,
        cache: Optional[EvaluationCache] = None,
        batch_size: int = 512,
        instrument: Optional[Callable[[object], None]] = None,
        rows: Optional[RowPool] = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.test_set = test_set
        self.aggregator = aggregator
        self.cache = cache if cache is not None else EvaluationCache()
        self.batch_size = batch_size
        self.instrument = instrument
        self.rows = rows
        self.test_set_id = dataset_fingerprint(test_set)
        #: Structural subset keys are only valid for the reference FedAvg.
        self._incremental = aggregator is fedavg

    # ------------------------------------------------------------------
    # Scoring primitives
    # ------------------------------------------------------------------

    def _request(self, batch: _Batch, key: object, weights: dict[str, np.ndarray]) -> None:
        """Ask ``batch`` for the accuracy of a raw weight dict."""
        slot = batch.claim(key)
        if slot is not None:
            # Raw dicts arrive from arbitrary callers (threshold_filter,
            # score_weights), so every one is re-validated: a partial dict
            # must never be scored with a previous candidate's leftovers.
            self._check_against_model(batch.stack, weights)
            for name, value in weights.items():
                np.copyto(batch.stack[name][slot], value)

    @staticmethod
    def _check_against_model(stack: dict[str, np.ndarray], weights: dict[str, np.ndarray]) -> None:
        """Keys and shapes must be the model's: np.copyto / ``out=`` would
        otherwise broadcast a mismatch silently."""
        if set(weights) != set(stack):
            raise SelectionError(
                f"weight keys {sorted(weights)} do not match model {sorted(stack)}"
            )
        for name, value in weights.items():
            if stack[name].shape[1:] != np.shape(value):
                raise SelectionError(
                    f"{name}: shape {np.shape(value)} != model {stack[name].shape[1:]}"
                )

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
        """Structural cache key for a FedAvg aggregate (evaluation order)."""
        return ("fedavg", trace, self.test_set_id)

    # ------------------------------------------------------------------
    # Searches
    # ------------------------------------------------------------------

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
        keys = _check_compatible(updates)
        ordered = sorted(updates, key=lambda update: update.client_id)
        limit = min(max_size if max_size is not None else len(ordered), len(ordered))
        if self._incremental:
            scored = self._enumerate_fedavg(ordered, keys, min_size, limit)
        else:
            scored = self._enumerate_generic(ordered, min_size, limit)
        scored.sort(key=lambda result: (-result.accuracy, result.members))
        return scored

    def _enumerate_generic(
        self, ordered: list[ModelUpdate], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Per-subset aggregator calls for non-FedAvg aggregators (keys
        fall back to content hashes of the aggregated weights)."""
        batch = _Batch(self)
        members = []
        for size in range(min_size, limit + 1):
            for subset in iter_combinations(ordered, size):
                weights = self.aggregator(subset)
                self._request(batch, (weights_fingerprint(weights), self.test_set_id), weights)
                members.append(tuple(update.client_id for update in subset))
        return [ScoredSubset(subset, accuracy) for subset, accuracy in zip(members, batch.finish())]

    def _enumerate_fedavg(
        self, ordered: list[ModelUpdate], keys: list[str], min_size: int, limit: int
    ) -> list[ScoredSubset]:
        """Depth-first incremental enumeration (one add + scale per subset).

        Depth ``d`` owns one :class:`_PackedSums` scratch row: a node's
        sum stays valid for its whole subtree, siblings overwrite it only
        after the subtree finishes — the hot loop allocates nothing.  A
        subset's weights exist only as the quotient written into a
        workspace slot at the moment the subset is requested.
        """
        if min_size > limit:
            return []  # the reference's empty size range
        fingerprints = [_fingerprint(update) for update in ordered]
        batch = _Batch(self)
        if limit == 1:
            for update, fingerprint in zip(ordered, fingerprints):
                self._request(batch, (fingerprint, self.test_set_id), update.weights)
            return [
                ScoredSubset((update.client_id,), accuracy)
                for update, accuracy in zip(ordered, batch.finish())
            ]
        template = ordered[0].weights
        if not _uniform_float(template):
            return self._enumerate_generic(ordered, min_size, limit)
        self._check_against_model(batch.stack, template)  # once: the updates agree
        packed = _PackedSums(batch.stack, ordered, fingerprints, keys, limit + 1, self.rows)
        scaled, scratch = packed.scaled, packed.scratch
        out_members: list[tuple[str, ...]] = []
        n = len(ordered)

        def visit(start, members, trace, sums, total) -> None:
            size = len(members) + 1
            for index in range(start, n):
                update = ordered[index]
                new_members = members + (update.client_id,)
                new_trace = trace + ((fingerprints[index], update.num_samples),)
                new_total = total + update.num_samples
                if size == 1:
                    new_sums = scaled[index]
                elif size < limit:
                    new_sums = np.add(sums, scaled[index], out=scratch[size])
                else:
                    new_sums = None  # leaf: only summed if it must be evaluated
                if size >= min_size:
                    out_members.append(new_members)
                    if size == 1:
                        self._request(
                            batch, (fingerprints[index], self.test_set_id), update.weights
                        )
                    else:
                        slot = batch.claim(self._subset_key(new_trace))
                        if slot is not None:
                            if new_sums is None:
                                np.add(sums, scaled[index], out=scratch[size])
                            packed.divide_into(size, new_total, slot)
                if size < limit:
                    visit(index + 1, new_members, new_trace, new_sums, new_total)

        visit(0, (), (), None, 0)
        return [
            ScoredSubset(members, accuracy)
            for members, accuracy in zip(out_members, batch.finish())
        ]

    def materialize(
        self, members: Sequence[str], updates: Sequence[ModelUpdate], accuracy: float
    ) -> CombinationResult:
        """Exact-reference weights for an adopted combination.

        One aggregator call over the members *in the given order* — the
        adopted weights are byte-identical to the serial reference's.
        """
        by_id = {update.client_id: update for update in updates}
        weights = self.aggregator([by_id[member] for member in members])
        return CombinationResult(members=tuple(members), accuracy=accuracy, weights=weights)

    def best(
        self, updates: Sequence[ModelUpdate], rng: Optional[np.random.Generator] = None
    ) -> CombinationResult:
        """Best-scoring subset with the reference tie-break semantics."""
        scored = self.enumerate(updates)
        chosen = pick_best(scored, rng)
        return self.materialize(chosen.members, updates, chosen.accuracy)

    def greedy(
        self, updates: Sequence[ModelUpdate], seed_client: Optional[str] = None
    ) -> CombinationResult:
        """Forward selection replicating the reference step for step.

        With the reference FedAvg, candidate sets are scored from a
        running sum of the chosen members (insertion order) plus the
        candidate and keyed structurally, so each step costs one add +
        scale per candidate and one kernel call per :data:`BATCH_WIDTH`
        candidates; other aggregators pay one aggregator call per
        candidate and content-hash keys.
        """
        if not updates:
            raise SelectionError("no updates to combine")
        keys = _check_compatible(updates)
        pool = {update.client_id: update for update in updates}
        if seed_client is not None:
            if seed_client not in pool:
                raise SelectionError(f"seed client {seed_client!r} not among updates")
            chosen = [pool.pop(seed_client)]
        else:
            solos = self.enumerate(list(pool.values()), min_size=1, max_size=1)
            chosen = [pool.pop(solos[0].members[0])]
        first = chosen[0]
        incremental = self._incremental and _uniform_float(first.weights)
        if incremental:
            stack = _workspace(self.model)
            self._check_against_model(stack, first.weights)  # once: the updates agree
            # Scratch row 0 is the chosen members' running sum, row 1 the
            # candidate's: the same adds, in the same order, as enumerate.
            hashes = [_fingerprint(update) for update in updates]
            packed = _PackedSums(stack, updates, hashes, keys, 2, self.rows)
            scaled = {update.client_id: row for update, row in zip(updates, packed.scaled)}
            fingerprints = {update.client_id: hashed for update, hashed in zip(updates, hashes)}
            trace = ((fingerprints[first.client_id], first.num_samples),)
            sums = scaled[first.client_id]
            total = first.num_samples
            best_acc = self._score((fingerprints[first.client_id], self.test_set_id), first.weights)
        else:
            weights = self.aggregator(chosen)
            best_acc = self._score((weights_fingerprint(weights), self.test_set_id), weights)
        while pool:
            batch = _Batch(self)
            candidates = sorted(pool)
            for client_id in candidates:
                candidate = pool[client_id]
                if not incremental:
                    weights = self.aggregator(chosen + [candidate])
                    self._request(batch, (weights_fingerprint(weights), self.test_set_id), weights)
                    continue
                slot = batch.claim(
                    self._subset_key(trace + ((fingerprints[client_id], candidate.num_samples),))
                )
                if slot is not None:
                    np.add(sums, scaled[client_id], out=packed.scratch[1])
                    packed.divide_into(1, total + candidate.num_samples, slot)
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
