"""A lazy bucket queue: the Δ-stepper's outer loop without full scans.

The seed ``fused_delta_stepping`` found each next bucket by rescanning
all *n* tentative distances — ``isfinite(t) & (t >= iΔ)`` plus a min and
a window filter, every bucket — so graphs with many thin buckets (road
meshes, the paper's hardest case) paid O(n · buckets) just to *schedule*
the work.  :class:`BucketQueue` replaces the scans with the standard
lazy bucket index (Meyer & Sanders' ``B[i]`` sets, engineered the way
Dong et al. 2021 engineer their batched PQ):

- every distance improvement is **pushed** with its bucket id
  ``⌊d/Δ⌋`` — an O(improved) append, no global state touched;
- ``pop_bucket`` pops the smallest bucket id off a heap, concatenates
  that bucket's pending chunks, and **lazily validates** against the
  current distances: an entry whose distance has since improved into an
  earlier bucket is simply dropped (its improvement pushed a fresh entry
  there), so no decrease-key ever happens.

Work is O(pushes log buckets) overall instead of O(n) per bucket, and
the frontier a pop returns is exactly the set the seed's window scan
produced (same ascending order), which is what keeps the phase,
relaxation, and update counters bit-compatible with the scan-based
implementations.  Non-empty buckets match too; the scan could
additionally visit (and count) phantom *empty* buckets where its
division-based index misrounds against its product-based window — the
queue, like the Meyer–Sanders reference, never schedules an empty
bucket.

**Threshold extraction.**  The ρ, Δ* and radius schedules extract
every pending vertex with d ≤ θ for a θ read off the pending set, so
they use the buckets only as an index: ``scan`` peeks the pending set
lowest bucket first, ``pop_upto`` pops everything at or below θ, and
``settle`` drops the hints a step has already re-relaxed.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

__all__ = ["BucketQueue"]

_EMPTY: NDArray[np.int64] = np.empty(0, dtype=np.int64)
_EMPTY_D: NDArray[np.float64] = np.empty(0, dtype=np.float64)


class BucketQueue:
    """Pending vertices indexed by distance bucket ``[iΔ, (i+1)Δ)``.

    Entries are *hints*, validated lazily at pop time against the
    authoritative distance array — the structure never needs to find or
    remove a stale entry eagerly.
    """

    def __init__(self, delta: float) -> None:
        if not 0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        self.delta = float(delta)
        self._heap: list[int] = []
        self._members: dict[int, list[NDArray[np.int64]]] = {}
        self._floor = -np.inf  # see settle()

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, vertices: NDArray[np.int64], dists: NDArray[np.float64]) -> None:
        """File *vertices* under the buckets of their (new) *dists*.

        Duplicates across pushes are fine (deduped at pop); distances
        must be finite.
        """
        if len(vertices) == 0:
            return
        b = self._bucket_of(float(dists.min()))
        if self._bucket_of(float(dists.max())) == b:
            # the common case — a relax wave's improvements land in one
            # bucket — needs no per-entry index at all
            self._file(b, vertices)
            return
        # both ends passed _bucket_of's int64 range check
        idx = np.floor_divide(dists, self.delta).astype(np.int64)
        # floor_divide misrounds at bucket boundaries, and once d/Δ grows
        # past 2^53 its error can exceed ±1.  Walk each index — in INTEGER
        # steps, which always advance even where the float products are
        # ulp-starved and b*Δ == (b+1)*Δ — to the fixed point of the
        # invariant  idx*Δ <= d < (idx+1)*Δ  under the EXACT float
        # expressions pop_bucket (and the steppers' window filters) use:
        # `b * Δ` and `(b + 1) * Δ`, never the 1-ulp-different `lo + Δ`.
        # The products are monotone in the index, so a satisfying index
        # always exists; both walks take one step outside the ulp-starved
        # regime and stay bounded (≲ ulp(d)/Δ ≤ 2^11 for int64-valid
        # ratios) inside it.  Running the lower walk first means the
        # upper walk preserves its invariant.
        while True:
            over = idx.astype(np.float64) * self.delta > dists
            if not over.any():
                break
            idx[over] -= 1
        while True:
            under = (idx + 1).astype(np.float64) * self.delta <= dists
            if not under.any():
                break
            idx[under] += 1
        for b in np.unique(idx):
            self._file(int(b), vertices[idx == b])

    def _bucket_of(self, d: float) -> int:
        """The bucket of one distance: the index walk on a scalar."""
        q = d // self.delta
        if not q < 2**62:
            # int64 bucket ids stop here; fail loudly instead of wrapping
            raise OverflowError(
                f"distance/delta ratio too large for bucket indexing (max {q!r}); "
                "increase delta"
            )
        b = int(q)
        while b * self.delta > d:
            b -= 1
        while (b + 1) * self.delta <= d:
            b += 1
        return b

    def push_into(self, bucket: int, vertices: NDArray[np.int64]) -> None:
        """File *vertices* directly under *bucket* (no per-entry indexing).

        For callers that know the bucket analytically — a Δ-stepper's
        light-phase improvements that leave window ``i`` always land in
        bucket ``i + 1`` (weight ≤ Δ from a distance < (i+1)Δ) — this
        skips the floor-divide entirely.  Safe even if an entry later
        improves away: pop-time validation drops stale hints.
        """
        if len(vertices):
            self._file(bucket, vertices)

    def _file(self, b: int, chunk: NDArray[np.int64]) -> None:
        pending = self._members.get(b)
        if pending is None:
            self._members[b] = [chunk]
            heapq.heappush(self._heap, b)
        else:
            pending.append(chunk)

    def _take(
        self, b: int, dist: NDArray[np.float64]
    ) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Pop bucket *b*'s entries, deduped and validated against *dist*:
        ``(keys, their distances)``.

        Validation uses the same ``[bΔ, (b+1)Δ)`` float expressions the
        steppers window with.  An entry below the window or the settled
        floor is stale and dropped; an entry at or above the window's top
        (possible only through float rounding of an analytic
        ``push_into`` hint) is **refiled** under its true bucket, never
        dropped, so no live vertex is lost to a 1-ulp disagreement.
        """
        chunks = self._members.pop(b, None)
        if not chunks:
            return _EMPTY, _EMPTY_D
        if len(chunks) == 1:
            verts = chunks[0]
        else:
            verts = np.unique(np.concatenate(chunks))
        d = dist[verts]
        valid = d >= max(b * self.delta, self._floor)
        late = d >= (b + 1) * self.delta
        # count_nonzero: the cheapest any/all on the small arrays here
        if np.count_nonzero(late):
            self.push(verts[late], d[late])
            valid &= ~late
        if np.count_nonzero(valid) < len(verts):
            verts, d = verts[valid], d[valid]
        return verts, d

    def pop_bucket(
        self, dist: NDArray[np.float64]
    ) -> tuple[int | None, NDArray[np.int64]]:
        """Extract the next non-empty bucket: ``(index, frontier)``.

        The frontier is deduped, ascending, and validated against *dist*
        (see :meth:`_take`).  Returns ``(None, empty)`` when no pending
        work remains.
        """
        while self._heap:
            b = heapq.heappop(self._heap)
            verts, _ = self._take(b, dist)
            if len(verts):
                return b, verts
        return None, _EMPTY

    # -- threshold extraction: the non-grid stepping schedules -------------

    def scan(
        self, dist: NDArray[np.float64]
    ) -> Iterator[tuple[float, NDArray[np.int64], NDArray[np.float64]]]:
        """Peek the pending set, one non-empty bucket at a time, lowest first.

        Yields ``(lo, keys, dists)`` per bucket, validated like a pop and
        filed back in place, so stopping early loses nothing; the pending
        minimum is the first bucket's ``dists.min()``, and every later
        bucket lies at or above its ``lo``.  Entries must come from
        :meth:`push` (a late ``push_into`` hint refiled mid-scan is seen
        by the next scan only).
        """
        for b in sorted(self._heap):
            verts, d = self._take(b, dist)
            # an emptied bucket keeps its heap key; pops skip it
            self._members[b] = [verts] if len(verts) else []
            if len(verts):
                yield b * self.delta, verts, d

    def pop_upto(self, dist: NDArray[np.float64], theta: float) -> NDArray[np.int64]:
        """Extract every pending key with ``dist <= theta`` (deduped).

        Only buckets with ``bΔ <= theta`` are opened, and the keys above
        *theta* in θ's own bucket are refiled; a popped key stays out
        until a later :meth:`push` files it again.
        """
        taken = [_EMPTY]
        while self._heap and self._heap[0] * self.delta <= theta:
            b = heapq.heappop(self._heap)
            verts, d = self._take(b, dist)
            if (b + 1) * self.delta > theta:  # θ's own bucket, the last one
                keep = d <= theta
                self.push_into(b, verts[~keep])
                taken.append(verts[keep])
                break
            taken.append(verts)
        return np.concatenate(taken)

    def settle(self, theta: float) -> None:
        """Raise the settled floor: every key with ``dist <= theta`` has
        been relaxed at its current distance, so a hint still filed for
        one (a key a later wave pulled into the window) is dropped.
        """
        self._floor = float(np.nextafter(theta, np.inf))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BucketQueue<delta={self.delta}, {len(self._heap)} pending buckets>"
