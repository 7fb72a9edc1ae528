"""The PMI global key-value store.

One logical store per job.  Writes land in per-daemon *staging* areas
and only become globally visible when a fence commits them — the
:class:`KeyValueStore` tracks the commit epoch so tests can assert the
Put/Fence/Get visibility contract.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..errors import PMIError

__all__ = ["KeyValueStore"]


class KeyValueStore:
    """Committed portion of the PMI KVS (shared by all daemons)."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self.epoch = 0
        #: Single-slot memo for :meth:`get_range` (see below).
        self._range_key: Optional[tuple] = None
        self._range_values: Optional[List[Any]] = None
        #: Invariant sanitizer (installed by ``Job`` if ``config.check``).
        self.check = None

    def commit(self, staged: Dict[str, Any]) -> None:
        """Merge a batch of staged puts; bumps the commit epoch."""
        overlap = set(staged) & set(self._data)
        if overlap:
            raise PMIError(f"duplicate KVS keys committed: {sorted(overlap)[:5]}")
        prev_epoch = self.epoch
        self._data.update(staged)
        self.epoch += 1
        # The memo is keyed by the pre-commit epoch, which can never
        # match a future lookup — dropping it here frees the dead
        # directory instead of pinning one per epoch for the job's
        # lifetime (pure host memory; no simulated cost either way).
        self._range_key = None
        self._range_values = None
        if self.check is not None:
            self.check.on_kvs_commit(self, prev_epoch)

    def get(self, key: str) -> Any:
        try:
            return self._data[key]
        except KeyError:
            raise PMIError(f"KVS key not found (missing fence?): {key!r}") from None

    def get_many(self, keys: Iterable[str]) -> List[Any]:
        return [self.get(k) for k in keys]

    def get_range(self, prefix: str, count: int) -> List[Any]:
        """Values of ``f"{prefix}{i}"`` for ``i in range(count)``.

        The job-wide endpoint directory is fetched with exactly this
        shape by *every* PE after the same fence — building the key
        list and probing the dict N times per PE is O(N^2) host work
        with no timing meaning (the per-entry parse cost is charged by
        the PMI client either way).  A single-slot memo keyed by
        ``(prefix, count, epoch)`` makes it O(N) per job; callers must
        treat the returned list as read-only.
        """
        memo_key = (prefix, count, self.epoch)
        if self._range_key == memo_key:
            if self.check is not None:
                self.check.on_range_memo_hit(
                    self, prefix, count, self._range_values
                )
            return self._range_values
        values = [self.get(f"{prefix}{i}") for i in range(count)]
        self._range_key, self._range_values = memo_key, values
        return values

    def contains(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)
