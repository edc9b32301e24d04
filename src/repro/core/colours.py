"""Multi-colour taint: per-source provenance labels ("colours").

A single tainted/untainted bit cannot say *which* source (IMEI vs GPS vs
phone number) reached a sink.  Multi-tag DIFT hardware widens the tag
each range carries instead, and so does this package: every range of a
:class:`~repro.core.ranges.RangeSet` carries a ``uint64`` colour mask.
This module holds :class:`ColourSpace`, the deterministic registry that
maps source names to single-bit labels in that mask (first registration
wins bit order).

Semantics (the *union tracker* model, documented in DESIGN.md):

* a tainted load's window carries the OR of every overlapped range's
  mask; in-window stores taint their target with that window mask;
* an untaint removes the bytes wholesale, regardless of colour — an
  overwrite destroys all taint, so the tainted/untainted *classification*
  of every event is colour-blind by construction;
* adjacent intervals coalesce only when their masks are equal, so with a
  single registered colour every mask is identical and the interval
  structure — and therefore every verdict, counter, and golden trace —
  is byte-identical to the plain tracker's, whose every range carries
  mask 1 (the parity suite in ``tests/property/test_colour_parity.py``
  enforces this).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class ColourSpace:
    """Deterministic name → colour-bit registry (64 bits wide).

    Colours are allocated in first-registration order.  Beyond
    :data:`MAX_COLOURS` distinct names, further names alias the last bit:
    the union projection (any non-zero mask == tainted) stays exact, and
    attribution degrades gracefully to "one of the overflow sources".
    """

    MAX_COLOURS = 64

    def __init__(self, names: Tuple[str, ...] = ()) -> None:
        self._names: List[str] = []
        self._bits: Dict[str, int] = {}
        for name in names:
            self.register(name)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._bits

    def register(self, name: str) -> int:
        """Return ``name``'s mask bit, allocating the next bit on first use."""
        mask = self._bits.get(name)
        if mask is None:
            index = min(len(self._names), self.MAX_COLOURS - 1)
            mask = 1 << index
            self._names.append(name)
            self._bits[name] = mask
        return mask

    def mask_of(self, name: str) -> int:
        """The registered mask for ``name`` (KeyError when unknown)."""
        return self._bits[name]

    def names_for(self, mask: int) -> Tuple[str, ...]:
        """All registered names whose bit is set in ``mask``, in
        registration order (deterministic, so attribution tuples are
        comparable across runs)."""
        if not mask:
            return ()
        return tuple(n for n in self._names if self._bits[n] & mask)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def snapshot(self) -> dict:
        return {"names": list(self._names)}

    @classmethod
    def from_snapshot(cls, payload: dict) -> "ColourSpace":
        names = payload["names"]
        if type(names) is not list or not all(
            type(name) is str for name in names
        ):
            raise ValueError("snapshot colour names must be a list of strings")
        return cls(tuple(names))
