"""PIFT configuration — the tainting-window parameters and feature toggles.

The paper evaluates ``NI`` (tainting-window size, in instructions) over
``[1, 20]`` and ``NT`` (maximum taint propagations per window) over
``[1, 10]``, finding 98% DroidBench accuracy at ``(NI, NT) = (13, 3)`` and
100% at ``(18, 3)``; the seven malware samples are all caught at ``(3, 2)``.
Untainting (removing the target range of out-of-window stores) is the
paper's §3.2 option that cuts tainted-region size ~26x (Figure 18).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class PIFTConfig:
    """Parameters of the taint-propagation heuristic (Algorithm 1).

    Attributes:
        window_size: ``NI`` — number of instructions after a tainted load
            during which stores are taint candidates.
        max_propagations: ``NT`` — upper bound on the number of stores
            tainted inside one tainting window.
        untainting: when True, a store that falls outside every tainting
            window (or past the NT cap) has its target range *removed* from
            the taint state, modelling overwrite with non-sensitive data.
        vectorized: when True (the default) the tracker's batched column
            path may use the numpy pre-filter kernel
            (:mod:`repro.core.vectorized`) to skip runs of provably
            irrelevant events.  An execution-strategy flag, not a
            semantics knob — results are bit-identical either way
            (``tests/property/test_batch_parity.py``); the CLI exposes
            ``--no-vectorized`` as the escape hatch.
    """

    window_size: int = 13
    max_propagations: int = 3
    untainting: bool = True
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size (NI) must be >= 1, got {self.window_size}")
        if self.max_propagations < 1:
            raise ValueError(
                f"max_propagations (NT) must be >= 1, got {self.max_propagations}"
            )

    @property
    def ni(self) -> int:
        """Paper notation alias for :attr:`window_size`."""
        return self.window_size

    @property
    def nt(self) -> int:
        """Paper notation alias for :attr:`max_propagations`."""
        return self.max_propagations

    def with_untainting(self, enabled: bool) -> "PIFTConfig":
        return replace(self, untainting=enabled)

    def __str__(self) -> str:
        tag = "untaint" if self.untainting else "no-untaint"
        return f"PIFT(NI={self.window_size}, NT={self.max_propagations}, {tag})"


class OverflowPolicy(enum.Enum):
    """What the buffered design point does when its event FIFO is full.

    The paper's §1 buffered alternative never specifies the overflow
    behaviour; these are the four realistic hardware responses:

    * ``BLOCK`` — stall the front end and drain a batch (today's
      drain-on-full; prevention-friendly, costs latency);
    * ``DROP_OLDEST`` — overwrite the head of the FIFO (a ring buffer);
      the tracker loses the *stalest* events;
    * ``DROP_NEWEST`` — refuse the incoming event (a guarded FIFO); the
      tracker loses the *freshest* events;
    * ``SPILL`` — write a batch of the oldest events back to main
      memory (unbounded secondary queue); nothing is lost, but drains
      must also work through the spill.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    DROP_NEWEST = "drop_newest"
    SPILL = "spill"


def checked_buffer_params(
    capacity: int,
    drain_batch: int,
    high_watermark: Optional[int] = None,
    low_watermark: Optional[int] = None,
) -> Tuple[int, int]:
    """Check the §1 buffered design point's FIFO parameters.

    ``capacity`` (events the FIFO holds) and ``drain_batch`` (events per
    drain step, and per spill burst under :attr:`OverflowPolicy.SPILL`)
    must be at least 1.  The high watermark, where backpressure engages
    (default ``capacity``), must lie in ``[1, capacity]``; the low one,
    where it releases (default half the high watermark), in
    ``[0, high)``.  Returns the effective ``(high, low)`` watermarks;
    anything else raises :class:`ValueError`.
    """
    if capacity < 1 or drain_batch < 1:
        raise ValueError("capacity and drain_batch must be >= 1")
    high = capacity if high_watermark is None else high_watermark
    if not 1 <= high <= capacity:
        raise ValueError(
            f"high_watermark must be in [1, capacity], got {high}"
        )
    low = high // 2 if low_watermark is None else low_watermark
    if not 0 <= low < high:
        raise ValueError(
            f"low_watermark must be in [0, high_watermark), got {low}"
        )
    return high, low


#: The accuracy-optimal setting from the paper's Figure 11 discussion.
PAPER_DEFAULT = PIFTConfig(window_size=13, max_propagations=3)

#: The setting at which DroidBench accuracy reaches 100% in the paper.
PAPER_PERFECT = PIFTConfig(window_size=18, max_propagations=3)

#: The small window that already catches all seven real-world malware.
PAPER_MALWARE_MINIMUM = PIFTConfig(window_size=3, max_propagations=2)
