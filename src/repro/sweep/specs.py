"""Pickle-safe work specifications for the parallel sweep engine.

A sweep is a declarative grid of *cells*.  Each :class:`SweepCell` names
everything a worker process needs to evaluate one experiment point —
``(PIFTConfig, fault site + rate, seed, taint-state backend, suites)`` —
using only plain data, so cells cross process boundaries by pickle and a
cell evaluated in a worker process is bit-identical to the same cell
evaluated inline.

Taint-state backends are referenced *by name* (``state_spec``) and
resolved through a registry, because factory callables like a configured
``BoundedRangeCache`` lambda would not survive pickling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.config import PIFTConfig
from repro.core.faults import FaultRates
from repro.core.ranges import RangeSet
from repro.core.taint_storage import paper_default_storage
from repro.core.tracker import StateFactory

_MASK64 = (1 << 64) - 1

#: Named taint-state backends a cell may request.  Extend with
#: :func:`register_state_factory`; keys travel through pickle, factories
#: never do.
STATE_FACTORIES: Dict[str, Callable[[], StateFactory]] = {
    "rangeset": lambda: RangeSet,
    "paper_storage": lambda: paper_default_storage,
}


def register_state_factory(
    name: str, factory_builder: Callable[[], StateFactory]
) -> None:
    """Register a named taint-state backend for sweep cells."""
    STATE_FACTORIES[name] = factory_builder


def resolve_state_factory(name: str) -> StateFactory:
    """Look a ``state_spec`` up in the registry (raises on unknown names)."""
    try:
        return STATE_FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown state_spec {name!r}; known: {sorted(STATE_FACTORIES)}"
        ) from None


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-cell seed: a splitmix64-style mix of (base, index).

    Distinct cells get decorrelated seeds while the whole grid stays a
    pure function of ``base_seed`` — re-running a sweep (serial or
    parallel, any worker count) reproduces every cell bit-for-bit.
    """
    x = (
        base_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9
    ) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SweepCell:
    """One experiment point, fully specified by plain picklable data."""

    index: int
    config: PIFTConfig
    rate: float = 0.0
    site: str = "event_loss"
    seed: int = 1
    base_rates: Optional[FaultRates] = None
    state_spec: str = "rangeset"
    droidbench: bool = True
    malware: bool = False
    #: Run the coloured attribution pass (per-source provenance) on top
    #: of the verdict replay.  Attribution never changes verdicts — the
    #: union projection is byte-identical — so a colour-on cell's
    #: accuracy payload equals the colour-off cell's.
    colours: bool = False

    def key(self) -> Tuple:
        """Stable identity of the cell (used for result bookkeeping).

        The ``colours`` marker is appended *only when set*, so journals
        written before the flag existed still fingerprint-match their
        (colour-off) grids.
        """
        base = (
            self.config.window_size,
            self.config.max_propagations,
            self.config.untainting,
            self.site,
            self.rate,
            self.seed,
            self.state_spec,
        )
        return base + ("colours",) if self.colours else base


@dataclass(frozen=True)
class GridSpec:
    """A declarative ``(NI, NT) × fault-rate`` grid, expanded to cells.

    Cells are yielded row-major over ``propagation_caps`` (rows), then
    ``window_sizes`` (columns), then ``rates`` — the same orientation as
    :class:`repro.analysis.accuracy.AccuracyGrid`.

    ``seed_policy`` chooses how per-cell fault seeds derive from ``seed``:

    * ``"shared"`` (default) — every cell uses the same seed, preserving
      the common-random-numbers coupling that keeps degradation curves
      smooth across rates;
    * ``"per_cell"`` — each cell gets :func:`derive_seed(seed, index)`,
      for experiments that want independent draws per cell.
    """

    window_sizes: Tuple[int, ...]
    propagation_caps: Tuple[int, ...]
    rates: Tuple[float, ...] = (0.0,)
    site: str = "event_loss"
    untainting: bool = True
    seed: int = 1
    seed_policy: str = "shared"
    base_rates: Optional[FaultRates] = None
    state_spec: str = "rangeset"
    droidbench: bool = True
    malware: bool = False
    #: Thread per-source provenance attribution into every cell (see
    #: :attr:`SweepCell.colours`).
    colours: bool = False
    #: Execution-strategy flag threaded into every cell's PIFTConfig;
    #: results are bit-identical either way (the CLI's --no-vectorized
    #: escape hatch flips it off for A/B timing runs).
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.seed_policy not in ("shared", "per_cell"):
            raise ValueError(
                f"seed_policy must be 'shared' or 'per_cell', "
                f"got {self.seed_policy!r}"
            )
        if not self.window_sizes or not self.propagation_caps:
            raise ValueError("grid axes must be non-empty")

    def __len__(self) -> int:
        return (
            len(self.window_sizes)
            * len(self.propagation_caps)
            * len(self.rates)
        )

    def cells(self) -> Iterator[SweepCell]:
        index = 0
        for cap in self.propagation_caps:
            for window in self.window_sizes:
                config = PIFTConfig(
                    window_size=window,
                    max_propagations=cap,
                    untainting=self.untainting,
                    vectorized=self.vectorized,
                )
                for rate in self.rates:
                    seed = (
                        self.seed
                        if self.seed_policy == "shared"
                        else derive_seed(self.seed, index)
                    )
                    yield SweepCell(
                        index=index,
                        config=config,
                        rate=rate,
                        site=self.site,
                        seed=seed,
                        base_rates=self.base_rates,
                        state_spec=self.state_spec,
                        droidbench=self.droidbench,
                        malware=self.malware,
                        colours=self.colours,
                    )
                    index += 1
