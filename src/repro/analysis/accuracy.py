"""Detection-accuracy evaluation and the Figure 11 parameter sweep."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PIFTConfig
from repro.android.device import RecordedRun
from repro.analysis.replay import replay


@dataclass(frozen=True)
class AppRun:
    """One app's recorded execution plus its ground truth."""

    name: str
    recorded: RecordedRun
    leaks: bool  # ground truth: does the app actually exfiltrate data?
    category: str = ""


@dataclass
class AccuracyReport:
    """Confusion-matrix accounting over a suite, as the paper reports it."""

    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0
    missed_apps: List[str] = field(default_factory=list)
    false_alarm_apps: List[str] = field(default_factory=list)

    def record(self, name: str, leaks: bool, predicted: bool) -> None:
        """Classify one app's verdict against its ground truth."""
        if leaks and predicted:
            self.true_positives += 1
        elif leaks and not predicted:
            self.false_negatives += 1
            self.missed_apps.append(name)
        elif not leaks and predicted:
            self.false_positives += 1
            self.false_alarm_apps.append(name)
        else:
            self.true_negatives += 1

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def accuracy(self) -> float:
        """(TP + TN) / total — the paper's headline metric."""
        return (
            (self.true_positives + self.true_negatives) / self.total
            if self.total
            else 0.0
        )

    @property
    def false_positive_rate(self) -> float:
        benign = self.false_positives + self.true_negatives
        return self.false_positives / benign if benign else 0.0

    @property
    def false_negative_rate(self) -> float:
        leaky = self.true_positives + self.false_negatives
        return self.false_negatives / leaky if leaky else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form (the CLI's ``--json`` output)."""
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "true_negatives": self.true_negatives,
            "false_negatives": self.false_negatives,
            "total": self.total,
            "accuracy": self.accuracy,
            "false_positive_rate": self.false_positive_rate,
            "false_negative_rate": self.false_negative_rate,
            "missed_apps": list(self.missed_apps),
            "false_alarm_apps": list(self.false_alarm_apps),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AccuracyReport":
        """Inverse of :meth:`as_dict` (derived rates are recomputed)."""
        return cls(
            true_positives=payload["true_positives"],
            false_positives=payload["false_positives"],
            true_negatives=payload["true_negatives"],
            false_negatives=payload["false_negatives"],
            missed_apps=list(payload.get("missed_apps", ())),
            false_alarm_apps=list(payload.get("false_alarm_apps", ())),
        )


def evaluate_app(app: AppRun, config: PIFTConfig, telemetry=None) -> bool:
    """Replay one app under ``config``; True when PIFT raises an alarm."""
    return replay(app.recorded, config, telemetry=telemetry).alarm


def evaluate_suite(
    apps: Sequence[AppRun], config: PIFTConfig, telemetry=None
) -> AccuracyReport:
    """Confusion matrix of PIFT verdicts against ground truth."""
    report = AccuracyReport()
    for app in apps:
        report.record(
            app.name, app.leaks, evaluate_app(app, config, telemetry=telemetry)
        )
    return report


def sweep(
    apps: Sequence[AppRun],
    window_sizes: Sequence[int] = range(1, 21),
    propagation_caps: Sequence[int] = range(1, 11),
    untainting: bool = True,
    jobs: int = 1,
    telemetry=None,
    progress=None,
) -> "AccuracyGrid":
    """The Figure 11 heatmap: accuracy over NI x NT.

    Runs on the :mod:`repro.sweep` engine: the grid is expanded to cells
    and evaluated inline (``jobs=1``) or across worker processes on the
    lease dispatcher (``jobs > 1``), which survives worker deaths — with
    identical accuracies either way, since every cell replays the same
    recorded runs.
    """
    from repro.sweep import GridSpec, TraceCache, run_sweep

    spec = GridSpec(
        window_sizes=tuple(window_sizes),
        propagation_caps=tuple(propagation_caps),
        untainting=untainting,
    )
    result = run_sweep(
        spec,
        cache=TraceCache(droidbench=list(apps)),
        jobs=jobs,
        telemetry=telemetry,
        progress=progress,
    )
    grid = np.zeros((len(propagation_caps), len(window_sizes)))
    for cell in result.complete_cells():
        grid.flat[cell.index] = cell.accuracy
    return AccuracyGrid(
        window_sizes=list(window_sizes),
        propagation_caps=list(propagation_caps),
        accuracy=grid,
    )


@dataclass
class AccuracyGrid:
    """Accuracy over the (NI, NT) grid; rows are NT, columns NI."""

    window_sizes: List[int]
    propagation_caps: List[int]
    accuracy: np.ndarray

    def at(self, window_size: int, propagation_cap: int) -> float:
        row = self.propagation_caps.index(propagation_cap)
        column = self.window_sizes.index(window_size)
        return float(self.accuracy[row, column])

    def best(self) -> Tuple[int, int, float]:
        """(NI, NT, accuracy) of the best cell (smallest NI wins ties)."""
        best_value = float(self.accuracy.max())
        for column, window in enumerate(self.window_sizes):
            for row, cap in enumerate(self.propagation_caps):
                if self.accuracy[row, column] == best_value:
                    return window, cap, best_value
        raise RuntimeError("empty grid")

    def render(self) -> str:
        """ASCII heatmap, NT down the side and NI across the top."""
        lines = ["NT\\NI " + " ".join(f"{w:5d}" for w in self.window_sizes)]
        for row, cap in enumerate(self.propagation_caps):
            cells = " ".join(
                f"{self.accuracy[row, column] * 100:5.1f}"
                for column in range(len(self.window_sizes))
            )
            lines.append(f"{cap:5d} {cells}")
        return "\n".join(lines)
