"""Reference tables recorded during the rearing and detector experiments.

These are measured results, not things this package can recompute: the
detector tuning sweep and the per-density test summary require the
trained network and the original imagery. They live with the tests, which
check the metric definitions against the recorded numbers; the sweep
table is read from ``data/`` beside this module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from larvaekit.evaluation import ConfusionCounts

# Ground-truth larvae in the held-out test split every sweep row was
# scored against (the percentage columns are consistent with this total).
TEST_SET_NUM_GT = 1923

# Confusion counts of the selected final detector run on that split.
FINAL_RUN_COUNTS = ConfusionCounts(tp=1851, fp=70, fn=72)


@dataclass(frozen=True)
class SweepRow:
    """One hyperparameter combination from the detector tuning sweep."""

    image_size: int
    epochs: int
    batch_size: int
    conf_threshold: float
    map_train: float
    accuracy_pct: float
    fp_pct: float
    tp: int
    fp: int
    map_test: float


@dataclass(frozen=True)
class DensityReference:
    """Recorded test metrics for one stocking density (train on all)."""

    density: int
    mean_ap: float
    counting_accuracy_pct: float


# Per-density test results of the final model; accuracy falls off as the
# dishes get more crowded.
DENSITY_REFERENCE = (
    DensityReference(50, 0.801, 86.0),
    DensityReference(100, 0.591, 69.6),
    DensityReference(150, 0.648, 72.3),
    DensityReference(200, 0.651, 70.8),
    DensityReference(300, 0.384, 48.8),
    DensityReference(400, 0.321, 40.8),
    DensityReference(500, 0.230, 30.9),
)


def load_tuning_sweep() -> tuple[SweepRow, ...]:
    """The recorded tuning-sweep table (image size x epochs x batch)."""
    text = (Path(__file__).parent / "data" / "detector_tuning_sweep.csv").read_text()
    reader = csv.DictReader(text.splitlines())
    rows = []
    for row in reader:
        rows.append(
            SweepRow(
                image_size=int(row["image_size"]),
                epochs=int(row["epochs"]),
                batch_size=int(row["batch_size"]),
                conf_threshold=float(row["conf_threshold"]),
                map_train=float(row["map_train"]),
                accuracy_pct=float(row["accuracy_pct"]),
                fp_pct=float(row["fp_pct"]),
                tp=int(row["tp"]),
                fp=int(row["fp"]),
                map_test=float(row["map_test"]),
            )
        )
    return tuple(rows)
