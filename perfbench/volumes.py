"""Volume inputs written by the benchmark itself.

The `mixed-volumes` workload must not change when `slicegraph.data` is
refactored, so its files come from this short CTGF v1 encoder and this
generator, not from `slicegraph gen-data`. Writing them is input
preparation, not set-up. The format follows the `write_features`
docstring in `src/slicegraph/data.py`: little-endian magic "CTGF",
version u32, n_nodes u32, d u32, n_labels u32, spacing_z_mm f64, one
byte (0/1) per label, then row-major f32 features.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<4sIIIId")
MAGIC = b"CTGF"
VERSION = 1

D = 16
N_LABELS = 4
LOCAL_LABELS = (0, 1)                # a short contiguous run of rows
LABEL_RATE = 0.3
NOISE_STD = 0.25
_SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}


def encode(features: np.ndarray, labels: np.ndarray, spacing_mm: float) -> bytes:
    """One CTGF v1 file's bytes."""
    n, d = features.shape
    return b"".join([
        HEADER.pack(MAGIC, VERSION, n, d, labels.size, float(spacing_mm)),
        np.asarray(labels, dtype=np.uint8).tobytes(),
        np.ascontiguousarray(features, dtype="<f4").tobytes(),
    ])


def volume(rng: np.random.Generator, n_nodes: tuple[int, int],
           spacings_mm: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, float]:
    """One volume with a learnable label signal; its node count is drawn
    uniformly from the inclusive range `n_nodes`, its spacing from
    `spacings_mm`.

    Every label owns a block of D // N_LABELS feature columns. A positive
    local label raises its block by 1 on a run of about n/8 rows; a positive
    diffuse label raises it by 1/4 on half of the rows.
    """
    n = int(rng.integers(n_nodes[0], n_nodes[1] + 1))
    spacing = float(spacings_mm[rng.integers(len(spacings_mm))])
    labels = (rng.random(N_LABELS) < LABEL_RATE).astype(np.uint8)
    features = rng.normal(0.0, NOISE_STD, size=(n, D))
    width = D // N_LABELS
    for label in np.flatnonzero(labels):
        cols = slice(label * width, (label + 1) * width)
        if label in LOCAL_LABELS:
            span = max(1, round(n / 8))
            start = int(rng.integers(0, n - span + 1))
            features[start:start + span, cols] += 1.0
        else:
            rows = rng.choice(n, size=n // 2, replace=False)
            features[rows, cols] += 0.25
    return features.astype(np.float32), labels, spacing


def write_dataset(out_dir, seed: int, splits: dict[str, int], n_nodes: tuple[int, int],
                  spacings_mm: tuple[float, ...]) -> None:
    """Write numbered CTGF files under `out_dir/<split>/`.

    The files depend on the arguments alone: one generator per split.
    """
    for split, count in splits.items():
        rng = np.random.default_rng([seed, _SPLIT_TAGS[split]])
        directory = Path(out_dir) / split
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            (directory / f"{i:05d}.ctgf").write_bytes(encode(*volume(rng, n_nodes, spacings_mm)))
