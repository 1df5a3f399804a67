"""Synthetic multi-label volumes, axial shifts, and the feature-file format.

Each sample is a (n_nodes, d) float32 feature matrix standing in for a
stack of encoded slice triplets, plus binary labels. Positive labels
plant a signal on top of Gaussian noise: "local" labels mark a short
contiguous run of rows, "diffuse" labels sprinkle a weaker signal over
about half the rows. Every label owns a disjoint block of feature
dimensions, so the tasks stay linearly separable in the noise-free
limit.

Generation uses one counter-based RNG per sample, keyed by
(seed, split, index), so samples can be produced in any order or in
parallel without changing the data.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadMagicError, BinaryFormatError, TruncatedPayloadError, VersionMismatchError

__all__ = [
    "Sample",
    "SynthTaskConfig",
    "label_subspace",
    "generate_sample",
    "generate_split",
    "generate_task",
    "apply_z_shift",
    "write_features",
    "read_features",
    "write_dataset",
    "read_dataset",
    "FEATURE_MAGIC",
]

FEATURE_MAGIC = b"CTGF"
FEATURE_VERSION = 1

_HEADER = struct.Struct("<4sIIIId")

_SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}

# Files per bulk read in `read_dataset`: enough that the per-chunk numpy
# checks cost little per file, few enough that a chunk's file bytes add
# little to peak memory over the samples kept.
_CHUNK = 256


@dataclass(frozen=True)
class Sample:
    """One volume: float32 features (n_nodes, d), binary labels, z spacing in mm."""

    features: np.ndarray
    labels: np.ndarray
    spacing_z_mm: float

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] < 2:
            raise ValueError(f"a volume needs at least 2 nodes, got {self.features.shape[0]}")
        if self.features.shape[1] < 1:
            raise ValueError("a volume needs at least 1 feature column, got 0")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.labels.size < 1:
            raise ValueError("a sample needs at least 1 label, got 0")
        if not 0 < self.spacing_z_mm < np.inf:
            raise ValueError(f"spacing_z_mm must be positive and finite, got {self.spacing_z_mm}")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be binary (0/1)")


@dataclass(frozen=True)
class SynthTaskConfig:
    """Synthetic task settings. Defaults are the small desk-scale task."""

    n_nodes: int = 20
    d: int = 16
    n_labels: int = 4
    n_train: int = 2000
    n_val: int = 500
    n_test: int = 500
    local_labels: tuple[int, ...] = (0, 1)
    diffuse_labels: tuple[int, ...] = (2, 3)
    label_rate: float = 0.3
    signal_scale: float = 1.0
    noise_std: float = 0.25
    spacing_z_mm: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {self.n_labels}")
        if self.d < self.n_labels:
            raise ValueError(
                f"d={self.d} too small: every one of the {self.n_labels} labels "
                "needs its own feature block"
            )
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValueError("every split needs at least one sample")
        if not 0.0 < self.label_rate < 1.0:
            raise ValueError(f"label_rate must be in (0, 1), got {self.label_rate}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0 < self.spacing_z_mm < np.inf:
            raise ValueError(f"spacing_z_mm must be positive and finite, got {self.spacing_z_mm}")
        declared = sorted(self.local_labels) + sorted(self.diffuse_labels)
        if sorted(declared) != list(range(self.n_labels)):
            raise ValueError(
                "local_labels and diffuse_labels must partition "
                f"0..{self.n_labels - 1}, got {self.local_labels} / {self.diffuse_labels}"
            )


def label_subspace(cfg: SynthTaskConfig, label: int) -> slice:
    """The block of feature dimensions owned by `label` (disjoint per label)."""
    if not 0 <= label < cfg.n_labels:
        raise ValueError(f"label {label} out of range [0, {cfg.n_labels})")
    width = cfg.d // cfg.n_labels
    return slice(label * width, (label + 1) * width)


def _sample_rng(cfg: SynthTaskConfig, split: str, index: int) -> np.random.Generator:
    if split not in _SPLIT_TAGS:
        raise ValueError(f"split must be one of {sorted(_SPLIT_TAGS)}, got {split!r}")
    tag = _SPLIT_TAGS[split]
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((cfg.seed, tag, index)))
    )


def generate_sample(cfg: SynthTaskConfig, split: str, index: int) -> Sample:
    """Deterministic sample `index` of `split` under `cfg`."""
    rng = _sample_rng(cfg, split, index)
    n, d = cfg.n_nodes, cfg.d
    labels = (rng.random(cfg.n_labels) < cfg.label_rate).astype(np.uint8)
    features = np.zeros((n, d), dtype=float)

    local_span = max(1, round(n / 8))
    diffuse_count = max(1, round(n / 2))
    for label in range(cfg.n_labels):
        if not labels[label]:
            continue
        block = label_subspace(cfg, label)
        if label in cfg.local_labels:
            start = int(rng.integers(0, n - local_span + 1))
            features[start:start + local_span, block] += cfg.signal_scale
        else:
            rows = rng.choice(n, size=diffuse_count, replace=False)
            features[rows, block] += cfg.signal_scale / 4.0

    features += rng.normal(0.0, cfg.noise_std, size=(n, d))
    return Sample(features.astype(np.float32), labels, cfg.spacing_z_mm)


def generate_split(cfg: SynthTaskConfig, split: str) -> list[Sample]:
    count = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}[split]
    return [generate_sample(cfg, split, i) for i in range(count)]


def generate_task(cfg: SynthTaskConfig) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """(train, val, test) splits, fully determined by `cfg`."""
    return (generate_split(cfg, "train"),
            generate_split(cfg, "val"),
            generate_split(cfg, "test"))


def apply_z_shift(sample: Sample, shift: int, *, wrap: bool = False) -> Sample:
    """Translate feature rows along the node axis; labels stay put.

    Positive shifts move content toward higher indices. In pad mode the
    vacated rows are zeros, the all-background row; in wrap mode rows
    cycle around instead. `|shift|` must stay below the node count.
    """
    n, d = sample.features.shape
    if abs(shift) >= n:
        raise ValueError(f"|shift| must be < {n}, got {shift}")
    if wrap:
        rolled = np.roll(sample.features, shift, axis=0)
        return Sample(np.ascontiguousarray(rolled), sample.labels, sample.spacing_z_mm)

    out = np.zeros((n, d), dtype=sample.features.dtype)
    if shift >= 0:
        out[shift:] = sample.features[:n - shift]
    else:
        out[:n + shift] = sample.features[-shift:]
    return Sample(out, sample.labels, sample.spacing_z_mm)


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def write_features(path, sample: Sample) -> None:
    """Serialise one sample. Little-endian throughout:

    magic "CTGF", version u32, n_nodes u32, d u32, n_labels u32,
    spacing_z_mm f64, labels as one byte (0/1) each, then the feature
    payload as row-major f32.
    """
    n, d = sample.features.shape
    labels = np.asarray(sample.labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0/1")
    parts = [
        _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, n, d, labels.size,
                     float(sample.spacing_z_mm)),
        labels.astype(np.uint8).tobytes(),
        np.ascontiguousarray(sample.features, dtype="<f4").tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def _parse_header(path, data: bytes) -> tuple[int, int, int, float]:
    """(n_nodes, d, n_labels, spacing_z_mm) of a whole feature file's bytes,
    after checking its magic, its version and the file size the header
    implies. Every message names `path`."""
    if len(data) < 4 or data[:4] != FEATURE_MAGIC:
        raise BadMagicError(
            f"{path}: not a feature file: expected magic {FEATURE_MAGIC!r}, got {data[:4]!r}"
        )
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(
            f"{path}: feature file header needs {_HEADER.size} bytes, file has {len(data)}"
        )
    _, version, n, d, n_labels, spacing = _HEADER.unpack_from(data)
    if version != FEATURE_VERSION:
        raise VersionMismatchError(
            f"{path}: feature file version {version}, this build reads {FEATURE_VERSION}"
        )
    expected = n_labels + 4 * n * d
    payload = len(data) - _HEADER.size
    if payload != expected:
        raise TruncatedPayloadError(
            f"{path}: feature payload: expected {expected} bytes, got {payload}"
        )
    return n, d, n_labels, spacing


def read_features(path) -> Sample:
    """Inverse of `write_features`; bit-exact round-trip for f32 features.
    `path` is a str or a Path. The magic, the version and the file size
    the header implies are checked first. Content that `Sample` rejects
    (fewer than 2 nodes, no feature column, no label, a label byte other
    than 0/1, non-finite features or spacing, spacing <= 0) raises
    BinaryFormatError. Every message names `path`. `read_dataset` reads
    a directory's files in bulk and raises what this function raises
    for the first file that fails."""
    with open(path, "rb") as f:
        data = f.read()
    n, d, n_labels, spacing = _parse_header(path, data)
    labels = np.frombuffer(data, np.uint8, n_labels, _HEADER.size).copy()
    features = np.frombuffer(data, "<f4", n * d, _HEADER.size + n_labels).reshape(n, d).copy()
    try:
        return Sample(features, labels, spacing)
    except ValueError as exc:
        raise BinaryFormatError(f"{path}: {exc}") from exc


def write_dataset(directory, samples) -> None:
    """One numbered feature file per sample."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        write_features(directory / f"{i:05d}.ctgf", sample)


def _read_file(path) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _read_chunk(paths) -> list[Sample] | None:
    """The samples of `paths`, or None if any file fails to read or any
    check fails. Each file is opened once; the chunk's label bytes join
    into one uint8 array and its feature payloads into one float32
    array, and every rule `Sample` enforces runs once over the chunk.
    The samples hold row views of the two arrays."""
    try:
        files = [_read_file(path) for path in paths]
        headers = [_parse_header(path, data) for path, data in zip(paths, files)]
    except (OSError, BinaryFormatError):
        # read_features raises the error; its open names a directory
        # that os.read would reject without a file name
        return None
    ns, ds, label_counts, spacings = zip(*headers)
    spacings = np.array(spacings)
    if (min(ns) < 2 or min(ds) < 1 or min(label_counts) < 1
            or not ((spacings > 0) & (spacings < np.inf)).all()):
        return None
    top = _HEADER.size
    labels = np.frombuffer(bytearray().join(
        memoryview(data)[top:top + k] for data, k in zip(files, label_counts)), np.uint8)
    features = np.frombuffer(bytearray().join(
        memoryview(data)[top + k:] for data, k in zip(files, label_counts)), "<f4")
    if not np.isfinite(features).all() or (labels > 1).any():
        return None
    samples = []
    at = label_at = 0
    for n, d, k, spacing in headers:
        # the checks above are the ones Sample.__post_init__ would run;
        # object.__setattr__, as a frozen dataclass's __init__ does, keeps
        # the compact attribute storage a vars(sample) dict would replace
        sample = object.__new__(Sample)
        object.__setattr__(sample, "features", features[at:at + n * d].reshape(n, d))
        object.__setattr__(sample, "labels", labels[label_at:label_at + k])
        object.__setattr__(sample, "spacing_z_mm", spacing)
        samples.append(sample)
        at += n * d
        label_at += k
    return samples


def read_dataset(directory) -> list[Sample]:
    """Every feature file in `directory`, in name order. All must share the
    first file's feature width d and label count; the first file that
    does not raises BinaryFormatError.

    Files are read in chunks of a few hundred, each file opened once,
    with `read_features`' checks run once per chunk over all its bytes.
    A chunk that fails any check is read again file by file through
    `read_features`, so the first failing file in name order raises
    exactly what `read_features` raises for it. Every file is read
    before the d and n_labels comparison."""
    # one listing, names compared as strings: the order of sorted(glob)
    names = sorted(name for name in os.listdir(directory) if name.endswith(".ctgf"))
    if not names:
        raise FileNotFoundError(f"no .ctgf files in {directory}")
    paths = [os.path.join(directory, name) for name in names]
    samples = []
    for start in range(0, len(paths), _CHUNK):
        chunk = paths[start:start + _CHUNK]
        samples += _read_chunk(chunk) or [read_features(path) for path in chunk]
    d, n_labels = samples[0].features.shape[1], samples[0].labels.size
    for path, sample in zip(paths, samples):
        if (sample.features.shape[1], sample.labels.size) != (d, n_labels):
            raise BinaryFormatError(
                f"{path}: d={sample.features.shape[1]}, n_labels={sample.labels.size}; "
                f"{names[0]} has d={d}, n_labels={n_labels}")
    return samples
