"""Binary model checkpoints.

Layout (all integers little-endian u32, floats little-endian f64):

    magic   4 bytes, b"CTGC"
    version u32 (currently 1)
    n_labels, d, K, n_layers   u32 each
    then every entry of the model's `ParamLayout`, in table order, each
    encoded as rank u32, dims (rank x u32), then the row-major f64 payload

`ParamLayout.entries` is the one source of tensor order and shapes: the
writer walks it, and the reader rebuilds it from the header and rejects
any tensor whose shape disagrees with it. K >= 1 marks the Chebyshev
parameter set; K == 0 marks the spatial (graphconv) one. The header does
not carry the head's hidden width, so the reader takes it from the
stored w1. Round-trips are bit-exact because parameters are already f64.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, TruncatedPayloadError, VersionMismatchError
from .model import ModelParams, ParamLayout, Variant

__all__ = ["save_checkpoint", "load_checkpoint", "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION"]

CHECKPOINT_MAGIC = b"CTGC"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIIIII")


def save_checkpoint(path, params: ModelParams) -> None:
    layout = params.layout
    parts = [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                          layout.n_labels, layout.d, layout.cheb_k, layout.n_layers)]
    for (_, shape), tensor in zip(layout.entries, layout.views(params.flat)):
        parts.append(struct.pack(f"<{1 + len(shape)}I", len(shape), *shape))
        parts.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise TruncatedPayloadError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.offset}, "
                f"file has {len(self.data)}"
            )
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def tensor(self) -> np.ndarray:
        rank = self.u32()
        if rank > 8:
            raise TruncatedPayloadError(f"implausible tensor rank {rank}")
        dims = tuple(self.u32() for _ in range(rank))
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").reshape(dims).copy()

    def done(self) -> bool:
        return self.offset == len(self.data)


def load_checkpoint(path) -> ModelParams:
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(
            f"not a checkpoint file: expected magic {CHECKPOINT_MAGIC!r}, "
            f"got {data[:4]!r}"
        )
    reader = _Reader(data)
    reader.take(4)  # magic, already validated
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    n_labels = reader.u32()
    d = reader.u32()
    k = reader.u32()
    n_layers = reader.u32()
    # each layer's tensors take at least one 4-byte rank field apiece, so
    # the file size bounds n_layers before the layout table is built
    if n_labels < 1 or d < 1 or n_layers < 1 or n_layers > len(data) // 4:
        raise TruncatedPayloadError(
            f"implausible header: n_labels={n_labels}, d={d}, n_layers={n_layers}"
        )
    variant = Variant.CHEB if k >= 1 else Variant.GRAPHCONV

    # Tensor count and order do not depend on the head's hidden width,
    # which only the stored w1 carries.
    header_layout = ParamLayout(variant, d, n_labels, n_layers, k, hidden=1)
    tensors = [reader.tensor() for _ in header_layout.entries]
    if not reader.done():
        raise TruncatedPayloadError(
            f"{len(reader.data) - reader.offset} unexpected trailing bytes"
        )
    w1 = tensors[[name for name, _ in header_layout.entries].index("w1")]
    if w1.ndim != 2 or w1.shape[1] < 1:
        raise TruncatedPayloadError(f"head w1 must be (d, hidden), got shape {w1.shape}")
    layout = ParamLayout(variant, d, n_labels, n_layers, k, hidden=w1.shape[1])
    for index, ((name, shape), tensor) in enumerate(zip(layout.entries, tensors)):
        if tensor.shape != shape:
            raise TruncatedPayloadError(
                f"tensor {index} ({name}) has shape {tensor.shape}; the header's "
                f"layout wants {shape}"
            )
    return ModelParams(layout, np.concatenate([t.ravel() for t in tensors]))
