"""Binary model checkpoints.

Layout (all integers little-endian u32, floats little-endian f64):

    magic   4 bytes, b"CTGC"
    version u32 (currently 1)
    n_labels, d, K, n_layers   u32 each
    then every entry of the model's `ParamLayout`, in table order, each
    encoded as rank u32, dims (rank x u32), then the row-major f64 payload

The header is the layout: `ParamLayout(n_labels, d, K, n_layers)` fixes
every entry's name and shape; K == 0 marks the spatial (graphconv)
parameter set, and the head's width follows from d. The writer walks
`ParamLayout.entries`; the reader walks it once, requiring each entry's
rank and dims byte for byte. Every load error names the file.
Round-trips are bit-exact because parameters are already f64.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, TruncatedPayloadError, VersionMismatchError
from .model import ModelParams, ParamLayout

__all__ = ["save_checkpoint", "load_checkpoint", "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION"]

CHECKPOINT_MAGIC = b"CTGC"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIIIII")


def _frame(shape: tuple[int, ...]) -> bytes:
    """An entry's rank and dims, as written in front of its payload."""
    return struct.pack(f"<{1 + len(shape)}I", len(shape), *shape)


def save_checkpoint(path, params: ModelParams) -> None:
    layout = params.layout
    parts = [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                          layout.n_labels, layout.d, layout.cheb_k, layout.n_layers)]
    for (_, shape), tensor in zip(layout.entries, layout.views(params.flat)):
        parts.append(_frame(shape))
        parts.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> ModelParams:
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(
            f"{path}: not a checkpoint file: expected magic {CHECKPOINT_MAGIC!r}, "
            f"got {data[:4]!r}"
        )
    version = int.from_bytes(data[4:8], "little")
    if len(data) >= 8 and version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(
            f"{path}: checkpoint header needs {_HEADER.size} bytes, file has {len(data)}"
        )
    _, _, n_labels, d, k, n_layers = _HEADER.unpack_from(data)
    # each layer's tensors take at least one 4-byte rank field apiece, so
    # the file size bounds n_layers before the layout table is built
    if n_labels < 1 or d < 1 or n_layers < 1 or n_layers > len(data) // 4:
        raise TruncatedPayloadError(
            f"{path}: implausible header: n_labels={n_labels}, d={d}, n_layers={n_layers}"
        )

    layout = ParamLayout(n_labels, d, k, n_layers)
    offset = _HEADER.size
    payloads = []
    for index, (name, shape) in enumerate(layout.entries):
        frame = _frame(shape)
        start = offset + len(frame)
        stop = start + 8 * math.prod(shape)
        if data[offset:start] != frame or stop > len(data):
            raise TruncatedPayloadError(
                f"{path}: tensor {index} ({name}) at offset {offset}: the header's layout "
                f"wants shape {shape} and {stop - start} payload bytes; file has {len(data)}"
            )
        payloads.append(np.frombuffer(data[start:stop], dtype="<f8"))
        offset = stop
    if offset != len(data):
        raise TruncatedPayloadError(f"{path}: {len(data) - offset} unexpected trailing bytes")
    return ModelParams(layout, np.concatenate(payloads))
