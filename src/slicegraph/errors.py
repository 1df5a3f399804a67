"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems exit 2,
numeric failures exit 3, I/O and binary-format problems exit 4.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or inconsistent settings."""


class NumericError(RuntimeError):
    """Non-finite value encountered where the computation cannot continue."""

    def __init__(self, message: str, *, step: int | None = None,
                 lr: float | None = None,
                 grad_norms: list[float] | None = None) -> None:
        self.step = step
        self.lr = lr
        self.grad_norms = grad_norms
        detail = message
        if step is not None:
            detail += f" [step={step}, lr={lr!r}, grad_norms={grad_norms!r}]"
        super().__init__(detail)


class DegenerateSpectrumError(NumericError):
    """Laplacian spectrum collapsed to zero; the graph has no usable edges."""


class BinaryFormatError(ValueError):
    """Base class for malformed binary files. `code` names the failure."""

    code = "format"


class BadMagicError(BinaryFormatError):
    code = "bad_magic"


class VersionMismatchError(BinaryFormatError):
    code = "version_mismatch"


class TruncatedPayloadError(BinaryFormatError):
    code = "truncated_payload"
