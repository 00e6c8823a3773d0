"""Exception hierarchy of the :mod:`repro` library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """Raised when a scheme or model is configured with invalid parameters."""


class EncodingError(ReproError):
    """Raised when an encoder cannot encode or decode a memory line."""


class CompressionError(ReproError):
    """Raised when a compressor produces or receives an invalid stream."""


class TraceError(ReproError):
    """Raised for malformed write traces or trace files."""


class BenchError(ReproError):
    """Raised by the benchmark-orchestration subsystem (:mod:`repro.bench`)."""
