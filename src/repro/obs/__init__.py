"""Observability layer: solve telemetry for the LP -> LPDAR -> RET pipeline.

See :mod:`repro.obs.telemetry` for the design; the CLI's ``--profile``
flag and the experiment harness are the main consumers.
"""

from .telemetry import (
    NULL_TELEMETRY, NullTelemetry, Span, SpanStats, Telemetry, current,
)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "Span", "SpanStats",
    "current",
]
