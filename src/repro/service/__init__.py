"""Streaming monitor service: sessions, checkpoint/resume.

See :mod:`repro.service.streaming` for the design narrative.
"""

from .streaming import SERVICE_SNAPSHOT_FORMAT, MonitorService

__all__ = ["SERVICE_SNAPSHOT_FORMAT", "MonitorService"]
