"""Memory-reference stream machinery.

References flow through the system as :class:`RefBatch` objects — parallel
numpy arrays, never per-reference Python objects — so every consumer
(analyzers, cache simulator, power simulator) can work vectorized.
"""

from repro.trace.record import AccessType, RefBatch
from repro.trace.buffer import TraceBuffer
from repro.trace.io import TraceWriter, TraceReader, write_trace, read_trace

__all__ = [
    "AccessType",
    "RefBatch",
    "TraceBuffer",
    "TraceWriter",
    "TraceReader",
    "write_trace",
    "read_trace",
]
