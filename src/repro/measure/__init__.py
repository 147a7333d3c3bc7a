"""Active measurement: capture, query emulation, campaign drivers."""

from repro.measure.capture import PacketCapture, PacketEvent
from repro.measure.driver import (
    DatasetA,
    DatasetB,
    run_dataset_a,
    run_dataset_b,
    run_queries,
    run_single_queries,
)
from repro.measure.emulator import QueryEmulator
from repro.measure.session import QuerySession
from repro.measure.streaming import (
    StreamingCampaignResult,
    StreamingSchedule,
    run_streaming_campaign,
)
from repro.measure.traceio import (
    TraceFormatError,
    load_sessions,
    read_sessions,
    save_sessions,
    write_sessions,
)

__all__ = [
    "DatasetA",
    "DatasetB",
    "PacketCapture",
    "PacketEvent",
    "QueryEmulator",
    "QuerySession",
    "StreamingCampaignResult",
    "StreamingSchedule",
    "TraceFormatError",
    "run_dataset_a",
    "run_dataset_b",
    "run_streaming_campaign",
    "load_sessions",
    "read_sessions",
    "run_queries",
    "run_single_queries",
    "save_sessions",
    "write_sessions",
]
