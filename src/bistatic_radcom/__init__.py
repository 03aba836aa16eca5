"""Bistatic OFDM joint radar-communication link simulator.

End-to-end chain: frame construction (preamble + pilot/data payload, LDPC
coded QPSK), bistatic multipath channel with receiver impairments (timing,
carrier and sampling-clock offsets, AWGN), preamble-based synchronization,
pilot-aided communication receiver and range-Doppler sensing from the
estimated channel frequency response.
"""

from .params import (
    SPEED_OF_LIGHT,
    ConfigError,
    FrameConfig,
    RadarPerformance,
    SensingMode,
    comm_throughput,
    long_payload_config,
    radar_performance,
    short_payload_config,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "ConfigError",
    "FrameConfig",
    "RadarPerformance",
    "SensingMode",
    "comm_throughput",
    "long_payload_config",
    "radar_performance",
    "short_payload_config",
]

__version__ = "0.1.0"
