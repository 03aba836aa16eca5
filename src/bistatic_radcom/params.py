"""Frame configuration and closed-form radar/communication performance figures.

All performance formulas are evaluated with *effective* pilot spacings:
pilot-only sensing uses the configured comb/block spacings, full-frame
sensing uses spacing 1 in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ldpc import default_code

SPEED_OF_LIGHT = 299_792_458.0  # m/s
QPSK_BITS = 2  # coded bits per data cell
SFO_BOUND = 1e-3  # bound on a clock offset, far above any realistic one


class ConfigError(ValueError):
    """An input a run cannot use (a configuration, a scenario file, a sample
    file, an output directory); carries the full list of violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class PipelineError(RuntimeError):
    """A pipeline stage failed; tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class SensingMode(Enum):
    PILOT_ONLY = "pilot_only"
    FULL_FRAME = "full_frame"


@dataclass(frozen=True)
class FrameConfig:
    """OFDM frame and pilot parameters.

    ``bandwidth_hz`` doubles as the nominal complex sample rate (critically
    sampled baseband, no oversampling). Construction raises `ConfigError`
    on a frame that cannot run, so every instance is valid.
    """

    n_subcarriers: int = 2048
    cp_len: int = 512
    m_sc: int = 2
    m_sfo: int = 10
    m_payload: int = 4096
    pilot_freq_spacing: int = 2
    pilot_time_spacing: int = 4
    bandwidth_hz: float = 1e9
    pilot_seed: int = 0x5EED_0001
    preamble_seed: int = 0x5EED_0002

    def __post_init__(self):
        v = []
        for name in ("n_subcarriers", "cp_len", "m_sc", "m_payload",
                     "pilot_freq_spacing", "pilot_time_spacing"):
            if getattr(self, name) <= 0:
                v.append(f"{name} must be positive")
        if self.n_subcarriers > 0 and self.n_subcarriers % 2 != 0:
            # Schmidl-Cox timing needs the two identical half symbols
            v.append("n_subcarriers must be even")
        if self.m_sfo <= 0:
            v.append("m_sfo must be positive")
        elif self.m_sfo % 2 != 0:
            v.append("m_sfo must be even")
        if self.pilot_freq_spacing > 0 and self.n_subcarriers % self.pilot_freq_spacing != 0:
            v.append("n_subcarriers not divisible by pilot_freq_spacing")
        if self.pilot_time_spacing > 0 and self.m_payload % self.pilot_time_spacing != 0:
            v.append("m_payload not divisible by pilot_time_spacing")
        if self.cp_len >= self.n_subcarriers:
            v.append("cp_len must be smaller than n_subcarriers")
        elif self.cp_len > self.n_subcarriers // 2 - 3:
            # the first Schmidl-Cox symbol repeats every N/2 samples, so a
            # fine-timing window of +-cp_len that reaches the copy meets a
            # sidelobe of about half the peak
            v.append("cp_len must be at most n_subcarriers / 2 - 3")
        if not self.bandwidth_hz > 0:
            v.append("bandwidth_hz must be positive")
        elif not 1.0 <= self.bandwidth_hz <= 1e15:
            v.append("bandwidth_hz must be between 1 Hz and 1 PHz")
        # the CFR interpolation needs two pilots along each axis, and the
        # Doppler, drift and noise estimates compare neighbouring pilot
        # symbols; checked last, as the counts divide by the spacings
        if not v and (self.n_pilot_rows < 2 or self.n_pilot_cols < 2):
            v.append(f"the {self.n_pilot_rows} x {self.n_pilot_cols} pilot grid needs at "
                     "least 2 pilot subcarriers and 2 pilot symbols")
        if v:
            raise ConfigError(v)

    @property
    def m_preamble(self) -> int:
        return self.m_sc + self.m_sfo

    @property
    def m_total(self) -> int:
        return self.m_preamble + self.m_payload

    @property
    def symbol_len(self) -> int:
        """Samples per OFDM symbol including cyclic prefix."""
        return self.n_subcarriers + self.cp_len

    @property
    def frame_len(self) -> int:
        return self.symbol_len * self.m_total

    @property
    def subcarrier_spacing(self) -> float:
        return self.bandwidth_hz / self.n_subcarriers

    @property
    def n_pilot_rows(self) -> int:
        return self.n_subcarriers // self.pilot_freq_spacing

    @property
    def n_pilot_cols(self) -> int:
        return self.m_payload // self.pilot_time_spacing

    @property
    def n_data_elements(self) -> int:
        return self.n_subcarriers * self.m_payload - self.n_pilot_rows * self.n_pilot_cols

    def effective_spacings(self, mode: SensingMode) -> tuple[int, int]:
        if mode is SensingMode.FULL_FRAME:
            return 1, 1
        return self.pilot_freq_spacing, self.pilot_time_spacing


@dataclass(frozen=True)
class RadarPerformance:
    processing_gain_db: float
    range_resolution: float
    max_unamb_range: float
    max_isi_free_range: float
    doppler_resolution: float
    max_unamb_doppler: float
    max_ici_free_doppler: float


def radar_performance(cfg: FrameConfig, mode: SensingMode) -> RadarPerformance:
    """Closed-form bistatic OFDM radar performance figures for a sensing mode."""
    dn, dm = cfg.effective_spacings(mode)
    n, ncp, mpl, b = cfg.n_subcarriers, cfg.cp_len, cfg.m_payload, cfg.bandwidth_hz
    gp = (n / dn) * (mpl / dm)
    return RadarPerformance(
        processing_gain_db=10.0 * math.log10(gp),
        range_resolution=SPEED_OF_LIGHT / b,
        max_unamb_range=(n / dn) * SPEED_OF_LIGHT / b,
        max_isi_free_range=ncp * SPEED_OF_LIGHT / b,
        doppler_resolution=b / ((n + ncp) * mpl),
        max_unamb_doppler=b / (2 * dm * (n + ncp)),
        max_ici_free_doppler=b / (10 * n),
    )


def comm_throughput(cfg: FrameConfig) -> float:
    """Net data rate in bit/s at 100% duty cycle.

    Pilot resource elements count as overhead; the preamble contributes to
    the frame duration in the denominator.
    """
    data_elements = cfg.n_data_elements
    frame_duration = cfg.frame_len / cfg.bandwidth_hz
    code = default_code()
    return QPSK_BITS * (code.k / code.n) * data_elements / frame_duration


def long_payload_config(**overrides) -> FrameConfig:
    """Table-style long-payload parameterization (M_pl = 4096)."""
    return FrameConfig(**{"m_payload": 4096, **overrides})


def short_payload_config(**overrides) -> FrameConfig:
    """Table-style short-payload parameterization (M_pl = 512)."""
    return FrameConfig(**{"m_payload": 512, **overrides})
