"""Frame configuration and closed-form performance figures."""

import math
from dataclasses import asdict

import pytest
from hypothesis import assume, given, strategies as st

from bistatic_radcom.params import (
    SPEED_OF_LIGHT,
    ConfigError,
    FrameConfig,
    SensingMode,
    comm_throughput,
    long_payload_config,
    radar_performance,
    short_payload_config,
)


def violations(**fields) -> list[str]:
    """Every invariant that a FrameConfig of ``fields`` violates."""
    try:
        FrameConfig(**fields)
    except ConfigError as exc:
        return exc.violations
    return []


def test_default_configs_are_valid():
    for cfg in (long_payload_config(), short_payload_config()):
        assert violations(**asdict(cfg)) == []


def test_derived_sizes_long():
    cfg = long_payload_config()
    assert cfg.m_preamble == 12
    assert cfg.m_total == 4108
    assert cfg.symbol_len == 2560
    assert cfg.frame_len == 2560 * 4108
    assert cfg.n_pilot_rows == 1024
    assert cfg.n_pilot_cols == 1024
    assert cfg.n_data_elements == 2048 * 4096 - 1024 * 1024


def test_processing_gain_formula():
    cfg = long_payload_config()
    full = radar_performance(cfg, SensingMode.FULL_FRAME)
    pilot = radar_performance(cfg, SensingMode.PILOT_ONLY)
    assert full.processing_gain_db == pytest.approx(
        10 * math.log10(2048 * 4096), abs=1e-9)
    assert pilot.processing_gain_db == pytest.approx(
        10 * math.log10(1024 * 1024), abs=1e-9)


def test_range_figures_exact_constant():
    cfg = long_payload_config()
    full = radar_performance(cfg, SensingMode.FULL_FRAME)
    assert full.range_resolution == pytest.approx(SPEED_OF_LIGHT / 1e9)
    assert full.max_unamb_range == pytest.approx(2048 * SPEED_OF_LIGHT / 1e9)
    assert full.max_isi_free_range == pytest.approx(512 * SPEED_OF_LIGHT / 1e9)


def test_doppler_figures():
    long_cfg = long_payload_config()
    short_cfg = short_payload_config()
    full = radar_performance(long_cfg, SensingMode.FULL_FRAME)
    pilot = radar_performance(long_cfg, SensingMode.PILOT_ONLY)
    assert full.doppler_resolution == pytest.approx(1e9 / (2560 * 4096))
    assert radar_performance(short_cfg, SensingMode.FULL_FRAME).doppler_resolution \
        == pytest.approx(1e9 / (2560 * 512))
    assert full.max_unamb_doppler == pytest.approx(1e9 / (2 * 2560))
    assert pilot.max_unamb_doppler == pytest.approx(1e9 / (8 * 2560))
    assert full.max_ici_free_doppler == pytest.approx(1e9 / 20480)


def test_throughput_both_payload_lengths():
    assert comm_throughput(long_payload_config()) == pytest.approx(0.93e9, abs=0.01e9)
    assert comm_throughput(short_payload_config()) == pytest.approx(0.91e9, abs=0.01e9)


def test_validation_reports_all_violations():
    with pytest.raises(ConfigError) as exc:
        FrameConfig(n_subcarriers=100, pilot_freq_spacing=3, m_sfo=5, cp_len=200)
    v = exc.value.violations
    assert any("m_sfo must be even" in m for m in v)
    assert any("divisible by pilot_freq_spacing" in m for m in v)
    assert any("cp_len" in m for m in v)
    assert str(exc.value) == "; ".join(v)


def test_odd_m_sfo_rejected():
    assert "m_sfo must be even" in violations(m_sfo=9)


@pytest.mark.parametrize("fields", [
    {"n_subcarriers": 255, "cp_len": 64, "pilot_freq_spacing": 3},
    {"n_subcarriers": 63, "cp_len": 16, "pilot_freq_spacing": 1},
    {"n_subcarriers": 15, "cp_len": 4, "pilot_freq_spacing": 5},
], ids=["255", "63", "15"])
def test_odd_subcarrier_count_rejected(fields):
    """Schmidl-Cox timing needs two identical half symbols, which an odd
    number of subcarriers cannot hold."""
    assert violations(**fields) == ["n_subcarriers must be even"]


@pytest.mark.parametrize("fields, violation", [
    ({"cp_len": 0}, "cp_len must be positive"),
    ({"bandwidth_hz": -1e9}, "bandwidth_hz must be positive"),
    ({"bandwidth_hz": float("nan")}, "bandwidth_hz must be positive"),
    ({"bandwidth_hz": 0.0}, "bandwidth_hz must be positive"),
    ({"bandwidth_hz": 1e-300}, "bandwidth_hz must be between 1 Hz and 1 PHz"),
    ({"bandwidth_hz": 0.999}, "bandwidth_hz must be between 1 Hz and 1 PHz"),
    ({"bandwidth_hz": 1.001e15}, "bandwidth_hz must be between 1 Hz and 1 PHz"),
    ({"m_payload": 4}, "the 1024 x 1 pilot grid needs at least 2 pilot subcarriers "
                       "and 2 pilot symbols"),
    ({"n_subcarriers": 8, "cp_len": 1, "pilot_freq_spacing": 8},
     "the 1 x 1024 pilot grid needs at least 2 pilot subcarriers and 2 pilot symbols"),
    ({"n_subcarriers": 4, "cp_len": 1}, "cp_len must be at most n_subcarriers / 2 - 3"),
], ids=["no_cp", "negative_bandwidth", "nan_bandwidth", "zero_bandwidth",
        "tiny_bandwidth", "below_1_hz", "above_1_phz", "one_pilot_symbol",
        "one_pilot_subcarrier", "cp_reaches_half_symbol"])
def test_unrunnable_frame_cannot_be_built(fields, violation):
    """A frame the receiver cannot run raises at construction, with one
    violation naming the field."""
    assert violations(**fields) == [violation]


def test_pilot_grid_rule_waits_for_the_spacings():
    """The pilot-grid rule divides by the spacings, so it is checked only
    when every other invariant holds."""
    assert violations(pilot_time_spacing=0, m_payload=4) == [
        "pilot_time_spacing must be positive"]
    assert violations(pilot_time_spacing=4, m_payload=8) == []


@given(
    n=st.sampled_from([64, 128, 256, 512, 1024, 2048]),
    dn=st.sampled_from([1, 2, 4]),
    dm=st.sampled_from([1, 2, 4, 8]),
    mpl=st.sampled_from([64, 128, 512, 4096]),
)
def test_effective_spacing_gain_difference(n, dn, dm, mpl):
    """Full-frame gain exceeds pilot-only gain by exactly 10·log10(dN·dM)."""
    fields = dict(n_subcarriers=n, cp_len=n // 4, m_payload=mpl,
                  pilot_freq_spacing=dn, pilot_time_spacing=dm)
    assume(not violations(**fields))
    cfg = FrameConfig(**fields)
    full = radar_performance(cfg, SensingMode.FULL_FRAME)
    pilot = radar_performance(cfg, SensingMode.PILOT_ONLY)
    assert full.processing_gain_db - pilot.processing_gain_db == pytest.approx(
        10 * math.log10(dn * dm), abs=1e-9)
    assert full.max_unamb_range == pytest.approx(pilot.max_unamb_range * dn)
    assert full.max_unamb_doppler == pytest.approx(pilot.max_unamb_doppler * dm)
