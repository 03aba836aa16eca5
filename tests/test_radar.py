"""Range-Doppler processing and peak extraction."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from bistatic_radcom import dsp, radar
from bistatic_radcom.commrx import demodulate_frame
from bistatic_radcom.dsp import parabolic_vertex
from bistatic_radcom.ldpc import default_code
from bistatic_radcom.params import (
    SPEED_OF_LIGHT,
    ConfigError,
    FrameConfig,
    SensingMode,
    radar_performance,
)
from bistatic_radcom.radar import (
    Detection,
    RangeDopplerMap,
    _max3_wrapped,
    cfr_for_sensing,
    detect,
    extract_peaks,
    range_doppler,
)
from bistatic_radcom.txframe import (
    build_tx_frame,
    frame_capacity_bits,
    payload_columns,
)


def desk_cfg(m_payload=128):
    return FrameConfig(n_subcarriers=256, cp_len=64, m_payload=m_payload)


def synthetic_cfr(nf, nt, delay_bins, doppler_cycles_per_col, gain=1.0):
    """Point-target CFR with rows in DFT order and a complex exponential
    over time."""
    k = np.fft.fftfreq(nf)
    m = np.arange(nt)
    return gain * np.exp(-2j * np.pi * k * delay_bins)[:, None] * \
        np.exp(2j * np.pi * doppler_cycles_per_col * m)[None, :]


def test_point_target_range_and_doppler_exact():
    cfg = desk_cfg()
    mode = SensingMode.PILOT_ONLY
    dn, dm = cfg.effective_spacings(mode)
    nf, nt = cfg.n_subcarriers // dn, cfg.m_payload // dm
    t_col = dm * cfg.symbol_len / cfg.bandwidth_hz
    fd = 40e3
    delay_samples = 7.25
    cfr = synthetic_cfr(nf, nt, delay_samples, fd * t_col)
    rd = range_doppler(cfr, cfg, mode, zero_pad=8)
    dets = extract_peaks(rd, threshold_db=-20.0, max_peaks=1)
    want_range = delay_samples * SPEED_OF_LIGHT / cfg.bandwidth_hz
    assert dets[0].rel_bistatic_range_m == pytest.approx(want_range, abs=0.02)
    assert dets[0].doppler_shift_hz == pytest.approx(fd, rel=0.01)
    assert dets[0].magnitude_db == pytest.approx(0.0, abs=1e-9)


def test_two_targets_resolved_with_dynamic_range():
    cfg = desk_cfg()
    mode = SensingMode.PILOT_ONLY
    dn, dm = cfg.effective_spacings(mode)
    nf, nt = cfg.n_subcarriers // dn, cfg.m_payload // dm
    t_col = dm * cfg.symbol_len / cfg.bandwidth_hz
    cfr = synthetic_cfr(nf, nt, 0.0, 0.0) + \
        synthetic_cfr(nf, nt, 20.0, 2e3 * t_col, gain=10 ** (-30 / 20))
    rd = range_doppler(cfr, cfg, mode, zero_pad=4)
    dets = extract_peaks(rd, threshold_db=-40.0, max_peaks=4)
    ranges = sorted(d.rel_bistatic_range_m for d in dets[:2])
    assert ranges[0] == pytest.approx(0.0, abs=0.05)
    assert ranges[1] == pytest.approx(20.0 * SPEED_OF_LIGHT / 1e9, abs=0.05)
    weak = max(dets[:2], key=lambda d: d.rel_bistatic_range_m)
    assert weak.magnitude_db == pytest.approx(-30.0, abs=1.0)


def test_negative_delay_reported_as_negative_range():
    cfg = desk_cfg()
    mode = SensingMode.PILOT_ONLY
    dn, dm = cfg.effective_spacings(mode)
    nf, nt = cfg.n_subcarriers // dn, cfg.m_payload // dm
    cfr = synthetic_cfr(nf, nt, -5.0, 0.0)
    rd = range_doppler(cfr, cfg, mode, zero_pad=4)
    det = extract_peaks(rd, threshold_db=-10.0, max_peaks=1)[0]
    assert det.rel_bistatic_range_m == pytest.approx(
        -5.0 * SPEED_OF_LIGHT / 1e9, abs=0.05)


def test_pilot_mode_aliases_distant_echo_full_mode_resolves():
    """An echo beyond half the pilot-mode unambiguous delay span wraps in
    pilot-only processing but full-frame processing reports it correctly."""
    cfg = desk_cfg()
    # pilot-only span is N/2 = 128 samples (+/-64); full-frame span is 256
    delay = 90.0
    full = synthetic_cfr(cfg.n_subcarriers, cfg.m_payload, delay, 0.0)
    rd_full = range_doppler(full, cfg, SensingMode.FULL_FRAME, zero_pad=4)
    det_full = extract_peaks(rd_full, threshold_db=-10.0, max_peaks=1)[0]
    assert det_full.rel_bistatic_range_m == pytest.approx(
        delay * SPEED_OF_LIGHT / 1e9, abs=0.05)

    # pilot-only sees every 2nd subcarrier of the same channel
    pil = full[::cfg.pilot_freq_spacing, ::cfg.pilot_time_spacing]
    rd_pil = range_doppler(pil, cfg, SensingMode.PILOT_ONLY, zero_pad=4)
    det_pil = extract_peaks(rd_pil, threshold_db=-10.0, max_peaks=1)[0]
    aliased = (delay - 128.0) * SPEED_OF_LIGHT / 1e9
    assert det_pil.rel_bistatic_range_m == pytest.approx(aliased, abs=0.05)


def test_full_frame_noise_floor_below_pilot_only():
    """More symbols integrated -> deeper noise floor. For this geometry the
    full-frame map integrates 8x the cells of the pilot-only map (+9.03 dB)."""
    cfg = desk_cfg(m_payload=512)
    rng = np.random.default_rng(0)
    sigma = 0.05

    def noisy(nf, nt):
        noise = sigma * (rng.normal(size=(nf, nt)) +
                         1j * rng.normal(size=(nf, nt))) / np.sqrt(2)
        return synthetic_cfr(nf, nt, 10.0, 0.0) + noise

    floors = {}
    for mode in SensingMode:
        dn, dm = cfg.effective_spacings(mode)
        cfr = noisy(cfg.n_subcarriers // dn, cfg.m_payload // dm)
        rd = range_doppler(cfr, cfg, mode, zero_pad=2)
        floors[mode] = np.median(rd.magnitude_db)
    diff = floors[SensingMode.PILOT_ONLY] - floors[SensingMode.FULL_FRAME]
    perf = {m: radar_performance(cfg, m) for m in SensingMode}
    expect = perf[SensingMode.FULL_FRAME].processing_gain_db - \
        perf[SensingMode.PILOT_ONLY].processing_gain_db
    assert diff == pytest.approx(expect, abs=1.5)


def test_cfr_for_sensing_pilot_only_flat_channel():
    cfg = desk_cfg()
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    frame, payload, tx = build_tx_frame(cfg, info)
    rg = demodulate_frame(tx.samples[cfg.m_preamble * cfg.symbol_len:].copy(), cfg)
    cfr = cfr_for_sensing(rg, cfg, SensingMode.PILOT_ONLY)
    assert cfr.shape == (cfg.n_pilot_rows, cfg.n_pilot_cols)
    assert np.allclose(cfr, 1.0, atol=1e-9)


def test_cfr_for_sensing_full_frame_flat_channel():
    cfg = desk_cfg()
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    frame, payload, tx = build_tx_frame(cfg, info)
    rg = demodulate_frame(tx.samples[cfg.m_preamble * cfg.symbol_len:].copy(), cfg)
    cfr = cfr_for_sensing(rg, cfg, SensingMode.FULL_FRAME, coded_bits=payload.coded_bits)
    assert cfr.shape == rg.shape
    assert np.allclose(cfr, 1.0, atol=1e-9)


def test_full_frame_sensing_requires_bits():
    cfg = desk_cfg()
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    _, _, tx = build_tx_frame(cfg, info)
    rg = demodulate_frame(tx.samples[cfg.m_preamble * cfg.symbol_len:].copy(), cfg)
    with pytest.raises(RuntimeError, match="full-frame sensing requires decoded bits"):
        cfr_for_sensing(rg, cfg, SensingMode.FULL_FRAME)


def test_full_frame_reference_is_tx_payload_region():
    """Full-frame Y/X of the TX payload region against the TX codewords is
    exactly one on every cell: the sensing reference is bit for bit the
    region `build_tx_frame` transmits, also for a payload shorter than the
    frame (zero-filled cells)."""
    cfg = desk_cfg()
    rng = np.random.default_rng(4)
    for n_info in (frame_capacity_bits(cfg)[0], 1000):
        info = rng.integers(0, 2, n_info, dtype=np.uint8)
        frame, payload, _ = build_tx_frame(cfg, info)
        cfr = cfr_for_sensing(frame[:, cfg.m_preamble:], cfg, SensingMode.FULL_FRAME,
                              coded_bits=payload.coded_bits)
        assert np.array_equal(cfr, np.ones_like(cfr))


@pytest.mark.parametrize("columns", [1, 3, 64])
@pytest.mark.parametrize("frame, n_bits", [
    (dict(n_subcarriers=256, cp_len=64, m_payload=128), None),
    (dict(n_subcarriers=256, cp_len=64, m_payload=128), 1000),
    (dict(n_subcarriers=96, cp_len=24, m_payload=72, pilot_freq_spacing=3,
          pilot_time_spacing=6), 500)])
def test_full_frame_cfr_is_grid_over_tx_payload(monkeypatch, columns, frame, n_bits):
    """Y/X on blocks of payload symbols gives the bits of the grid divided by
    the writer's whole payload region of the given coded bits, for blocks
    that start between pilot symbols and for bits shorter than the frame.
    The bits are no codewords, so a re-encode of their info part would give
    another reference: sensing divides by the decoder's bits as they are."""
    cfg = FrameConfig(**frame)
    code = default_code()
    rng = np.random.default_rng(columns)
    coded = rng.integers(0, 2, n_bits or frame_capacity_bits(cfg)[1] * code.n, dtype=np.uint8)
    whole = coded[:coded.size - coded.size % code.n].reshape(-1, code.n)
    assert not code.check(whole).any()
    shape = (cfg.n_subcarriers, cfg.m_payload)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    monkeypatch.setattr(dsp, "_BLOCK", columns * cfg.n_subcarriers)
    got = cfr_for_sensing(grid, cfg, SensingMode.FULL_FRAME, coded_bits=coded)
    want = grid / payload_columns(cfg, coded, 0, cfg.m_payload)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_range_doppler_rejects_non_finite():
    cfg = desk_cfg()
    cfr = np.ones((128, 32), dtype=complex)
    cfr[0, 0] = np.nan
    with pytest.raises(ConfigError, match="sensing CFR contains non-finite samples"):
        range_doppler(cfr, cfg, SensingMode.PILOT_ONLY)


def test_extract_peaks_rejects_positive_threshold():
    cfg = desk_cfg()
    rd = range_doppler(np.ones((128, 32), dtype=complex), cfg,
                       SensingMode.PILOT_ONLY)
    with pytest.raises(ValueError):
        extract_peaks(rd, threshold_db=1.0)


def test_detect_rejects_what_the_map_and_its_peaks_reject():
    cfg, mode = desk_cfg(), SensingMode.PILOT_ONLY
    with pytest.raises(ValueError, match="threshold_db must be negative"):
        detect(np.ones((128, 32), dtype=complex), cfg, mode, "hamming", 4, 0.0)
    with pytest.raises(ValueError, match="unknown window kind"):
        detect(np.ones((128, 32), dtype=complex), cfg, mode, "kaiser", 4, -20.0)
    cfr = np.ones((128, 32), dtype=complex)
    cfr[3, 4] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        detect(cfr, cfg, mode, "hamming", 4, -20.0)


# ---------------------------------------------------------------------------
# the map and the peak rule, computed in row blocks, are bit-exact against
# their whole-map forms


def range_profile_oracle(cfr, window_kind, zero_pad, fft=np.fft):
    """Windowed, zero-padded range IDFT of the whole CFR, with the transform
    of ``fft`` (``numpy.fft`` or ``scipy.fft``)."""
    nf, nt = cfr.shape
    if window_kind == "hamming":
        wf, wt = np.hamming(nf), np.hamming(nt)
    else:
        wf, wt = np.ones(nf), np.ones(nt)
    z = np.fft.fftshift(cfr, axes=0) * wf[:, None] * wt[None, :]
    return fft.ifft(z, n=nf * zero_pad, axis=0)


def range_doppler_db_oracle(cfr, window_kind, zero_pad, fft=np.fft):
    """Peak-normalized dB map computed on the complex, shifted map, with the
    transforms of ``fft`` (``numpy.fft`` or ``scipy.fft``) over whole arrays."""
    nt = cfr.shape[1]
    prof = range_profile_oracle(cfr, window_kind, zero_pad, fft)
    rd = np.fft.fftshift(fft.fft(prof, n=nt * zero_pad, axis=1), axes=1)
    mag = np.abs(rd)
    return 20.0 * np.log10(np.maximum(mag, 1e-300) / max(mag.max(), 1e-300))


def extract_peaks_roll_oracle(rd_map, threshold_db, max_peaks):
    """Peak rule with the eight wrapped neighbors compared one roll at a
    time, and the linear magnitude of the whole map."""
    m = rd_map.magnitude_db
    is_peak = m >= threshold_db
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                is_peak &= m >= np.roll(m, (di, dj), axis=(0, 1))
    ri, di = np.nonzero(is_peak)
    order = np.argsort(m[ri, di])[::-1][:max_peaks]
    dr = rd_map.range_axis_m[1] - rd_map.range_axis_m[0]
    dd = rd_map.doppler_axis_hz[1] - rd_map.doppler_axis_hz[0]
    lin = 10.0 ** (m / 20.0)
    span = rd_map.range_axis_m.size * dr

    def vertex(vals, i):
        return parabolic_vertex(vals[i - 1], vals[i], vals[(i + 1) % vals.size])

    dets = []
    for idx in order:
        i, j = int(ri[idx]), int(di[idx])
        rng = float(rd_map.range_axis_m[i] + vertex(lin[:, j], i) * dr)
        if rng > span / 2:
            rng -= span
        dets.append(Detection(
            rel_bistatic_range_m=rng,
            doppler_shift_hz=float(rd_map.doppler_axis_hz[j] + vertex(lin[i, :], j) * dd),
            magnitude_db=float(m[i, j])))
    return dets


# Blocks of a few rows put every edge case at a block edge; 64 was the
# default. A block holds ``dsp._BLOCK`` cells, so rows of ``nd`` cells are
# cut into blocks of ``rows`` with ``dsp._BLOCK = rows * nd``.
ROWS_PER_BLOCK = st.sampled_from([1, 2, 3, 5, 64])
WORKERS = st.sampled_from([1, 3])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.integers(1, 24),
       st.sampled_from(["hamming", "rect"]), st.integers(1, 4), ROWS_PER_BLOCK, WORKERS)
@settings(max_examples=100, deadline=None)
def test_range_doppler_matches_complex_map_oracle(seed, nf, nt, window_kind, zero_pad,
                                                  rows, workers):
    """Same bits at any block size and worker count, for odd and even Doppler
    lengths (the two halves of the fftshift) and maps down to one row or
    column."""
    rng = np.random.default_rng(seed)
    cfr = rng.normal(size=(nf, nt)) + 1j * rng.normal(size=(nf, nt))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", rows * nt * zero_pad)
        mp.setattr(dsp, "_workers", lambda: workers)
        got = range_doppler(cfr, desk_cfg(), SensingMode.PILOT_ONLY,
                            window_kind=window_kind, zero_pad=zero_pad).magnitude_db
    want = range_doppler_db_oracle(cfr, window_kind, zero_pad)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("columns", [1, 3, 64])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("nf, nt, zero_pad", [(96, 37, 4), (256, 130, 1), (7, 200, 3)])
def test_blocked_range_idft_has_scipy_fft_bits(monkeypatch, columns, workers, nf, nt,
                                               zero_pad):
    """The range IDFT on blocks of CFR columns, on 1 or 3 threads, gives the
    map of whole-array ``scipy.fft`` transforms bit for bit."""
    rng = np.random.default_rng(nf * nt)
    cfr = rng.normal(size=(nf, nt)) + 1j * rng.normal(size=(nf, nt))
    monkeypatch.setattr(dsp, "_BLOCK", columns * nf * zero_pad)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = range_doppler(cfr, desk_cfg(), SensingMode.PILOT_ONLY,
                        zero_pad=zero_pad).magnitude_db
    want = range_doppler_db_oracle(cfr, "hamming", zero_pad, fft=scipy.fft)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def quantized_map(seed, nf, nt, levels):
    """Map of a few dB levels, so plateaus, ties between neighbors and ties
    across the wrapped edges and the block edges are common."""
    rng = np.random.default_rng(seed)
    m = -3.0 * rng.integers(0, levels, size=(nf, nt)).astype(float)
    m -= m.max()
    m += 0.5 * rng.integers(0, 2, size=(nf, nt)) * (rng.random() < 0.5)
    return m


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(2, 30),
       st.integers(2, 12), st.sampled_from([-3.0, -12.0, -45.0]),
       st.integers(1, 16), ROWS_PER_BLOCK, WORKERS)
@settings(max_examples=100, deadline=None)
def test_extract_peaks_matches_roll_rule(seed, nf, nt, levels, threshold_db, max_peaks,
                                         rows, workers):
    """Same detections as the roll rule at any block size and worker count."""
    m = quantized_map(seed, nf, nt, levels)
    rd_map = RangeDopplerMap(magnitude_db=m,
                             range_axis_m=np.arange(nf) * 0.3,
                             doppler_axis_hz=(np.arange(nt) - nt // 2) * 25.0,
                             mode=SensingMode.PILOT_ONLY)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", rows * nt)
        mp.setattr(dsp, "_workers", lambda: workers)
        got = extract_peaks(rd_map, threshold_db, max_peaks=max_peaks)
    want = extract_peaks_roll_oracle(rd_map, threshold_db, max_peaks)
    assert got == want


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 12), ROWS_PER_BLOCK)
@settings(max_examples=100, deadline=None)
def test_max3_blocks_match_wrapped_maximum_filter(seed, nf, nt, levels, rows):
    """The 3x3 maximum of row blocks, each read with a wrapped halo row on
    either side, put together, is ndimage's wrapped maximum filter, down to
    maps of one row or column."""
    m = quantized_map(seed, nf, nt, levels)
    blocks = [_max3_wrapped(m.take(np.arange(s - 1, min(s + rows, nf) + 1), axis=0,
                                   mode="wrap"))
              for s in range(0, nf, rows)]
    assert np.array_equal(np.concatenate(blocks),
                          ndimage.maximum_filter(m, size=3, mode="wrap"))


def detection_bits(dets):
    """Each detection's three figures as exact float hex strings."""
    return [tuple(float.hex(v) for v in (d.rel_bistatic_range_m, d.doppler_shift_hz,
                                         d.magnitude_db)) for d in dets]


def sensing_cfr(rng, kind, nf, nt, zero_pad, slab_edge=None):
    """A sensing CFR of one of four kinds: Gaussian noise; small integers,
    whose rect-window maps tie neighbors exactly in dB; one impulse, whose
    map is exactly flat, so that every cell is a local maximum and they all
    tie; or point targets on the map's first and last range rows and its
    first and last (wrapped) Doppler columns, in weak noise. With a
    ``slab_edge`` row, the "edges" CFR also has the strongest target on that
    row and a weaker one on the row before it."""
    if kind == "noise":
        return rng.normal(size=(nf, nt)) + 1j * rng.normal(size=(nf, nt))
    if kind == "impulse":
        # at the lowest physical frequency and the first symbol, where the
        # transforms multiply by no twiddle factor
        cfr = np.zeros((nf, nt), dtype=complex)
        cfr[(nf + 1) // 2, 0] = rng.integers(1, 4)
        return cfr
    if kind == "integers":
        return (rng.integers(-1, 2, size=(nf, nt))
                + 1j * rng.integers(-1, 2, size=(nf, nt))).astype(complex)
    nd = nt * zero_pad
    first_col, last_col = -(nd // 2) / nd, (nd - 1 - nd // 2) / nd
    # range row r of the map is a delay of -r / zero_pad bins
    cfr = (synthetic_cfr(nf, nt, 0.0, first_col)
           + synthetic_cfr(nf, nt, -1.0 / zero_pad, last_col, gain=0.7)
           + synthetic_cfr(nf, nt, 0.0, last_col, gain=0.4)
           + 1e-3 * (rng.normal(size=(nf, nt)) + 1j * rng.normal(size=(nf, nt))))
    if slab_edge is not None:
        cfr += (synthetic_cfr(nf, nt, -slab_edge / zero_pad, first_col, gain=1.5)
                + synthetic_cfr(nf, nt, -(slab_edge - 1) / zero_pad, last_col, gain=0.5))
    return cfr


def slab_cfg(nr, nt, block, slabs):
    """A frame whose payload grid cuts an ``nr`` x ``nt`` range profile, in
    blocks of ``block`` range rows, into ``slabs`` slabs (3: at least 3),
    when a frame of at least 8 x 8 payload cells does; else `desk_cfg`, whose
    grid holds every profile of these tests in one slab."""
    n_blocks = -(-nr // block)
    for k in range(1, n_blocks):
        if slabs == 1 or min(-(-n_blocks // k), 3) != slabs:
            continue
        # `radar._slabs` puts k blocks in a slab for k to k + 1 blocks of cells
        lo, hi = k * block * nt, (k + 1) * block * nt
        for n in range(8, hi // 8 + 1, 2):
            m = max(8, -(-lo // n))
            m += -m % 4
            if m * n < hi:
                return FrameConfig(n_subcarriers=n, cp_len=1, m_payload=m)
    return desk_cfg()


def test_slab_sizes(monkeypatch):
    """A full frame at zero padding z takes z slabs of N range rows, a
    pilot-only profile one slab, and `slab_cfg` the slabs it asks for."""
    for zero_pad in (1, 2, 4):
        cfg = FrameConfig(m_payload=512)
        nt, nd = 512, 512 * zero_pad
        assert radar._slabs(cfg, 2048 * zero_pad, nt, nd) == [
            (p * 2048, (p + 1) * 2048) for p in range(zero_pad)]
        assert radar._slabs(cfg, 1024 * zero_pad, 128, 128 * zero_pad) == [
            (0, 1024 * zero_pad)]
    monkeypatch.setattr(dsp, "_BLOCK", 5 * 96)
    for slabs in (2, 3):
        cfg = slab_cfg(96, 24, 5, slabs)
        assert min(len(radar._slabs(cfg, 96, 24, 96)), 3) == slabs


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24), st.integers(2, 24),
       st.sampled_from(["hamming", "rect"]), st.integers(1, 4),
       st.sampled_from(["noise", "integers", "impulse", "edges"]),
       st.sampled_from([-3.0, -12.0, -45.0, "block top", "block bound"]),
       st.integers(1, 16), ROWS_PER_BLOCK, st.sampled_from([1, 2, "reversed"]),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_detect_matches_peaks_of_the_map(seed, nf, nt, window_kind, zero_pad, kind,
                                         threshold_db, max_peaks, rows, workers, slabs):
    """`detect` gives the detections of `extract_peaks` on the map of
    `range_doppler` bit for bit, at any block size and worker count, with
    the blocks run last to first, as threads may finish them, and with the
    range profile made in 1, 2 or at least 3 slabs: halos cross block and
    slab edges, peaks sit on the first and last range rows, on the rows
    either side of a slab edge and on the wrapped Doppler column, and
    neighbors tie. A "block top" threshold is exactly the largest dB value
    of one block below the map peak, the edge at which `detect` keeps a
    block; a "block bound" threshold puts one block's L1 bound exactly at
    the threshold below the peak, the edge at which `detect` skips it."""
    rng = np.random.default_rng(seed)
    mode = SensingMode.PILOT_ONLY
    nr, nd = nf * zero_pad, nt * zero_pad

    def reversed_blocks(block, n, width=1):
        size = max(dsp._BLOCK // width, 1)
        for s in reversed(range(0, n, size)):
            block(s, min(s + size, n))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", rows * nd)
        cfg = slab_cfg(nr, nt, rows, slabs)
        edges = [r0 for r0, _ in radar._slabs(cfg, nr, nt, nd)][1:]
        cfr = sensing_cfr(rng, kind, nf, nt, zero_pad, slab_edge=edges[0] if edges else None)
        if workers == "reversed":
            mp.setattr(dsp, "run_blocks", reversed_blocks)
        else:
            mp.setattr(dsp, "_workers", lambda: workers)
        rd = range_doppler(cfr, cfg, mode, window_kind=window_kind, zero_pad=zero_pad)
        if threshold_db == "block top":
            tops = [t for t in (rd.magnitude_db[s:s + rows].max()
                                for s in range(0, nr, rows)) if t < 0]
            threshold_db = float(rng.choice(tops)) if tops else -3.0
        elif threshold_db == "block bound":
            prof = range_profile_oracle(cfr, window_kind, zero_pad)
            peak = np.abs(np.fft.fft(prof, n=nd, axis=1)).max()
            l1 = np.abs(prof).sum(axis=1)
            ratios = [r for r in (l1[s:s + rows].max() * radar._MARGIN / peak
                                  for s in range(0, nr, rows)) if 0 < r < 1]
            # 10 ** ((threshold_db - _DB_SLACK) / 20) * peak is the bound
            threshold_db = (20.0 * np.log10(float(rng.choice(ratios))) + radar._DB_SLACK
                            if ratios else -3.0)
        want = extract_peaks(rd, threshold_db, max_peaks=max_peaks)
        got = detect(cfr, cfg, mode, window_kind, zero_pad, threshold_db, max_peaks)
    assert detection_bits(got) == detection_bits(want)


def test_cfr_edges_put_peaks_on_the_map_edges():
    """The "edges" CFR has local maxima on the first and last range rows
    and on the first and last Doppler columns."""
    for zero_pad in (1, 4):
        m = range_doppler(sensing_cfr(np.random.default_rng(0), "edges", 16, 12, zero_pad),
                          desk_cfg(), SensingMode.PILOT_ONLY, window_kind="rect",
                          zero_pad=zero_pad).magnitude_db
        top = np.unravel_index(np.argsort(m, axis=None)[::-1][:3], m.shape)
        assert sorted(zip(*top)) == sorted([(0, 0), (m.shape[0] - 1, m.shape[1] - 1),
                                            (0, m.shape[1] - 1)])


def rss_rise_mb(tmp_path, setup, call):
    """Rise of peak RSS, in MB, over the statements ``call`` in a fresh
    process, after ``setup``. The worker count is fixed at 2, as each worker
    thread holds its own block temporaries."""
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from bistatic_radcom import dsp
        from bistatic_radcom.params import FrameConfig, SensingMode
        from bistatic_radcom.radar import detect, extract_peaks, range_doppler

        dsp._workers = lambda: 2
        rng = np.random.default_rng(0)
    """) + textwrap.dedent(setup) + textwrap.dedent("""
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    """) + textwrap.dedent(call) + textwrap.dedent("""
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
    """)
    src = str(Path(radar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    return float(out)


NOISE_CFR = """
    cfr = rng.normal(size=(2048, 512)) + 1j * rng.normal(size=(2048, 512))
"""


def test_full_frame_map_memory(tmp_path):
    """The run_short-sized full-frame map (2048 x 512 CFR, zero_pad 4) and its
    peaks raise peak RSS by well under the 385 MB that the whole-map form with
    its complex map and full-size temporaries took."""
    assert rss_rise_mb(tmp_path, NOISE_CFR, """
        rd = range_doppler(cfr, FrameConfig(m_payload=512), SensingMode.FULL_FRAME,
                           zero_pad=4)
        extract_peaks(rd, -45.0, max_peaks=8)
    """) < 300.0


def test_full_frame_detection_memory(tmp_path):
    """Detections on the run_short-sized full-frame noise CFR (2048 x 512,
    zero_pad 4) raise peak RSS by well under the size of the map they come
    from (the 134 MB float64 map alone; map and peaks took about 190 MB).
    Every block of noise reaches a -45 dB threshold, so the rows of the
    whole 67 MB range profile are kept, one slab at a time."""
    assert rss_rise_mb(tmp_path, NOISE_CFR, """
        detect(cfr, FrameConfig(m_payload=512), SensingMode.FULL_FRAME, "hamming", 4,
               -45.0, 8)
    """) < 110.0


def test_full_frame_target_detection_memory(tmp_path):
    """Detections on a run_short-sized full-frame CFR (2048 x 512, zero_pad
    4) of two point targets in weak noise raise peak RSS by well under the
    67 MB range profile: one 17 MB slab of range rows is made at a time,
    and only the blocks of rows whose bound reaches the threshold are
    transformed and kept."""
    assert rss_rise_mb(tmp_path, """
        k, m = np.fft.fftfreq(2048)[:, None], np.arange(512)[None, :]
        cfr = (np.exp(-2j * np.pi * k * 100.25) * np.exp(2j * np.pi * 0.1 * m)
               + 0.3 * np.exp(-2j * np.pi * k * 1700.0) * np.exp(-2j * np.pi * 0.37 * m)
               + 1e-3 * (rng.normal(size=(2048, 512)) + 1j * rng.normal(size=(2048, 512))))
    """, """
        detect(cfr, FrameConfig(m_payload=512), SensingMode.FULL_FRAME, "hamming", 4,
               -45.0, 8)
    """) < 30.0
