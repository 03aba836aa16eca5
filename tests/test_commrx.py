"""Payload demodulation, channel estimation, equalization and decoding."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from bistatic_radcom import commrx, dsp, ldpc, txframe
from bistatic_radcom.channel import (
    ChannelScenario,
    ImpairmentSet,
    PropagationPath,
    run_channel,
)
from bistatic_radcom.commrx import (
    cir_evolution,
    compensate_residual_sfo,
    constellation_density,
    demap_decode,
    demodulate_frame,
    equalize,
    estimate_cfr,
    estimate_main_doppler,
    evm_rms_percent,
    qpsk_llrs,
)
from bistatic_radcom.params import FrameConfig
from bistatic_radcom.sync import synchronize
from bistatic_radcom.txframe import (
    build_tx_frame,
    frame_capacity_bits,
    frame_tables,
    map_qpsk,
    pilot_cfr,
)


def desk_cfg():
    return FrameConfig(n_subcarriers=256, cp_len=64, m_payload=128)


def make_frame(cfg, seed=0):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    return info, build_tx_frame(cfg, info)


def payload_samples(tx, cfg):
    return tx.samples[cfg.m_preamble * cfg.symbol_len:].copy()


def test_demodulate_grid_matches_tx_loopback():
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    assert rg.shape == (cfg.n_subcarriers, cfg.m_payload)
    tx_payload = frame[:, cfg.m_preamble:]
    assert np.allclose(rg, tx_payload, atol=1e-10)


def test_cfr_exact_at_pilots_flat_channel():
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    est = estimate_cfr(rg, cfg)
    assert np.allclose(est.cfr, 1.0, atol=1e-9)


def test_cfr_tracks_scaled_channel():
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    h = 0.5 * np.exp(1j * 0.3)
    rg = demodulate_frame(h * payload_samples(tx, cfg), cfg)
    est = estimate_cfr(rg, cfg)
    assert np.allclose(est.cfr, h, atol=1e-9)


def test_main_doppler_estimate():
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    fd = 2.0e3
    n = np.arange(tx.samples.size)
    shifted = tx.samples * np.exp(2j * np.pi * fd * n / tx.nominal_rate)
    rg = demodulate_frame(shifted[cfg.m_preamble * cfg.symbol_len:].copy(), cfg)
    fd_hat, rg2 = estimate_main_doppler(rg, cfg)
    assert fd_hat == pytest.approx(fd, rel=0.05)
    # after compensation the residual progression is tiny
    fd_res, _ = estimate_main_doppler(rg2, cfg)
    assert abs(fd_res) < 0.05 * fd


def test_equalize_decodes_loopback_exactly():
    cfg = desk_cfg()
    info, (frame, payload, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    est = estimate_cfr(rg, cfg)
    s_hat, nv, erased = equalize(rg, est.cfr, cfg)
    assert not erased.any()
    got, metrics = demap_decode(
        s_hat, nv, cfg, payload.codeword_count, info.size,
        tx_info_bits=info, tx_coded_bits=payload.coded_bits)
    assert np.array_equal(got, info)
    assert metrics.pre_fec_ber == 0.0
    assert metrics.post_fec_ber == 0.0
    assert metrics.decoder_converged


def data_cells(grid, cfg):
    """Data cells of an N x M_pl payload-region array, column-major."""
    return grid.T[frame_tables(cfg).data_mask.T]


def equalize_one_shot(grid, cfr, cfg):
    """Zero-forcing equalization over every data cell at once."""
    t = frame_tables(cfg)
    floor = 1e-6 * np.median(np.abs(cfr[np.ix_(t.k_pil, t.m_pil)]))
    h = data_cells(cfr, cfg)
    y = data_cells(grid, cfg)
    mag = np.abs(h)
    erased = mag <= floor
    s_hat = y / np.where(erased, 1.0, h)
    s_hat[erased] = 0.0
    noise_var = commrx._noise_variance_per_subcarrier(grid, cfg)
    nv_grid = np.broadcast_to(noise_var[:, None], grid.shape)
    nv = data_cells(nv_grid, cfg) / np.where(erased, 1.0, mag ** 2)
    nv[erased] = np.inf
    return s_hat, nv, erased


@pytest.mark.parametrize("columns, workers", [(1, 1), (5, 3), (64, 2)])
def test_blocked_equalize_matches_one_shot(monkeypatch, columns, workers):
    """Blocks of payload symbols on 1 to 3 threads, erased cells included,
    return the one-shot symbols, noise variances and erasures bit for bit."""
    cfg = desk_cfg()
    rng = np.random.default_rng(columns)
    shape = (cfg.n_subcarriers, cfg.m_payload)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cfr[rng.random(shape) < 0.05] = 0.0
    monkeypatch.setattr(dsp, "_BLOCK", columns * cfg.n_subcarriers)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = equalize(grid, cfr, cfg)
    want = equalize_one_shot(grid, cfr, cfg)
    assert want[2].any()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def interp_axis_one_shot(values, xp, x, axis):
    """Linear interpolation of complex samples along one axis, edges held,
    over the whole array at once."""
    pos = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    x0, x1 = xp[pos], xp[pos + 1]
    w = np.clip((x - x0) / (x1 - x0), 0.0, 1.0)
    if axis == 0:
        return (1.0 - w)[:, None] * values[pos, :] + w[:, None] * values[pos + 1, :]
    return (1.0 - w)[None, :] * values[:, pos] + w[None, :] * values[:, pos + 1]


def estimate_cfr_one_shot(grid, cfg):
    """The bilinear CFR with each axis interpolated in one call."""
    hp = pilot_cfr(grid, cfg)
    t = frame_tables(cfg)
    full_f = interp_axis_one_shot(hp, t.k_pil, np.arange(cfg.n_subcarriers), axis=0)
    cfr = interp_axis_one_shot(full_f, t.m_pil, np.arange(cfg.m_payload), axis=1)
    cfr[np.ix_(t.k_pil, t.m_pil)] = hp
    return cfr


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


@pytest.mark.parametrize("cells, workers", [(1, 1), (1, 3), (400, 3), (1 << 16, 2)])
def test_blocked_estimate_cfr_matches_one_shot(monkeypatch, cells, workers):
    """Blocks of 1, 3 (the last one ragged) or all 256 subcarrier rows on 1
    to 3 threads return the one-shot CFR bit for bit, C-ordered."""
    cfg = desk_cfg()
    rng = np.random.default_rng(cells)
    shape = (cfg.n_subcarriers, cfg.m_payload)
    grid = np.asfortranarray(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = estimate_cfr(grid, cfg).cfr
    assert got.flags.c_contiguous
    assert same_bits(got, estimate_cfr_one_shot(grid, cfg))


def drifting_grid(cfg, sfo_norm=1e-6):
    """Payload grid of a loopback whose clock drifts, not corrected in sync."""
    _, (_, _, tx) = make_frame(cfg, seed=2)
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=1000 / tx.nominal_rate,
                               doppler_hz=0.0, is_main=True),),
        impairments=ImpairmentSet(sfo_norm=sfo_norm))
    pay, _ = synchronize(run_channel(tx, sc), cfg, correct_sfo=False)
    return demodulate_frame(pay, cfg)


@pytest.mark.parametrize("cells, workers", [(1, 1), (1, 3), (800, 3), (1 << 16, 2)])
def test_blocked_drift_ramp_matches_one_shot(monkeypatch, cells, workers):
    """Blocks of 1, 3 (the last one ragged) or all 512 payload symbols on 1
    to 3 threads give the bits of ``grid * ramp`` and ``cfr * ramp`` with
    the whole ramp. The outputs are new arrays and the inputs keep their
    bits: the acceptance tests compare a grid with its compensated copy."""
    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=512)
    grid = drifting_grid(cfg)
    est = estimate_cfr(grid, cfg)
    grid_in, cfr_in = grid.copy(), est.cfr.copy()
    slope, warning = commrx._drift_slope(grid, cfg)
    assert slope != 0.0 and not warning
    k_signed = np.fft.fftfreq(cfg.n_subcarriers, d=1.0 / cfg.n_subcarriers)
    m = np.arange(cfg.m_payload)
    ramp = np.exp(2j * np.pi * np.outer(k_signed, slope * m) / cfg.n_subcarriers)
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got_grid, got_est = compensate_residual_sfo(grid, est, cfg)
    assert same_bits(got_grid, grid * ramp)
    assert same_bits(got_est.cfr, est.cfr * ramp)
    assert got_est.delay_slope == float(slope / cfg.bandwidth_hz)
    assert not np.shares_memory(got_grid, grid)
    assert not np.shares_memory(got_est.cfr, est.cfr)
    assert same_bits(grid, grid_in) and same_bits(est.cfr, cfr_in)


def density_one_shot(symbols, bins=201, extent=2.0):
    """The constellation histogram from one ``np.bincount`` over every
    symbol."""
    s = np.asarray(symbols).ravel()
    edges = np.linspace(-extent, extent, bins + 1)
    re, re_in = commrx._bin_index(s.real, edges)
    im, im_in = commrx._bin_index(s.imag, edges)
    flat = re * bins + im
    flat[~(re_in & im_in)] = bins * bins
    hist = np.bincount(flat, minlength=bins * bins + 1)[:-1]
    hist = hist.reshape(bins, bins).astype(np.float64)
    return hist / max(hist.max(), 1.0), edges


@pytest.mark.parametrize("cells, workers", [(1, 1), (7, 3), (1000, 3), (1 << 16, 2)])
@pytest.mark.parametrize("n", [0, 1, 6999])
def test_blocked_density_matches_one_shot(monkeypatch, cells, workers, n):
    """Blocks of 1, 7 or 1000 symbols (the last one ragged) on 1 to 3
    threads, symbols outside the range included, count every symbol once;
    thread switches as often as the interpreter allows lose no block."""
    rng = np.random.default_rng(n)
    s = 1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, got_edges = constellation_density(s, bins=31)
    finally:
        sys.setswitchinterval(interval)
    want, want_edges = density_one_shot(s, bins=31)
    assert same_bits(got, want) and same_bits(got_edges, want_edges)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 3),
       st.sampled_from([None, np.nan, np.inf, 0.0]))
@settings(max_examples=200, deadline=None)
def test_median_has_numpy_bits(seed, rows, cols, special):
    """Odd and even sizes, 1-D and 2-D, with ties, a NaN or an infinity."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(rows, cols)) * rng.random()
    if special is not None:
        x[rng.integers(rows), rng.integers(cols)] = special
    for a in (x, x.ravel()):
        got, want = np.float64(commrx._median(a)), np.median(a)
        assert got.view(np.uint64) == want.view(np.uint64) or np.isnan(got) and np.isnan(want)


def tap_delays_one_shot(hp, pad=8):
    """`_tap_delays` with the whole zero-padded CIR from one ``scipy.fft``
    call."""
    size = hp.shape[0] * pad
    mag = np.abs(scipy.fft.ifft(np.fft.fftshift(hp, axes=0), n=size, axis=0, workers=2))
    tap = commrx._main_tap(np.mean(mag, axis=1))
    peaks = np.argmax(mag, axis=0)
    dist = np.minimum((peaks - tap) % size, (tap - peaks) % size)
    peaks = np.where(dist <= pad, peaks, tap)
    idx = np.arange(hp.shape[1])
    b = mag[peaks, idx]
    pos = peaks + dsp.parabolic_vertex(mag[(peaks - 1) % size, idx], b,
                                       mag[(peaks + 1) % size, idx])
    pos = np.where(pos > size / 2, pos - size, pos)
    return pos / pad, b


@pytest.mark.parametrize("columns", [1, 3, 64])
@pytest.mark.parametrize("workers", [1, 3])
def test_blocked_tap_delays_have_scipy_fft_bits(monkeypatch, columns, workers):
    """The zero-padded CIR on blocks of pilot symbols, on 1 or 3 threads,
    gives the delays and magnitudes of one whole-array ``scipy.fft`` call
    bit for bit."""
    rng = np.random.default_rng(columns)
    nb, m = 128, 67
    k = np.arange(nb)[:, None] - nb // 2
    delay = rng.uniform(-2.0, 2.0, size=m)
    hp = np.exp(-2j * np.pi * np.fft.ifftshift(k, axes=0) * delay / nb)
    hp += 0.1 * (rng.normal(size=(nb, m)) + 1j * rng.normal(size=(nb, m)))
    monkeypatch.setattr(dsp, "_BLOCK", columns * nb * commrx._CIR_PAD)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = commrx._tap_delays(hp)
    want = tap_delays_one_shot(hp)
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_equalize_flags_null_channel_cells():
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    cfr = np.ones_like(rg)
    cfr[10, :] = 0.0
    _, _, erased = equalize(rg, cfr, cfg)
    assert erased.any()


@pytest.mark.parametrize("scale", [1e-15, 1e-9, 1e15])
def test_equalize_erasure_is_scale_free(scale):
    """The grid and its CFR scaled together by a power of ten (a main path
    at -300 to +300 dB) erase the same cells and give the same symbols; the
    erasure floor follows the CFR's own level, not an absolute one."""
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    cfr = estimate_cfr(rg, cfg).cfr
    cfr[10, :] = 1e-9 * cfr[10, :]
    s_ref, _, erased_ref = equalize(rg, cfr, cfg)
    s_hat, nv, erased = equalize(rg * scale, cfr * scale, cfg)
    assert erased_ref.any() and not erased_ref.all()
    assert np.array_equal(erased, erased_ref)
    assert np.allclose(s_hat, s_ref, rtol=1e-12, atol=0.0)
    assert np.all(np.isinf(nv[erased])) and np.all(np.isfinite(nv[~erased]))


def test_equalize_erases_every_cell_of_a_zero_cfr():
    """A CFR that is zero everywhere erases every data cell, without a
    division warning."""
    cfg = desk_cfg()
    _, (frame, _, tx) = make_frame(cfg)
    rg = demodulate_frame(payload_samples(tx, cfg), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s_hat, nv, erased = equalize(rg, np.zeros_like(rg), cfg)
    assert erased.all()
    assert not s_hat.any()
    assert np.all(np.isinf(nv))


def test_llr_signs_follow_bit_mapping():
    """Positive LLR favors bit 0 in the mapper convention."""
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    s = map_qpsk(bits)
    llrs = qpsk_llrs(s, np.full(s.size, 0.1))
    hard = (llrs < 0).astype(np.uint8)
    assert np.array_equal(hard, bits)


def test_llr_magnitude_scales_inverse_noise():
    s = map_qpsk(np.array([0, 0], dtype=np.uint8))
    strong = qpsk_llrs(s, np.array([0.01]))
    weak = qpsk_llrs(s, np.array([1.0]))
    assert np.all(np.abs(strong) > np.abs(weak))


def test_evm_zero_for_perfect_symbols():
    s = map_qpsk(np.random.default_rng(0).integers(0, 2, 400, dtype=np.uint8))
    assert evm_rms_percent(s) == pytest.approx(0.0, abs=1e-10)


def test_evm_matches_injected_error():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 20000, dtype=np.uint8)
    s = map_qpsk(bits)
    sigma = 0.05
    noisy = s + sigma * (rng.normal(size=s.size) + 1j * rng.normal(size=s.size)) / np.sqrt(2)
    assert evm_rms_percent(noisy, coded_bits=bits) == pytest.approx(100 * sigma, rel=0.05)


def llrs_one_shot(symbols, noise_vars):
    """The LLRs with the noise floor, the scale and both products made over
    the whole array at once."""
    s = np.asarray(symbols).ravel()
    nv = np.maximum(np.asarray(noise_vars).ravel(), 1e-12)
    scale = 2.0 * np.sqrt(2.0) / nv
    llrs = np.empty(2 * s.size)
    llrs[0::2] = scale * s.real
    llrs[1::2] = scale * s.imag
    return llrs


@pytest.mark.parametrize("cells, workers", [(1, 1), (7, 3), (1000, 3), (1 << 16, 2)])
def test_blocked_llrs_match_one_shot(monkeypatch, cells, workers):
    """Blocks of 1, 7 or 1000 symbols (the last one ragged) on 1 to 3
    threads give the whole-array LLRs bit for bit: noise variances below
    the floor, zero and infinite included, and one variance for every
    symbol."""
    rng = np.random.default_rng(cells)
    n = 6999
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    nv = rng.uniform(0.01, 2.0, n)
    nv[rng.random(n) < 0.02] = np.inf
    nv[rng.random(n) < 0.02] = 0.0
    nv[rng.random(n) < 0.02] = 1e-15
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    assert same_bits(qpsk_llrs(s, nv), llrs_one_shot(s, nv))
    assert same_bits(qpsk_llrs(s, np.array([0.3])), llrs_one_shot(s, np.full(n, 0.3)))


@pytest.mark.parametrize("cells, workers", [(1, 1), (7, 3), (1000, 3), (1 << 16, 2)])
def test_blocked_float32_llrs_and_pre_fec_ber(monkeypatch, cells, workers):
    """`demap_decode` hands the decoder the float32 LLRs that casting and
    clipping the whole float64 LLRs give, bit for bit, made block by block
    on 1 to 3 threads, and counts the pre-FEC errors of the float64 LLRs.
    LLRs beyond the clip bound and LLRs below float32's range are included:
    a tiny negative LLR casts to -0, which is not below 0, yet its bit is
    decided 1."""
    code = ldpc.default_code()
    n_cw = 5
    n_coded = n_cw * code.n
    rng = np.random.default_rng(cells)
    n = n_coded // 2 + 7  # symbols past the codewords are not demapped
    s = 20.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    s.real[:50] = -rng.uniform(1e-300, 1e-290, 50)
    s.imag[50:80] = rng.uniform(1e-300, 1e-290, 30)
    nv = rng.uniform(0.01, 2.0, n)
    coded = rng.integers(0, 2, n_coded, dtype=np.uint8)
    coded[:100:2] = 0  # sent 0, received a tiny negative LLR: an error
    info = rng.integers(0, 2, n_cw * code.k, dtype=np.uint8)
    seen = []
    decode = ldpc.LdpcCode.decode

    def spy(self, llrs, *args, **kwargs):
        seen.append(llrs)
        return decode(self, llrs, *args, **kwargs)

    monkeypatch.setattr(ldpc.LdpcCode, "decode", spy)
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=64)
    got, metrics = demap_decode(s, nv, cfg, n_cw, info.size, tx_info_bits=info,
                                tx_coded_bits=coded)
    want = llrs_one_shot(s, nv)[:n_coded]
    assert (want[:100:2] < 0).all() and not (want[:100:2].astype(np.float32) < 0).any()
    (llrs,) = seen
    assert same_bits(llrs, np.clip(want.astype(np.float32), -40.0, 40.0).reshape(n_cw, -1))
    assert metrics.pre_fec_ber == float(np.mean((want < 0) != coded))
    bits, _ = decode(code, want.reshape(n_cw, -1))
    assert np.array_equal(got, bits[:, :code.k].reshape(-1))
    assert metrics.post_fec_ber == float(np.mean(got != info))


def evm_one_shot(symbols, reference):
    return float(100.0 * np.sqrt(np.mean(np.abs(symbols - reference) ** 2) /
                                 max(np.mean(np.abs(reference) ** 2), 1e-30)))


@pytest.mark.parametrize("cells, workers", [(1, 1), (7, 3), (1000, 3), (1 << 16, 2)])
def test_blocked_evm_from_coded_bits_matches_mapped_reference(monkeypatch, cells, workers):
    """The EVM against the symbols that the coded bits map to, made block by
    block, gives the bits of the whole reference: the coded bits end inside
    a block and inside a column of data cells, the cells past them carry
    zero bits, and the last codeword is only partly info bits. The
    nearest-point form keeps the whole-array bits too."""
    cfg = desk_cfg()
    max_info, n_cw = frame_capacity_bits(cfg)
    info = np.random.default_rng(3).integers(0, 2, max_info - 200, dtype=np.uint8)
    payload = txframe.encode_payload(info, cfg)
    assert payload.codeword_count == n_cw and info.size % 432 != 0
    assert payload.coded_bits.size < 2 * cfg.n_data_elements
    bits = np.zeros(2 * cfg.n_data_elements, dtype=np.uint8)
    bits[:payload.coded_bits.size] = payload.coded_bits
    ref = map_qpsk(bits)
    assert same_bits(txframe.map_payload(info, cfg)[1], ref)
    rng = np.random.default_rng(cells)
    s = ref + 0.2 * (rng.normal(size=ref.size) + 1j * rng.normal(size=ref.size))
    monkeypatch.setattr(dsp, "_BLOCK", cells)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = evm_rms_percent(s, coded_bits=payload.coded_bits)
    assert np.float64(got).view(np.uint64) == np.float64(evm_one_shot(s, ref)).view(np.uint64)
    nearest = (np.sign(s.real) + 1j * np.sign(s.imag)) / np.sqrt(2.0)
    assert evm_rms_percent(s) == evm_one_shot(s, nearest)


@pytest.mark.parametrize("block", [100, 1000])
def test_evm_sums_around_pairwise_splits(monkeypatch, block):
    """The EVM's two sums, made a block at a time, have the bits of the
    whole-array formula at lengths on either side of the multiples of 8
    that NumPy splits a pairwise sum at, of its 128-value loop and of the
    block size, against the coded bits and against the nearest point. The
    error magnitudes span many orders, so the order of the additions
    shows."""
    monkeypatch.setattr(dsp, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 263, 1015, 1016, 1017,
              block - 1, block, block + 1, 2 * block + 7, 8 * block + 3):
        bits = rng.integers(0, 2, 2 * n - n % 3, dtype=np.uint8)
        ref = txframe.map_coded_bits(bits, 0, n)
        s = ref + rng.lognormal(-3.0, 3.0, n) * np.exp(2j * np.pi * rng.random(n))
        got = evm_rms_percent(s, coded_bits=bits)
        assert np.float64(got).view(np.uint64) == np.float64(
            evm_one_shot(s, ref)).view(np.uint64), n
        nearest = (np.sign(s.real) + 1j * np.sign(s.imag)) / np.sqrt(2.0)
        got = evm_rms_percent(s)
        assert np.float64(got).view(np.uint64) == np.float64(
            evm_one_shot(s, nearest)).view(np.uint64), n


def test_llr_memory(tmp_path):
    """LLRs of 4 M symbols raise the peak RSS of the process that makes them
    by little more than their 64 MB output; the whole-array form made the
    floored variances, the scale and the two products (32 MB each) besides.
    The process reads its own high-water mark (``VmHWM``), which is
    ``ru_maxrss`` without the share of the process that spawned it, against
    its resident size (``VmRSS``) before the call, which leaves out the
    freed temporaries of the input generation. The worker count is fixed at
    2, as each thread holds its own block temporaries."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    code = textwrap.dedent("""
        import numpy as np
        from bistatic_radcom import dsp
        from bistatic_radcom.commrx import qpsk_llrs

        def status_mb(key):
            with open("/proc/self/status") as f:
                line = next(x for x in f if x.startswith(key + ":"))
            return int(line.split()[1]) / 1024.0

        dsp._workers = lambda: 2
        rng = np.random.default_rng(0)
        n = 1 << 22
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        nv = rng.uniform(0.01, 2.0, n)
        before = status_mb("VmRSS")
        llrs = qpsk_llrs(s, nv)
        print(status_mb("VmHWM") - before, llrs.nbytes / 2 ** 20)
    """)
    src = str(Path(commrx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    rise, output = map(float, out.split())
    assert output == 64.0
    assert rise < output + 12.0


def test_cir_evolution_tracks_clock_drift():
    """Uncorrected clock offset shows as a linear main-tap delay drift."""
    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=512)
    delta = 2e-6
    rg = drifting_grid(cfg, delta)
    delays, mag_db = cir_evolution(rg, cfg)
    cols = np.arange(delays.size) * cfg.pilot_time_spacing
    slope = np.polyfit(cols, delays, 1)[0]
    expect = -delta * cfg.symbol_len
    assert slope == pytest.approx(expect, rel=0.1)
    assert np.all(mag_db <= 0.0)


def test_residual_sfo_compensation_flattens_drift():
    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=512)
    rg = drifting_grid(cfg)
    est = estimate_cfr(rg, cfg)
    rg2, est2 = compensate_residual_sfo(rg, est, cfg)
    d2, _ = cir_evolution(rg2, cfg)
    drift = abs(d2[-1] - d2[0])
    d1, _ = cir_evolution(rg, cfg)
    assert drift < 0.25 * abs(d1[-1] - d1[0])


def test_constellation_density_shape_and_peak():
    s = map_qpsk(np.random.default_rng(0).integers(0, 2, 2000, dtype=np.uint8))
    density, edges = constellation_density(s, bins=101)
    assert density.shape == (101, 101)
    assert edges.size == 102
    assert density.max() == pytest.approx(1.0)
    # four constellation points -> exactly four occupied cells
    assert np.count_nonzero(density) == 4


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 250),
       st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
       st.integers(0, 3000), st.sampled_from([None, 1, 7, 1000]), st.sampled_from([1, 3]))
@settings(max_examples=100, deadline=None)
def test_constellation_density_matches_histogram2d(seed, bins, extent, n, block, workers):
    """Exact counts of np.histogram2d, with values on every bin edge, one ulp
    either side of each edge, at +-extent and just outside the range, at
    the default block or blocks of 1, 7 or 1000 symbols, on 1 or 3
    threads."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(-extent, extent, bins + 1)
    pool = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf), [-extent, extent, np.inf, -np.inf],
                           rng.uniform(-1.2 * extent, 1.2 * extent, 64)])
    re = np.concatenate([edges, rng.choice(pool, n)])
    im = np.concatenate([rng.permutation(edges), rng.choice(pool, n)])
    symbols = re.astype(np.complex128)
    symbols.imag = im  # re + 1j * im would turn an infinite im into a NaN re
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(dsp, "_BLOCK", block)
        mp.setattr(dsp, "_workers", lambda: workers)
        got, got_edges = constellation_density(symbols, bins=bins, extent=extent)
    hist, _, _ = np.histogram2d(re, im, bins=[edges, edges])
    assert np.array_equal(got_edges, edges)
    assert np.array_equal(got, hist / max(hist.max(), 1.0))
