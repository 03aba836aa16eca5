"""Payload demodulation, pilot-based corrections, equalization and decoding.

Pipeline (after synchronization): column-wise DFT demodulation, main-path
Doppler estimation/correction from the pilot grid, full CFR estimation by
bilinear interpolation of pilot measurements, residual clock-drift
compensation via per-symbol delay tracking of the main channel tap,
zero-forcing equalization, soft QPSK demapping and LDPC decoding.

The whole-grid stages run in fixed blocks on `dsp.run_blocks`, a thread per
CPU: the CFR's time-axis interpolation on blocks of subcarrier rows, the
drift ramp and its two products and the equalizer on blocks of payload
symbols, the tap tracker's zero-padded CIR on blocks of pilot symbols, and
the LLRs and the constellation histogram (one running total) on blocks of
symbols. The EVM sums its squared errors and powers by `dsp.pairwise_sum`,
mapping its reference from the coded bits one block at a time, so no whole
reference exists, and `demap_decode` writes the decoder's float32 LLRs block
by block, so no float64 LLR array exists. Each pass tells `run_blocks` how
many cells one of its rows, symbols or CIRs holds, and `run_blocks` sizes
the blocks, so a short frame is not cut into tiny blocks. No grid-sized
temporary exists whole, block edges do not depend on the thread count, and
each result has the bits of its whole-array formula.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import dsp
from .ldpc import LLR_CLIP, default_code
from .params import FrameConfig
from .txframe import frame_tables, map_coded_bits, pilot_cfr


@dataclass
class CfrEstimate:
    cfr: np.ndarray               # complex, N x M_pl
    delay_slope: float = 0.0      # seconds per payload symbol
    slope_fit_warning: bool = False


@dataclass
class CommMetrics:
    pre_fec_ber: float = float("nan")
    post_fec_ber: float = float("nan")
    evm_rms_percent: float = float("nan")
    frames_decoded: int = 0
    decoder_converged: bool = True
    slope_fit_warning: bool = False


def demodulate_frame(s: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """S/P conversion, CP removal and unitary column-wise DFT of the payload
    samples; returns the N x M_pl payload grid."""
    expected = cfg.symbol_len * cfg.m_payload
    if s.size != expected:
        raise ValueError(f"payload stream must hold {expected} samples, got {s.size}")
    blocks = s.reshape(cfg.m_payload, cfg.symbol_len).T
    return np.fft.fft(blocks[cfg.cp_len:, :], axis=0, norm="ortho")


def _median(x: np.ndarray) -> float:
    """``np.median`` of all of ``x``, with its bits and its NaN result, but
    without the import of ``numpy.ma`` that its NaN check makes on first use
    (several ms, more than the rest of the Doppler estimate)."""
    mid = [(x.size - 1) // 2, x.size // 2]
    part = np.partition(x, sorted({*mid, x.size - 1}), axis=None)
    if np.isnan(part[-1]):
        return float("nan")
    return float(np.mean(part[mid[0]:mid[1] + 1]))


def _main_tap(cir_mag: np.ndarray) -> int:
    """Index of the dominant tap of a mean CIR magnitude profile."""
    peak = int(np.argmax(cir_mag))
    med = _median(cir_mag)
    if not cir_mag[peak] > 10 ** (6.0 / 20.0) * med:
        raise RuntimeError("no dominant channel tap (peak < 6 dB above median)")
    return peak


def estimate_main_doppler(grid: np.ndarray, cfg: FrameConfig) -> tuple[float, np.ndarray]:
    """Estimate the main-path Doppler from the phase progression of the
    strongest CIR tap across pilot symbols, and de-rotate the whole grid."""
    hp = pilot_cfr(grid, cfg)
    cir = np.fft.ifft(hp, axis=0)
    tap = _main_tap(np.mean(np.abs(cir), axis=1))
    track = cir[tap, :]
    # weighted mean phase increment between consecutive pilot symbols
    inc = track[1:] * np.conj(track[:-1])
    phase_step = float(np.angle(np.sum(inc)))
    t_pilot = cfg.pilot_time_spacing * cfg.symbol_len / cfg.bandwidth_hz
    f_hat = phase_step / (2.0 * np.pi * t_pilot)
    m = np.arange(cfg.m_payload)
    rot = np.exp(-2j * np.pi * f_hat * m * cfg.symbol_len / cfg.bandwidth_hz)
    return float(f_hat), grid * rot[None, :]


def _interp_weights(xp: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left neighbour in ``xp`` and weight of the right one for linear
    interpolation at ``x``, edges held."""
    pos = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    x0, x1 = xp[pos], xp[pos + 1]
    return pos, np.clip((x - x0) / (x1 - x0), 0.0, 1.0)


def estimate_cfr(grid: np.ndarray, cfg: FrameConfig) -> CfrEstimate:
    """Bilinear interpolation (frequency first, then time) of the pilot
    channel estimates over the full grid; edges held. The time axis is
    interpolated per block of subcarrier rows, into a C-ordered CFR."""
    hp = pilot_cfr(grid, cfg)
    tables = frame_tables(cfg)
    pos, w = _interp_weights(tables.k_pil, np.arange(cfg.n_subcarriers))
    full_f = (1.0 - w)[:, None] * hp[pos, :] + w[:, None] * hp[pos + 1, :]
    pos, w = _interp_weights(tables.m_pil, np.arange(cfg.m_payload))
    cfr = np.empty((cfg.n_subcarriers, cfg.m_payload), dtype=np.complex128)

    def block(start: int, stop: int) -> None:
        rows = full_f[start:stop]
        out = np.multiply((1.0 - w)[None, :], rows[:, pos], out=cfr[start:stop])
        out += w[None, :] * rows[:, pos + 1]

    dsp.run_blocks(block, cfg.n_subcarriers, width=cfg.m_payload)
    cfr[np.ix_(tables.k_pil, tables.m_pil)] = hp
    return CfrEstimate(cfr=cfr)


_CIR_PAD = 8  # zero-padding factor of the tap tracker's CIR


def _tap_delays(hp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pilot-symbol delay (in samples) and magnitude of the main tap,
    from the zero-padded CIR with parabolic sub-bin refinement. The CIR
    magnitude is computed in blocks of pilot symbols, so the complex CIR
    never exists whole."""
    # reorder rows to physical frequency before zero padding so fractional
    # delays keep a single clean peak (padding must extend the band, not
    # split it at Nyquist)
    hs = np.fft.fftshift(hp, axes=0)
    size = hp.shape[0] * _CIR_PAD
    mag = np.empty((size, hp.shape[1]))

    def block(start: int, stop: int) -> None:
        # transform contiguous rows of the transposed block: NumPy's FFT along
        # strided columns is slower
        cir = np.fft.ifft(np.ascontiguousarray(hs[:, start:stop].T), n=size, axis=1)
        np.abs(cir.T, out=mag[:, start:stop])

    dsp.run_blocks(block, hp.shape[1], width=size)
    tap = _main_tap(np.mean(mag, axis=1))
    peaks = np.argmax(mag, axis=0)
    # keep per-symbol peaks near the common dominant tap (cyclic distance)
    dist = np.minimum((peaks - tap) % size, (tap - peaks) % size)
    peaks = np.where(dist <= _CIR_PAD, peaks, tap)
    idx = np.arange(hp.shape[1])
    b = mag[peaks, idx]
    pos = peaks + dsp.parabolic_vertex(mag[(peaks - 1) % size, idx], b,
                                       mag[(peaks + 1) % size, idx])
    pos = np.where(pos > size / 2, pos - size, pos)  # signed (early/late)
    delay_samples = pos / _CIR_PAD
    return delay_samples, b


def _drift_slope(grid: np.ndarray, cfg: FrameConfig) -> tuple[float, bool]:
    """Weighted linear fit of the main-tap delay across pilot symbols: the
    slope in samples per payload symbol, and whether the fit's RMS residual
    exceeds half a sample."""
    hp = pilot_cfr(grid, cfg)
    delays, mags = _tap_delays(hp)
    m_pil = frame_tables(cfg).m_pil.astype(float)
    w = mags ** 2
    wsum = w.sum()
    mc = m_pil - (w * m_pil).sum() / wsum
    dc = delays - (w * delays).sum() / wsum
    den = (w * mc * mc).sum()
    slope = (w * mc * dc).sum() / den if den > 0 else 0.0
    resid = dc - slope * mc
    rms_resid = np.sqrt((w * resid ** 2).sum() / wsum)
    return slope, bool(rms_resid > 0.5)


def compensate_residual_sfo(grid: np.ndarray, cfr_est: CfrEstimate,
                            cfg: FrameConfig) -> tuple[np.ndarray, CfrEstimate]:
    """Track the linear drift of the main-tap delay across pilot symbols and
    align all payload symbols via per-subcarrier phase ramps.

    The corrected grid and CFR are new arrays, and the inputs are left as
    they were: this ramps copies of them in place (`_compensate_residual_sfo`)."""
    est = CfrEstimate(cfr=np.array(cfr_est.cfr, dtype=np.complex128, order="C"),
                      delay_slope=cfr_est.delay_slope,
                      slope_fit_warning=cfr_est.slope_fit_warning)
    return _compensate_residual_sfo(np.array(grid, dtype=np.complex128, order="C"), est, cfg)


def _compensate_residual_sfo(grid: np.ndarray, cfr_est: CfrEstimate,
                             cfg: FrameConfig) -> tuple[np.ndarray, CfrEstimate]:
    """`compensate_residual_sfo` in place on the complex128 ``grid`` and
    ``cfr_est.cfr``; returns the grid and an estimate holding that CFR.

    The ramp is built per block of payload symbols and applied to the grid
    and the CFR in that block, so it never exists whole."""
    slope, warning = _drift_slope(grid, cfg)
    k_signed = np.fft.fftfreq(cfg.n_subcarriers, d=1.0 / cfg.n_subcarriers)
    m = np.arange(cfg.m_payload)
    cfr = cfr_est.cfr

    def block(start: int, stop: int) -> None:
        # the ramp of payload symbols start:stop; the grid and the CFR come
        # first in each product, because operand order changes complex bits
        ramp = np.exp(2j * np.pi * np.outer(k_signed, slope * m[start:stop])
                      / cfg.n_subcarriers)
        grid[:, start:stop] *= ramp
        cfr[:, start:stop] *= ramp

    dsp.run_blocks(block, cfg.m_payload, width=cfg.n_subcarriers)
    est = CfrEstimate(cfr=cfr, delay_slope=float(slope / cfg.bandwidth_hz),
                      slope_fit_warning=warning)
    return grid, est


def cir_evolution(grid: np.ndarray, cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """(per-pilot-symbol main-tap delay in samples, magnitude in dB rel max)."""
    hp = pilot_cfr(grid, cfg)
    delays, mags = _tap_delays(hp)
    # floored 600 dB below the peak, which is above 0: `_main_tap` raises on a zero profile
    mag_db = 20.0 * np.log10(np.maximum(mags / mags.max(), 1e-30))
    return delays, mag_db


_ERASE_BELOW = 1e-6  # erasure floor, relative to the CFR's median magnitude at the pilots


def equalize(grid: np.ndarray, cfr: np.ndarray,
             cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-forcing equalization at data positions.

    Returns (equalized data symbols in column-major frame order, per-symbol
    effective noise variances for LLR scaling, erasure flags). Blocks of
    payload symbols are equalized at a time; the data cells of a block are
    one contiguous range of that order.

    A cell is erased (symbol 0, infinite noise variance) where the CFR
    magnitude is at most ``_ERASE_BELOW`` times its median over the pilot
    comb, so the gate does not depend on the absolute level; a zero cell is
    always erased.
    """
    tables = frame_tables(cfg)
    mask = tables.data_mask
    floor = _ERASE_BELOW * _median(np.abs(cfr[np.ix_(tables.k_pil, tables.m_pil)]))
    first = np.concatenate([[0], np.cumsum(mask.sum(axis=0))])  # first cell of each column
    noise_var = _noise_variance_per_subcarrier(grid, cfg)
    s_hat = np.empty(first[-1], dtype=np.complex128)
    nv = np.empty(first[-1])
    erased = np.empty(first[-1], dtype=bool)

    def block(start: int, stop: int) -> None:
        cells = mask[:, start:stop].T
        lo, hi = first[start], first[stop]
        h = cfr[:, start:stop].T[cells]
        mag = np.abs(h)
        lost = np.less_equal(mag, floor, out=erased[lo:hi])
        s = np.divide(grid[:, start:stop].T[cells], np.where(lost, 1.0, h), out=s_hat[lo:hi])
        s[lost] = 0.0
        nv_cells = np.broadcast_to(noise_var, (stop - start, noise_var.size))[cells]
        v = np.divide(nv_cells, mag ** 2, out=nv[lo:hi], where=~lost)
        v[lost] = np.inf  # an erased cell carries no information

    dsp.run_blocks(block, mask.shape[1], width=mask.shape[0])
    return s_hat, nv, erased


def _noise_variance_per_subcarrier(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Noise variance proxy from pilot-to-pilot channel estimate differences,
    interpolated over all subcarriers; floored at 1e-12 times the median
    pilot channel power, so the floor follows the capture's level."""
    hp = pilot_cfr(grid, cfg)
    d = np.diff(hp, axis=1)
    var_rows = 0.5 * np.mean(np.abs(d) ** 2, axis=1)
    var = np.interp(np.arange(cfg.n_subcarriers), frame_tables(cfg).k_pil, var_rows)
    return np.maximum(var, 1e-12 * _median(np.abs(hp) ** 2))


def qpsk_llrs(symbols: np.ndarray, noise_vars: np.ndarray) -> np.ndarray:
    """Max-log LLRs for Gray QPSK (positive favors bit 0); interleaved
    (b1, b0) per symbol, matching the mapper's bit order. Blocks of symbols
    write their LLRs straight into the output."""
    s = np.asarray(symbols).ravel()
    llrs = np.empty(2 * s.size)

    def block(start: int, stop: int, re: np.ndarray, im: np.ndarray) -> None:
        llrs[2 * start:2 * stop:2] = re
        llrs[2 * start + 1:2 * stop:2] = im

    _llr_blocks(s, noise_vars, s.size, block)
    return llrs


def _llr_blocks(s: np.ndarray, noise_vars: np.ndarray, n: int, block) -> None:
    """Call ``block(start, stop, re, im)`` on `dsp.run_blocks` blocks of the
    first ``n`` symbols of ``s``, with the float64 LLRs of their two bits."""
    nv = np.broadcast_to(np.asarray(noise_vars).ravel(), s.shape)

    def llrs(start: int, stop: int) -> None:
        scale = 2.0 * np.sqrt(2.0) / np.maximum(nv[start:stop], 1e-12)
        block(start, stop, scale * s.real[start:stop], scale * s.imag[start:stop])

    dsp.run_blocks(llrs, n)


def demap_decode(symbols: np.ndarray, noise_vars: np.ndarray, cfg: FrameConfig,
                 codeword_count: int, info_len: int,
                 tx_info_bits: np.ndarray | None = None,
                 tx_coded_bits: np.ndarray | None = None) -> tuple[np.ndarray, CommMetrics]:
    """Soft demapping and LDPC decoding; padding stripped from the output.

    When the transmitted bits are provided, pre/post-FEC BERs are measured
    against them.

    The decoder's float32 LLRs of the codewords are written block by block,
    as `qpsk_llrs` makes them, cast and clipped as `LdpcCode.decode` would,
    so no float64 LLR array exists. Each block counts its pre-FEC bit errors
    from the float64 values: a value too small for float32 casts to -0,
    which is not below 0."""
    code = default_code()
    s = np.asarray(symbols).ravel()
    n_coded = codeword_count * code.n
    if 2 * s.size < n_coded:
        raise ValueError("fewer symbols than required for the declared codewords")
    ref = None
    if tx_coded_bits is not None:
        ref = np.asarray(tx_coded_bits, dtype=np.uint8).ravel()[:n_coded]
        if ref.size != n_coded:
            raise ValueError(f"{ref.size} transmitted coded bits for {n_coded} LLRs")
    llrs = np.empty(n_coded, dtype=np.float32)
    errors = []  # each block appends its count; integer sums need no order

    def block(start: int, stop: int, re: np.ndarray, im: np.ndarray) -> None:
        for bits, values in ((slice(2 * start, 2 * stop, 2), re),
                             (slice(2 * start + 1, 2 * stop, 2), im)):
            out = llrs[bits]
            out[...] = values
            np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)
            if ref is not None:
                errors.append(np.count_nonzero((values < 0) != ref[bits]))

    _llr_blocks(s, noise_vars, n_coded // 2, block)
    bits, ok = code.decode(llrs.reshape(codeword_count, code.n))
    info = bits[:, :code.k].reshape(-1)[:info_len]

    metrics = CommMetrics(frames_decoded=1, decoder_converged=bool(ok.all()))
    if ref is not None:
        metrics.pre_fec_ber = sum(errors) / n_coded
    if tx_info_bits is not None:
        ref = np.asarray(tx_info_bits, dtype=np.uint8).ravel()[:info_len]
        metrics.post_fec_ber = float(np.mean(info != ref))
    return info, metrics


def evm_rms_percent(symbols: np.ndarray, coded_bits: np.ndarray | None = None) -> float:
    """RMS error vector magnitude against a reference: the symbols that
    ``coded_bits`` map to (zero bits past their end, as `map_payload` fills
    the frame), or else the nearest constellation point.

    ``|s - ref|^2`` and ``|ref|^2`` are each summed by `dsp.pairwise_sum`,
    which makes one block of them at a time, reference included, so the
    value has the bits of ``np.mean`` of the whole arrays while neither
    array nor the whole reference exists."""
    s = np.asarray(symbols).ravel()
    if not s.size:
        return float("nan")

    def reference(start: int, stop: int) -> np.ndarray:
        if coded_bits is not None:
            return map_coded_bits(coded_bits, start, stop)
        x = s[start:stop]
        return (np.sign(x.real) + 1j * np.sign(x.imag)) / np.sqrt(2.0)

    def err(start: int, stop: int) -> np.ndarray:
        e = np.abs(s[start:stop] - reference(start, stop))
        return np.square(e, out=e)

    def power(start: int, stop: int) -> np.ndarray:
        p = np.abs(reference(start, stop))
        return np.square(p, out=p)

    mean_err = dsp.pairwise_sum(err, s.size) / s.size
    mean_power = dsp.pairwise_sum(power, s.size) / s.size
    return float(100.0 * np.sqrt(mean_err / max(mean_power, 1e-30)))


def constellation_density(symbols: np.ndarray, bins: int = 201,
                          extent: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """2-D histogram of the equalized constellation over [-extent, extent]^2,
    log-normalized to its peak. Returns (density, bin edges)."""
    s = np.asarray(symbols).ravel()
    edges = np.linspace(-extent, extent, bins + 1)
    # the same bins as np.histogram2d(s.real, s.imag, [edges, edges]); the
    # cells outside the range share one overflow bin that is dropped
    # each block adds its counts to one total; integer sums need no order
    total = np.zeros(bins * bins + 1, dtype=np.intp)
    lock = threading.Lock()

    def block(start: int, stop: int) -> None:
        re, re_in = _bin_index(s.real[start:stop], edges)
        im, im_in = _bin_index(s.imag[start:stop], edges)
        flat = re * bins + im
        flat[~(re_in & im_in)] = bins * bins
        counts = np.bincount(flat, minlength=bins * bins + 1)
        with lock:
            np.add(total, counts, out=total)

    dsp.run_blocks(block, s.size)
    hist = total[:-1].reshape(bins, bins).astype(np.float64)
    peak = max(hist.max(), 1.0)
    return hist / peak, edges


def _bin_index(x: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin of each value, as np.histogram counts it: ``edges[k] <= x <
    edges[k + 1]``, with the last bin closed on the right. Also returns
    which values fall inside ``[edges[0], edges[-1]]``."""
    bins = edges.size - 1
    inside = (x >= edges[0]) & (x <= edges[-1])
    x = np.where(inside, x, edges[0])
    k = ((x - edges[0]) * (bins / (edges[-1] - edges[0]))).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    # the scaled value can round across an edge; step back or forward once
    k -= x < edges[k]
    k += (x >= edges[k + 1]) & (k < bins - 1)
    return k, inside
