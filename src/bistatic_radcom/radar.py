"""Range-Doppler imaging from the estimated channel and peak extraction.

Sensing input is either the pilot-position CFR submatrix or, when the
payload was decoded, a data-aided full CFR: the received payload grid
divided by the transmit payload grid that the TX code builds from the
decoded info bits. Range axis is relative bistatic range with zero at the
synchronization-locked main path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .params import SPEED_OF_LIGHT, FrameConfig, SensingMode
from .txframe import map_payload, payload_grid, pilot_cfr

# Range rows per block of the map's Doppler pass, its dB conversion and the
# peak test, and CFR columns per block of its range pass; fixed, so the block
# edges never depend on the CPU count.
_MAP_ROWS = 64
_RANGE_COLUMNS = 32

# Largest range-Doppler map a scenario may ask for, checked by
# `load_scenario` before anything is allocated (`map_cells`). A map of c
# cells at zero padding z holds its float64 map (8 B per cell), the complex
# range profile (16 / z B per cell) and the peak test's bool mask (1 B per
# cell): 872 MB at the budget and z = 4, 1.68 GB at z = 1.
MAX_MAP_CELLS = 1 << 26


@dataclass
class RangeDopplerMap:
    magnitude_db: np.ndarray   # range bins x Doppler bins, 0 dB at peak
    range_axis_m: np.ndarray
    doppler_axis_hz: np.ndarray
    mode: SensingMode


@dataclass
class Detection:
    rel_bistatic_range_m: float
    doppler_shift_hz: float
    magnitude_db: float


def cfr_for_sensing(grid: np.ndarray, cfg: FrameConfig, mode: SensingMode,
                    decoded_info_bits: np.ndarray | None = None) -> np.ndarray:
    """Sensing CFR matrix: pilot submatrix, or full-grid Y/X with the TX
    payload grid rebuilt from the decoded info bits."""
    if mode is SensingMode.PILOT_ONLY:
        return pilot_cfr(grid, cfg)
    if decoded_info_bits is None:
        raise RuntimeError("full-frame sensing requires decoded bits")
    _, symbols = map_payload(decoded_info_bits, cfg)
    return grid / payload_grid(cfg, symbols)


def map_cells(cfg: FrameConfig, mode: SensingMode, zero_pad: int) -> int:
    """Cells of the map `range_doppler` makes for ``mode`` at ``zero_pad``."""
    dn, dm = cfg.effective_spacings(mode)
    return (cfg.n_subcarriers // dn * zero_pad) * (cfg.m_payload // dm * zero_pad)


def range_doppler(cfr: np.ndarray, cfg: FrameConfig, mode: SensingMode,
                  window_kind: str = "hamming", zero_pad: int = 4) -> RangeDopplerMap:
    """Windowed 2-D periodogram: IDFT over frequency (delay/range), DFT over
    time (Doppler, center-shifted), magnitude normalized to its peak.

    The window and the range IDFT run on blocks of ``_RANGE_COLUMNS`` CFR
    columns, so the windowed CFR never exists whole. The Doppler DFT, its
    magnitude and the dB conversion run on blocks of ``_MAP_ROWS`` range
    rows that write straight into one float64 map, so the complex map never
    exists whole."""
    dsp.require_finite(cfr, "sensing CFR")
    nf, nt = cfr.shape
    if window_kind == "hamming":
        wf, wt = np.hamming(nf), np.hamming(nt)
    elif window_kind == "rect":
        wf, wt = np.ones(nf), np.ones(nt)
    else:
        raise ValueError(f"unknown window kind: {window_kind}")
    nr, nd = nf * zero_pad, nt * zero_pad
    prof = np.empty((nr, nt), dtype=np.complex128)

    def range_idft(start: int, stop: int) -> None:
        # frequency rows arrive in DFT index order (DC first, negative
        # frequencies in the upper half); reorder to physical frequency so
        # the window tapers the true band edges and zero padding extends the
        # band instead of splitting it at Nyquist
        z = np.fft.fftshift(cfr[:, start:stop], axes=0) * wf[:, None] * wt[start:stop]
        # transform contiguous rows of the transposed block: NumPy's FFT along
        # strided columns is slower
        prof[:, start:stop] = np.fft.ifft(np.ascontiguousarray(z.T), n=nr, axis=1).T

    dsp.run_blocks(range_idft, nt, _RANGE_COLUMNS)
    half = nd // 2
    mag_db = np.empty((nr, nd))
    block_peaks = []

    def doppler(start: int, stop: int) -> None:
        rd = np.fft.fft(prof[start:stop], n=nd, axis=1)
        # the Doppler fftshift moves column j to (j + nd // 2) % nd
        np.abs(rd[:, :nd - half], out=mag_db[start:stop, half:])
        np.abs(rd[:, nd - half:], out=mag_db[start:stop, :half])
        block_peaks.append(mag_db[start:stop].max())

    dsp.run_blocks(doppler, nr, _MAP_ROWS)
    del prof
    peak = max(max(block_peaks), 1e-300)

    def to_db(start: int, stop: int) -> None:
        # 20 * log10(max(mag, 1e-300) / peak), in place
        b = mag_db[start:stop]
        np.maximum(b, 1e-300, out=b)
        b /= peak
        np.log10(b, out=b)
        b *= 20.0

    dsp.run_blocks(to_db, nr, _MAP_ROWS)

    dn, dm = cfg.effective_spacings(mode)
    range_step = SPEED_OF_LIGHT / (cfg.bandwidth_hz * zero_pad)
    range_axis = np.arange(nf * zero_pad) * range_step
    t_sym = dm * cfg.symbol_len / cfg.bandwidth_hz
    doppler_step = 1.0 / (t_sym * nt * zero_pad)
    doppler_axis = (np.arange(nt * zero_pad) - nt * zero_pad // 2) * doppler_step
    return RangeDopplerMap(magnitude_db=mag_db, range_axis_m=range_axis,
                           doppler_axis_hz=doppler_axis, mode=mode)


def _max3_wrapped(m: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Largest value of the 3x3 neighborhood of each cell in rows
    ``start:stop`` of ``m``, wrapping around both axes. Reads only those rows
    and the one row on either side of them."""
    rows = m.take(np.arange(start - 1, stop + 1), axis=0, mode="wrap")
    # neighbor maximum along the Doppler axis, over shifted slices
    cols = rows.copy()
    np.maximum(cols[:, 1:], rows[:, :-1], out=cols[:, 1:])
    np.maximum(cols[:, 0], rows[:, -1], out=cols[:, 0])
    np.maximum(cols[:, :-1], rows[:, 1:], out=cols[:, :-1])
    np.maximum(cols[:, -1], rows[:, 0], out=cols[:, -1])
    # then along the range axis: output row i takes rows i, i + 1, i + 2
    out = np.maximum(cols[:-2], cols[1:-1])
    np.maximum(out, cols[2:], out=out)
    return out


def extract_peaks(rd_map: RangeDopplerMap, threshold_db: float,
                  max_peaks: int = 16) -> list[Detection]:
    """Local maxima (3x3 neighborhood) above a peak-relative threshold,
    parabolic sub-bin refinement in both axes, sorted by magnitude."""
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to the map peak)")
    m = rd_map.magnitude_db
    is_peak = np.empty(m.shape, dtype=bool)

    def peak_test(start: int, stop: int) -> None:
        # both axes are DFT axes, so the local-maximum test wraps around; a
        # cell equal to the largest of its 3x3 neighborhood ties or beats
        # every neighbor
        mb = m[start:stop]
        np.equal(mb, _max3_wrapped(m, start, stop), out=is_peak[start:stop])
        is_peak[start:stop] &= mb >= threshold_db

    dsp.run_blocks(peak_test, m.shape[0], _MAP_ROWS)
    ri, di = np.nonzero(is_peak)
    order = np.argsort(m[ri, di])[::-1][:max_peaks]
    ri, di = ri[order], di[order]
    # vertex of the linear magnitude at each detection and its two wrapped
    # neighbours, along range and along Doppler
    off = np.arange(-1, 2)[:, None]
    frac_r = dsp.parabolic_vertex(*10.0 ** (m[(ri + off) % m.shape[0], di] / 20.0))
    frac_d = dsp.parabolic_vertex(*10.0 ** (m[ri, (di + off) % m.shape[1]] / 20.0))

    dets = []
    dr = rd_map.range_axis_m[1] - rd_map.range_axis_m[0]
    dd = rd_map.doppler_axis_hz[1] - rd_map.doppler_axis_hz[0]
    span = rd_map.range_axis_m.size * dr  # unambiguous range of this mode
    for i, j, fi, fj in zip(ri.tolist(), di.tolist(), frac_r, frac_d):
        rng = float(rd_map.range_axis_m[i] + fi * dr)
        # delays wrapping past half the unambiguous span are reported as
        # negative relative ranges (target path shorter than the main path)
        if rng > span / 2:
            rng -= span
        dets.append(Detection(
            rel_bistatic_range_m=rng,
            doppler_shift_hz=float(rd_map.doppler_axis_hz[j] + fj * dd),
            magnitude_db=float(m[i, j]),
        ))
    return dets
