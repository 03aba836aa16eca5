"""Range-Doppler imaging from the estimated channel and peak extraction.

Sensing input is either the pilot-position CFR submatrix or, when the
payload was decoded, a data-aided full CFR: the received payload grid
divided by the transmit payload grid that the TX code builds from the
decoded info bits. Range axis is relative bistatic range with zero at the
synchronization-locked main path.

`extract_peaks` and `detect` find their local maxima with one search over
blocks of range rows (`_local_maxima`), on dB rows taken from the map or
recomputed from the range profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsp
from .params import SPEED_OF_LIGHT, FrameConfig, SensingMode
from .txframe import map_payload, payload_grid, pilot_cfr

# Largest range-Doppler map a scenario may ask for, checked by
# `load_scenario` before anything is allocated (`map_cells`). Detections of
# a map of c cells at zero padding z hold the complex range profile
# (16 / z B per cell) and a few blocks of rows: 268 MB at the budget and
# z = 4, 1.07 GB at z = 1. Only a written map (`sensing.write_map_csv`) also
# holds the float64 map (8 B per cell): 805 MB at the budget and z = 4,
# 1.61 GB at z = 1.
MAX_MAP_CELLS = 1 << 26

# dB by which a block's largest cell must fall short of the detection
# threshold for `detect` to skip the block: far above the few-ulp rounding of
# the dB conversion (about 1e-12 dB at the lowest level a map can hold), so a
# skipped block holds no cell at or above the threshold
_DB_SLACK = 1e-6


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


def _range_profile(cfr: np.ndarray, window_kind: str, zero_pad: int) -> np.ndarray:
    """Windowed range IDFT of each CFR column, zero-padded ``zero_pad``-fold.

    The window and the IDFT run on blocks of CFR columns, so the windowed
    CFR never exists whole."""
    dsp.require_finite(cfr, "sensing CFR")
    nf, nt = cfr.shape
    if window_kind == "hamming":
        wf, wt = np.hamming(nf), np.hamming(nt)
    elif window_kind == "rect":
        wf, wt = np.ones(nf), np.ones(nt)
    else:
        raise ValueError(f"unknown window kind: {window_kind}")
    nr = nf * zero_pad
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

    dsp.run_blocks(range_idft, nt, width=nr)
    return prof


def _doppler_magnitude(rows: np.ndarray, nd: int, out: np.ndarray) -> None:
    """Magnitude of the ``nd``-point Doppler DFT of the range ``rows``,
    center-shifted, into ``out``."""
    rd = np.fft.fft(rows, n=nd, axis=1)
    # the Doppler fftshift moves column j to (j + nd // 2) % nd
    half = nd // 2
    np.abs(rd[:, :nd - half], out=out[:, half:])
    np.abs(rd[:, nd - half:], out=out[:, :half])


def _to_db(b: np.ndarray, peak: float) -> None:
    """20 * log10(max(b, 1e-300) / peak), in place."""
    np.maximum(b, 1e-300, out=b)
    b /= peak
    np.log10(b, out=b)
    b *= 20.0


def _axes(cfg: FrameConfig, mode: SensingMode, nf: int, nt: int,
          zero_pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Range axis (m) and center-shifted Doppler axis (Hz) of the map of an
    nf x nt sensing CFR."""
    dm = cfg.effective_spacings(mode)[1]
    range_step = SPEED_OF_LIGHT / (cfg.bandwidth_hz * zero_pad)
    range_axis = np.arange(nf * zero_pad) * range_step
    t_sym = dm * cfg.symbol_len / cfg.bandwidth_hz
    doppler_step = 1.0 / (t_sym * nt * zero_pad)
    doppler_axis = (np.arange(nt * zero_pad) - nt * zero_pad // 2) * doppler_step
    return range_axis, doppler_axis


def range_doppler(cfr: np.ndarray, cfg: FrameConfig, mode: SensingMode,
                  window_kind: str = "hamming", zero_pad: int = 4) -> RangeDopplerMap:
    """Windowed 2-D periodogram: IDFT over frequency (delay/range), DFT over
    time (Doppler, center-shifted), magnitude normalized to its peak.

    The Doppler DFT, its magnitude and the dB conversion run on blocks of
    range rows that write straight into one float64 map, so the complex map
    never exists whole. Detections need no map: see `detect`."""
    prof = _range_profile(cfr, window_kind, zero_pad)
    nr, nd = prof.shape[0], prof.shape[1] * zero_pad
    mag_db = np.empty((nr, nd))
    peak = max(max(_block_maxima(prof, nd, mag_db).values()), 1e-300)
    del prof
    dsp.run_blocks(lambda start, stop: _to_db(mag_db[start:stop], peak), nr, width=nd)
    range_axis, doppler_axis = _axes(cfg, mode, *cfr.shape, zero_pad)
    return RangeDopplerMap(magnitude_db=mag_db, range_axis_m=range_axis,
                           doppler_axis_hz=doppler_axis, mode=mode)


def _block_maxima(prof: np.ndarray, nd: int,
                  out: np.ndarray | None = None) -> dict[int, float]:
    """Largest Doppler magnitude of each block of range rows of the range
    profile ``prof``, keyed by the block's first row. The magnitudes are
    written into the same rows of ``out`` when it is given."""
    maxima = {}

    def block(start: int, stop: int) -> None:
        mag = np.empty((stop - start, nd)) if out is None else out[start:stop]
        _doppler_magnitude(prof[start:stop], nd, mag)
        maxima[start] = mag.max()

    dsp.run_blocks(block, prof.shape[0], width=nd)
    return maxima


def _max3_wrapped(rows: np.ndarray) -> np.ndarray:
    """Largest value of the 3x3 neighborhood of each cell of ``rows[1:-1]``,
    wrapping around the columns; the first and last of ``rows`` are the
    halo rows above and below."""
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


def _local_maxima(db_rows: Callable[[int, int], np.ndarray], nr: int, nd: int,
                  threshold_db: float, live: set[int] | None = None) -> tuple[np.ndarray, ...]:
    """The cells of an ``nr`` x ``nd`` dB map that are 3x3 local maxima at
    or above ``threshold_db``, both axes wrapped, in row-major order.

    Runs on blocks of range rows; ``db_rows(start, stop)`` gives the dB rows
    ``start - 1`` to ``stop`` of the map, wrapped: the block and a halo row
    on either side. Only the blocks whose first row is in ``live`` are
    searched, all of them when it is None. Returns the rows and columns of
    the maxima and the dB values of each and its two wrapped neighbours,
    along range and along Doppler, as two (3, count) arrays."""
    found = {}
    off = np.arange(3)[:, None]

    def block(start: int, stop: int) -> None:
        if live is not None and start not in live:
            return
        b = db_rows(start, stop)
        # a cell equal to the largest of its 3x3 neighborhood ties or beats
        # every neighbor
        mb = b[1:-1]
        is_peak = mb == _max3_wrapped(b)
        is_peak &= mb >= threshold_db
        i, j = np.nonzero(is_peak)
        # row k of b is range row start - 1 + k
        found[start] = (i + start, j, b[i + off, j], b[i + 1, (j + off - 1) % nd])

    dsp.run_blocks(block, nr, width=nd)
    # blocks in row order, so the maxima are in the map's row-major order
    return tuple(np.concatenate(parts, axis=-1)
                 for parts in zip(*(found[s] for s in sorted(found))))


def _check_threshold(threshold_db: float) -> None:
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to the map peak)")


def _detections(ri: np.ndarray, di: np.ndarray, near_r: np.ndarray, near_d: np.ndarray,
                range_axis: np.ndarray, doppler_axis: np.ndarray,
                max_peaks: int) -> list[Detection]:
    """The ``max_peaks`` strongest of the local maxima that `_local_maxima`
    returns, refined to sub-bin positions."""
    values = near_r[1]
    sel = np.argsort(values)[::-1][:max_peaks]
    # vertex of the linear magnitude at each detection and its neighbours
    frac_r = dsp.parabolic_vertex(*10.0 ** (near_r[:, sel] / 20.0))
    frac_d = dsp.parabolic_vertex(*10.0 ** (near_d[:, sel] / 20.0))

    dets = []
    dr = range_axis[1] - range_axis[0]
    dd = doppler_axis[1] - doppler_axis[0]
    span = range_axis.size * dr  # unambiguous range of this mode
    for i, j, fi, fj, v in zip(ri[sel].tolist(), di[sel].tolist(), frac_r, frac_d,
                               values[sel].tolist()):
        rng = float(range_axis[i] + fi * dr)
        # delays wrapping past half the unambiguous span are reported as
        # negative relative ranges (target path shorter than the main path)
        if rng > span / 2:
            rng -= span
        dets.append(Detection(rel_bistatic_range_m=rng,
                              doppler_shift_hz=float(doppler_axis[j] + fj * dd),
                              magnitude_db=v))
    return dets


def extract_peaks(rd_map: RangeDopplerMap, threshold_db: float,
                  max_peaks: int = 16) -> list[Detection]:
    """Local maxima (3x3 neighborhood) above a peak-relative threshold,
    parabolic sub-bin refinement in both axes, sorted by magnitude."""
    _check_threshold(threshold_db)
    m = rd_map.magnitude_db
    maxima = _local_maxima(
        lambda start, stop: m.take(np.arange(start - 1, stop + 1), axis=0, mode="wrap"),
        *m.shape, threshold_db)
    return _detections(*maxima, rd_map.range_axis_m, rd_map.doppler_axis_hz, max_peaks)


def detect(cfr: np.ndarray, cfg: FrameConfig, mode: SensingMode, window_kind: str,
           zero_pad: int, threshold_db: float, max_peaks: int = 16) -> list[Detection]:
    """``extract_peaks(range_doppler(cfr, ...), threshold_db, max_peaks)``,
    bit for bit, without the map.

    Only the range profile and per-block temporaries are live. Two sweeps
    over blocks of range rows redo the Doppler DFT. The first keeps each
    block's largest magnitude; their maximum sets the map's 0 dB. The second
    skips each block whose largest cell is below the threshold by more than
    ``_DB_SLACK``. For every other block it converts the block and one
    wrapped halo row on either side of it to dB and searches them for local
    maxima."""
    _check_threshold(threshold_db)
    prof = _range_profile(cfr, window_kind, zero_pad)
    nr, nd = prof.shape[0], prof.shape[1] * zero_pad
    block_peaks = _block_maxima(prof, nd)
    starts = sorted(block_peaks)
    top_db = np.array([block_peaks[s] for s in starts])
    peak = max(top_db.max(), 1e-300)
    _to_db(top_db, peak)
    live = {s for s, v in zip(starts, top_db) if v >= threshold_db - _DB_SLACK}

    def db_rows(start: int, stop: int) -> np.ndarray:
        b = np.empty((stop - start + 2, nd))
        _doppler_magnitude(prof.take(np.arange(start - 1, stop + 1), axis=0, mode="wrap"),
                           nd, b)
        _to_db(b, peak)
        return b

    maxima = _local_maxima(db_rows, nr, nd, threshold_db, live)
    del prof
    range_axis, doppler_axis = _axes(cfg, mode, *cfr.shape, zero_pad)
    return _detections(*maxima, range_axis, doppler_axis, max_peaks)
