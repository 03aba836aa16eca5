"""Range-Doppler imaging from the estimated channel and peak extraction.

Sensing input is either the pilot-position CFR submatrix or, when the
payload was decoded, a data-aided full CFR: the received payload grid
divided by the payload cells that the TX writer (`payload_columns`) maps from
the decoder's own codewords. Range axis is relative bistatic range with zero
at the synchronization-locked main path.

Neither the complex map nor the whole range profile is ever held. The
profile is made in slabs of whole blocks of range rows (`_slabs`), each of
at most the payload grid's N x M_pl cells plus a wrapped halo row on either
side: a full frame at zero padding z takes z slabs, a pilot-only profile
one up to z = dN * dM. `range_doppler` writes each slab's Doppler
magnitudes into its float64 map. `detect` transforms only the blocks whose
L1 row bound can reach the threshold and keeps the profile rows of those
that may. `extract_peaks` and `detect` find their local maxima with one
search over blocks of range rows (`_local_maxima`), on dB rows taken from
the map or recomputed from the kept rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsp
from .params import SPEED_OF_LIGHT, FrameConfig, SensingMode
from .txframe import payload_columns, pilot_cfr

# Largest range-Doppler map a scenario may ask for, checked by
# `load_scenario` before anything is allocated (`map_cells`). The complex
# range profile of a map of c cells at zero padding z takes 16 / z B per
# cell, made one slab of at most N x M_pl cells at a time: a full-frame slab
# is 16 / z^2 B per cell, a pilot-only one (z <= dN * dM) the whole profile.
# Detections hold a slab and the rows of the blocks that may reach the
# threshold, the whole profile when every block does, as on noise: 268 MB
# at the budget and z = 4, 1.07 GB at z = 1. Only a written map
# (`sensing.write_map_csv`) also holds the float64 map (8 B per cell) next
# to one slab: 805 MB at the budget and z = 4 (604 MB full-frame), 1.61 GB
# at z = 1.
MAX_MAP_CELLS = 1 << 26

# dB by which a block's largest cell must fall short of the detection
# threshold for `detect` to skip the block: far above the few-ulp rounding of
# the dB conversion (about 1e-12 dB at the lowest level a map can hold), so a
# skipped block holds no cell at or above the threshold
_DB_SLACK = 1e-6

# Factor by which `detect` scales an L1 row bound or a block's largest
# magnitude before it compares them with the threshold: a computed Doppler
# magnitude may exceed the computed L1 norm of its row by a few ulps, and
# the dB conversion rounds, both far below 1e-9
_MARGIN = 1.0 + 1e-9


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
                    coded_bits: np.ndarray | None = None) -> np.ndarray:
    """Sensing CFR matrix: pilot submatrix, or full-grid Y/X against the
    payload cells of ``coded_bits``, the decoder's hard codewords.

    Y/X runs on blocks of payload symbols, each divided by the columns that
    the TX writer (`payload_columns`) makes of those bits, so neither the
    reference symbols nor the reference grid exist whole."""
    if mode is SensingMode.PILOT_ONLY:
        return pilot_cfr(grid, cfg)
    if coded_bits is None:
        raise RuntimeError("full-frame sensing requires decoded bits")
    out = np.empty(grid.shape, dtype=np.complex128)

    def block(start: int, stop: int) -> None:
        np.divide(grid[:, start:stop], payload_columns(cfg, coded_bits, start, stop),
                  out=out[:, start:stop])

    dsp.run_blocks(block, cfg.m_payload, width=cfg.n_subcarriers)
    return out


def map_cells(cfg: FrameConfig, mode: SensingMode, zero_pad: int) -> int:
    """Cells of the map `range_doppler` makes for ``mode`` at ``zero_pad``."""
    dn, dm = cfg.effective_spacings(mode)
    return (cfg.n_subcarriers // dn * zero_pad) * (cfg.m_payload // dm * zero_pad)


def _windows(cfr: np.ndarray, window_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and time windows of the sensing CFR ``cfr``."""
    dsp.require_finite(cfr, "sensing CFR")
    nf, nt = cfr.shape
    if window_kind == "hamming":
        return np.hamming(nf), np.hamming(nt)
    if window_kind == "rect":
        return np.ones(nf), np.ones(nt)
    raise ValueError(f"unknown window kind: {window_kind}")


def _slabs(cfg: FrameConfig, nr: int, nt: int, nd: int) -> list[tuple[int, int]]:
    """First and last-plus-one range rows of each slab of an ``nr`` x ``nt``
    range profile whose Doppler DFT has ``nd`` points: as many whole blocks
    of range rows (`dsp.run_blocks` of width ``nd``) as hold at most the
    payload grid's N x M_pl cells, at least one block."""
    block = dsp.block_items(nd)
    rows = max(cfg.n_subcarriers * cfg.m_payload // (nt * block), 1) * block
    return [(r0, min(r0 + rows, nr)) for r0 in range(0, nr, rows)]


def _range_slab(cfr: np.ndarray, windows: tuple[np.ndarray, np.ndarray], nr: int,
                r0: int, r1: int, buf: np.ndarray | None,
                l1: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Rows ``r0 - 1`` to ``r1`` of the range profile, wrapped: the slab
    ``r0:r1`` and a halo row on either side. The profile is the windowed
    range IDFT of each CFR column, zero-padded to ``nr`` points.

    The rows are written into the first rows of ``buf`` when it is given.
    The window and the IDFT run on blocks of CFR columns, so the windowed
    CFR never exists whole. With ``l1``, each block also stores there, under
    its first column, the L1 norm of each slab row over its columns."""
    wf, wt = windows
    nt = cfr.shape[1]
    out = np.empty((r1 - r0 + 2, nt), dtype=np.complex128) if buf is None else buf[:r1 - r0 + 2]

    def range_idft(start: int, stop: int) -> None:
        # frequency rows arrive in DFT index order (DC first, negative
        # frequencies in the upper half); reorder to physical frequency so
        # the window tapers the true band edges and zero padding extends the
        # band instead of splitting it at Nyquist
        z = np.fft.fftshift(cfr[:, start:stop], axes=0) * wf[:, None] * wt[start:stop]
        # transform contiguous rows of the transposed block: NumPy's FFT along
        # strided columns is slower
        p = np.fft.ifft(np.ascontiguousarray(z.T), n=nr, axis=1)
        out[1:-1, start:stop] = p[:, r0:r1].T
        # the halo rows; r0 - 1 = -1 is the last row
        out[0, start:stop] = p[:, r0 - 1]
        out[-1, start:stop] = p[:, r1 % nr]
        if l1 is not None:
            l1[start] = np.abs(p[:, r0:r1]).sum(axis=0)

    # a column writes r1 - r0 + 2 elements of the slab
    dsp.run_blocks(range_idft, nt, width=r1 - r0 + 2)
    return out


def _slab_blocks(block: Callable[[int, int], None], r0: int, r1: int, nd: int) -> None:
    """``block(start, stop)`` on the blocks of range rows of the slab
    ``r0:r1``, with the rows numbered as in the whole profile."""
    dsp.run_blocks(lambda start, stop: block(r0 + start, r0 + stop), r1 - r0, width=nd)


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

    The range profile is made one slab at a time (`_slabs`, one buffer for
    all of them). The Doppler DFT and its magnitude run on the slab's blocks
    of range rows, each written straight into its rows of one float64 map,
    and the dB conversion then runs on blocks of the map; so neither the
    complex map nor the whole profile ever exists. Detections need no map:
    see `detect`."""
    windows = _windows(cfr, window_kind)
    nf, nt = cfr.shape
    nr, nd = nf * zero_pad, nt * zero_pad
    mag_db = np.empty((nr, nd))
    tops = []
    slab = None
    for r0, r1 in _slabs(cfg, nr, nt, nd):
        slab = _range_slab(cfr, windows, nr, r0, r1, slab)

        def block(start: int, stop: int) -> None:
            mag = mag_db[start:stop]
            # row k of the slab is profile row r0 - 1 + k
            _doppler_magnitude(slab[start - r0 + 1:stop - r0 + 1], nd, mag)
            tops.append(mag.max())

        _slab_blocks(block, r0, r1, nd)
    del slab
    peak = max(max(tops), 1e-300)
    dsp.run_blocks(lambda start, stop: _to_db(mag_db[start:stop], peak), nr, width=nd)
    range_axis, doppler_axis = _axes(cfg, mode, nf, nt, zero_pad)
    return RangeDopplerMap(magnitude_db=mag_db, range_axis_m=range_axis,
                           doppler_axis_hz=doppler_axis, mode=mode)


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
    bit for bit, without the map or the whole range profile.

    The profile is made one slab at a time (`_slabs`). Each block of range
    rows gets a bound, the largest L1 norm of its rows times ``_MARGIN``,
    that none of its Doppler magnitudes can exceed. In each slab the block
    with the largest bound is transformed first and its largest magnitude
    raises a running peak; then, on the threads, each other block is
    transformed only when its bound reaches the threshold below that peak.
    A block whose largest magnitude still reaches it keeps its profile rows
    and a halo row on either side, until a higher peak puts it below.

    The map's 0 dB is the largest of the transformed blocks' maxima, as no
    skipped block can hold the peak. Each block whose largest cell is below
    the threshold by no more than ``_DB_SLACK`` is live: its kept rows are
    transformed again, converted to dB and searched for local maxima."""
    _check_threshold(threshold_db)
    windows = _windows(cfr, window_kind)
    nf, nt = cfr.shape
    nr, nd = nf * zero_pad, nt * zero_pad
    block = dsp.block_items(nd)   # range rows of a block, as `_slab_blocks` cuts them
    # a block can reach the threshold only if its bound or its largest
    # magnitude, times _MARGIN, is at least `floor` times the peak
    floor = 10.0 ** ((threshold_db - _DB_SLACK) / 20.0)
    tops: dict[int, float] = {}        # largest magnitude of each transformed block
    kept: dict[int, np.ndarray] = {}   # rows start - 1 to stop of each block kept
    peak = 0.0
    buf = None
    for r0, r1 in _slabs(cfg, nr, nt, nd):
        l1: dict[int, np.ndarray] = {}
        slab = _range_slab(cfr, windows, nr, r0, r1, buf, l1)
        row_l1 = sum(l1[c] for c in sorted(l1))
        starts = range(r0, r1, block)
        bounds = {s: row_l1[s - r0:s - r0 + block].max() * _MARGIN for s in starts}

        def transform(start: int, stop: int) -> None:
            mag = np.empty((stop - start, nd))
            # row k of the slab is profile row r0 - 1 + k
            _doppler_magnitude(slab[start - r0 + 1:stop - r0 + 1], nd, mag)
            tops[start] = mag.max()

        first = max(starts, key=bounds.get)
        transform(first, min(first + block, r1))
        reach = floor * max(tops.values())

        def rest(start: int, stop: int) -> None:
            if start != first and bounds[start] >= reach:
                transform(start, stop)

        _slab_blocks(rest, r0, r1, nd)
        peak = max(tops.values())
        reach = floor * peak
        # a higher peak may put blocks kept from earlier slabs below it
        kept = {s: rows for s, rows in kept.items() if tops[s] * _MARGIN >= reach}
        live = [s for s in starts if s in tops and tops[s] * _MARGIN >= reach]
        whole = len(live) == len(starts)
        for s in live:
            rows = slab[s - r0:min(s + block, r1) - r0 + 2]
            kept[s] = rows if whole else rows.copy()
        # a slab kept whole is not overwritten by the next one
        buf = None if whole else slab
    del buf, slab

    peak = max(peak, 1e-300)
    starts = sorted(tops)
    top_db = np.array([tops[s] for s in starts])
    _to_db(top_db, peak)
    live = {s for s, v in zip(starts, top_db) if v >= threshold_db - _DB_SLACK}

    def db_rows(start: int, stop: int) -> np.ndarray:
        b = np.empty((stop - start + 2, nd))
        _doppler_magnitude(kept[start], nd, b)
        _to_db(b, peak)
        return b

    maxima = _local_maxima(db_rows, nr, nd, threshold_db, live)
    del kept
    range_axis, doppler_axis = _axes(cfg, mode, nf, nt, zero_pad)
    return _detections(*maxima, range_axis, doppler_axis, max_peaks)
