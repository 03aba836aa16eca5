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

from .commrx import ReceivedGrid
from .params import SPEED_OF_LIGHT, FrameConfig, SensingMode, require_valid
from .txframe import map_payload, payload_grid, pilot_cfr


class ReconstructionError(RuntimeError):
    """Raised when decoded bits are unusable for data-aided sensing."""


@dataclass
class RangeDopplerMap:
    magnitude_db: np.ndarray   # range bins x Doppler bins, 0 dB at peak
    range_axis_m: np.ndarray
    doppler_axis_hz: np.ndarray
    mode: SensingMode
    window_kind: str = "hamming"


@dataclass
class Detection:
    rel_bistatic_range_m: float
    doppler_shift_hz: float
    magnitude_db: float


def cfr_for_sensing(rg: ReceivedGrid, cfg: FrameConfig, mode: SensingMode,
                    decoded_info_bits: np.ndarray | None = None) -> np.ndarray:
    """Sensing CFR matrix: pilot submatrix, or full-grid Y/X with the TX
    payload grid rebuilt from the decoded info bits."""
    require_valid(cfg)
    if mode is SensingMode.PILOT_ONLY:
        return pilot_cfr(rg.grid, cfg)
    if decoded_info_bits is None:
        raise ReconstructionError("full-frame sensing requires decoded bits")
    _, symbols = map_payload(decoded_info_bits, cfg)
    return rg.grid / payload_grid(cfg, symbols)


def range_doppler(cfr: np.ndarray, cfg: FrameConfig, mode: SensingMode,
                  window_kind: str = "hamming", zero_pad: int = 4) -> RangeDopplerMap:
    """Windowed 2-D periodogram: IDFT over frequency (delay/range), DFT over
    time (Doppler, center-shifted), magnitude normalized to its peak."""
    if not np.all(np.isfinite(cfr)):
        raise ValueError("sensing CFR contains non-finite values")
    nf, nt = cfr.shape
    if window_kind == "hamming":
        wf, wt = np.hamming(nf), np.hamming(nt)
    elif window_kind == "rect":
        wf, wt = np.ones(nf), np.ones(nt)
    else:
        raise ValueError(f"unknown window kind: {window_kind}")
    # frequency rows arrive in DFT index order (DC first, negative
    # frequencies in the upper half); reorder to physical frequency so the
    # window tapers the true band edges and zero padding extends the band
    # instead of splitting it at Nyquist
    z = np.fft.fftshift(cfr, axes=0) * wf[:, None] * wt[None, :]
    prof = np.fft.ifft(z, n=nf * zero_pad, axis=0)
    del z
    rd = np.fft.fft(prof, n=nt * zero_pad, axis=1)
    del prof
    mag = np.abs(rd)
    del rd
    # the Doppler shift reorders the real magnitude, never the complex map;
    # dB in place: 20 * log10(max(mag, 1e-300) / peak)
    mag_db = np.fft.fftshift(mag, axes=1)
    del mag
    peak = max(mag_db.max(), 1e-300)
    np.maximum(mag_db, 1e-300, out=mag_db)
    mag_db /= peak
    np.log10(mag_db, out=mag_db)
    mag_db *= 20.0

    dn, dm = cfg.effective_spacings(mode)
    range_step = SPEED_OF_LIGHT / (cfg.bandwidth_hz * zero_pad)
    range_axis = np.arange(nf * zero_pad) * range_step
    t_sym = dm * cfg.symbol_len / cfg.bandwidth_hz
    doppler_step = 1.0 / (t_sym * nt * zero_pad)
    doppler_axis = (np.arange(nt * zero_pad) - nt * zero_pad // 2) * doppler_step
    return RangeDopplerMap(magnitude_db=mag_db, range_axis_m=range_axis,
                           doppler_axis_hz=doppler_axis, mode=mode,
                           window_kind=window_kind)


def _parabolic(vals: np.ndarray, i: int) -> float:
    a, b, c = vals[i - 1], vals[i], vals[(i + 1) % vals.size]
    denom = a - 2 * b + c
    if abs(denom) < 1e-30:
        return 0.0
    return float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))


def _max3_wrapped(m: np.ndarray) -> np.ndarray:
    """Largest value of each cell's 3x3 neighborhood, wrapping around both
    axes: one pass per axis, each a neighbor maximum over shifted slices."""
    out = m.copy()
    for axis in (0, 1):
        src = np.moveaxis(out.copy() if axis else m, axis, 0)
        dst = np.moveaxis(out, axis, 0)
        np.maximum(dst[1:], src[:-1], out=dst[1:])
        np.maximum(dst[0], src[-1], out=dst[0])
        np.maximum(dst[:-1], src[1:], out=dst[:-1])
        np.maximum(dst[-1], src[0], out=dst[-1])
    return out


def extract_peaks(rd_map: RangeDopplerMap, threshold_db: float,
                  max_peaks: int = 16) -> list[Detection]:
    """Local maxima (3x3 neighborhood) above a peak-relative threshold,
    parabolic sub-bin refinement in both axes, sorted by magnitude."""
    if threshold_db >= 0:
        raise ValueError("threshold_db must be negative (relative to the map peak)")
    m = rd_map.magnitude_db
    # both axes are DFT axes, so the local-maximum test wraps around; a cell
    # equal to the largest of its 3x3 neighborhood ties or beats every neighbor
    is_peak = m == _max3_wrapped(m)
    is_peak &= m >= threshold_db
    ri, di = np.nonzero(is_peak)
    order = np.argsort(m[ri, di])[::-1][:max_peaks]

    dets = []
    dr = rd_map.range_axis_m[1] - rd_map.range_axis_m[0]
    dd = rd_map.doppler_axis_hz[1] - rd_map.doppler_axis_hz[0]
    span = rd_map.range_axis_m.size * dr  # unambiguous range of this mode
    for idx in order:
        i, j = int(ri[idx]), int(di[idx])
        # linear magnitude of the detection's column and row only
        fi = _parabolic(10.0 ** (m[:, j] / 20.0), i)
        fj = _parabolic(10.0 ** (m[i, :] / 20.0), j)
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
