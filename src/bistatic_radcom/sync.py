"""Receiver timing, carrier and sampling-clock synchronization chain.

Order of operations: Schmidl-Cox coarse timing and CFO (fractional via the
half-repeated first preamble symbol, integer via the differentially encoded
second symbol), fine timing by cross-correlation against the known first
preamble symbol, weighted least-squares clock-offset estimation over the
pairwise-identical preamble symbols, resampling correction of the whole
stream, preamble discard and payload CFO correction. Each estimator
de-rotates exactly the samples it reads through `local_cfo_correct`: the
two S&C symbols by the fractional CFO, the N + 2 N_CP samples of the
fine-timing window and the clock-tracking symbols by the full estimate.
Each estimate is one array operation: one argmax over all integer CFO
shifts, one `np.correlate` over the fine-timing window, and one FFT and
one weighted fit over all clock-tracking pairs, summed in pair order.

Index convention: frame start = first CP sample of the first preamble symbol.

The stages work on plain sample arrays at the frame's rate ``bandwidth_hz``;
`synchronize` takes an `IqStream`, rejects one at any other rate, and
returns the payload samples as a plain array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import run_blocks, sfo_correction_chain
from .params import SFO_BOUND, FrameConfig, PipelineError
from .txframe import IqStream, frame_tables

SC_LOCK_THRESHOLD = 0.3
PSL_THRESHOLD = 2.0
INT_CFO_SEARCH = 8  # +- even subcarrier shifts searched for the integer CFO


@dataclass
class SyncReport:
    coarse_start: int = 0
    fine_start: int = 0
    cfo_hat_hz: float = 0.0
    sfo_hat: float = 0.0
    timing_metric_peak: float = 0.0
    pair_phase_slopes: list[float] = field(default_factory=list)


def schmidl_cox(s: np.ndarray, cfg: FrameConfig) -> tuple[int, float, float]:
    """Coarse frame start and combined integer+fractional CFO estimate.

    Returns (coarse_start, cfo_hat_hz, timing_metric_peak). The timing
    metric is M(d) = |P(d)|^2 / R(d)^2 with half-symbol lag correlation; the
    coarse start is mapped from the midpoint of the 90%-of-peak plateau.
    """
    n = cfg.n_subcarriers
    half = n // 2
    if s.size < cfg.symbol_len + half:
        raise PipelineError("sync.schmidl_cox", "stream shorter than the preamble")

    # cp[d] and cw[d]: running sums of the half-lag products and of the
    # power over s[:d]
    n_d = s.size - n
    cp = np.empty(s.size - half + 1, dtype=np.complex128)
    cw = np.empty(s.size + 1)
    cp[0] = cw[0] = 0.0

    def products(start: int, stop: int) -> None:
        np.multiply(np.conj(s[start:stop]), s[start + half:stop + half],
                    out=cp[1 + start:1 + stop])

    run_blocks(products, s.size - half)
    np.square(np.abs(s, out=cw[1:]), out=cw[1:])
    # the gate is relative to the mean power, one pairwise sum over the stream
    r_floor = 0.01 * np.mean(cw[1:]) * half
    np.cumsum(cp, out=cp)
    np.cumsum(cw, out=cw)

    metric = np.zeros(n_d)

    def timing_metric(start: int, stop: int) -> None:
        p = cp[half + start:half + stop] - cp[start:stop]
        r1 = cw[half + start:half + stop] - cw[start:stop]  # first half-window energy
        r2 = cw[n + start:n + stop] - cw[half + start:half + stop]  # second half
        # normalized correlation, bounded by 1; windows with negligible
        # energy in either half (zero guards, capture padding) are gated out
        # and left at 0, so no other window needs a floor at any level
        np.divide(np.abs(p) ** 2, r1 * r2, out=metric[start:stop],
                  where=(r1 > r_floor) & (r2 > r_floor))

    run_blocks(timing_metric, n_d)

    d_peak = int(np.argmax(metric))
    peak = metric[d_peak]
    if peak < SC_LOCK_THRESHOLD:
        raise PipelineError("sync.schmidl_cox",
                            f"timing metric peak {peak:.3f} below lock threshold")

    # midpoint of the contiguous >= 90%-of-peak plateau around the maximum
    thr = 0.9 * peak
    lo = d_peak
    while lo > 0 and metric[lo - 1] >= thr:
        lo -= 1
    hi = d_peak
    while hi < metric.size - 1 and metric[hi + 1] >= thr:
        hi += 1
    d_mid = (lo + hi) // 2
    coarse_start = d_mid - cfg.cp_len // 2

    ts = 1.0 / cfg.bandwidth_hz
    frac_cfo = np.angle(cp[half + d_mid] - cp[d_mid]) / (np.pi * n * ts)

    int_cfo = _integer_cfo(s, cfg, coarse_start, frac_cfo)
    cfo_hat = frac_cfo + int_cfo * cfg.subcarrier_spacing
    return coarse_start, cfo_hat, float(peak)


def _integer_cfo(s: np.ndarray, cfg: FrameConfig, coarse_start: int,
                 frac_cfo: float) -> int:
    """Resolve the integer CFO (in even multiples of the subcarrier spacing)
    from the differential encoding between the two S&C preamble symbols."""
    n, ncp, sym = cfg.n_subcarriers, cfg.cp_len, cfg.symbol_len
    u0 = coarse_start + ncp
    if u0 < 0 or u0 + sym + n > s.size:
        raise PipelineError("sync.schmidl_cox", "preamble not fully contained in stream")
    seg = local_cfo_correct(s, cfg, frac_cfo, (u0, u0 + sym + n))
    y1 = np.fft.fft(seg[:n], norm="ortho")
    y2 = np.fft.fft(seg[sym:sym + n], norm="ortho")
    # the known differential c2[k] * conj(c1[k]) on the even subcarriers
    pb = frame_tables(cfg).preamble
    even = np.arange(0, n, 2)
    v = pb[even, 1] * np.conj(pb[even, 0])
    diff_rx = y2 * np.conj(y1)
    gmax = min(INT_CFO_SEARCH, n // 2 - 2) // 2 * 2  # even, so 0 is searched
    shifts = np.arange(-gmax, gmax + 1, 2)
    metric = np.abs(np.sum(diff_rx[(even + shifts[:, None]) % n] * np.conj(v), axis=1)) ** 2
    return int(shifts[np.argmax(metric)])  # the first of equal maxima


def local_cfo_correct(s: np.ndarray, cfg: FrameConfig, cfo_hat_hz: float,
                      region: tuple[int, int]) -> np.ndarray:
    """The samples in [start, stop), clipped to the stream, de-rotated by the
    CFO estimate; the phase reference n = 0 sits at the (clipped) region
    start, which is index 0 of the returned samples. A new array: stream
    times phasor below 16 384 samples, phasor times stream from there on,
    where NumPy reuses the 256 KiB phasor temporary. The two round
    differently, which is why the payload de-rotation in `synchronize`
    keeps its own in-place stream-times-phasor form."""
    start, stop = max(region[0], 0), min(region[1], s.size)
    if start >= stop:
        raise PipelineError("sync.local_cfo_correct", "empty or out-of-bounds region")
    return s[start:stop] * np.exp(-2j * np.pi * cfo_hat_hz * np.arange(stop - start)
                                  * (1.0 / cfg.bandwidth_hz))


def fine_timing(s: np.ndarray, cfg: FrameConfig, coarse_start: int,
                cfo_hat_hz: float) -> int:
    """Fine frame start, from cross-correlation of the samples de-rotated by
    the CFO estimate against the known first preamble symbol (useful part).
    Searches coarse_start +- N_CP."""
    n, ncp = cfg.n_subcarriers, cfg.cp_len
    ref = np.fft.ifft(frame_tables(cfg).preamble[:, 0], norm="ortho")  # useful part
    d0 = coarse_start + ncp  # candidate start of the useful part
    cands = np.arange(max(d0 - ncp, 0), min(d0 + ncp + 1, s.size - n))
    if cands.size == 0:
        raise PipelineError("sync.fine_timing", "search window outside stream")
    seg = local_cfo_correct(s, cfg, cfo_hat_hz, (cands[0], cands[-1] + n))
    mags = np.abs(np.correlate(seg, ref, "valid"))  # conjugates ref, one value per candidate
    best = int(np.argmax(mags))
    peak = mags[best]
    side = np.delete(mags, np.arange(max(best - 2, 0), min(best + 3, mags.size)))
    if side.size and not peak > PSL_THRESHOLD * side.max():
        what = (f"peak-to-sidelobe {peak / side.max():.2f} not above {PSL_THRESHOLD}"
                if peak > 0 else "zero over the search window")
        raise PipelineError("sync.fine_timing", f"ambiguous timing: correlation {what}")
    return int(cands[best]) - ncp


def estimate_sfo_tsai(s: np.ndarray, cfg: FrameConfig, fine_start: int,
                      cfo_hat_hz: float) -> tuple[float, list[float]]:
    """Weighted least-squares clock-offset estimate from the pairwise
    identical preamble symbols.

    For each pair, the per-subcarrier phase rotation between the two copies
    grows linearly with (signed) subcarrier index at a slope proportional to
    the normalized clock offset; slopes are combined across subcarriers and
    pairs with |Y|^2 weights.
    """
    n, ncp, sym = cfg.n_subcarriers, cfg.cp_len, cfg.symbol_len
    first_sfo = fine_start + cfg.m_sc * sym
    stop = first_sfo + cfg.m_sfo * sym
    if first_sfo < 0 or stop > s.size:
        raise PipelineError("sync.estimate_sfo_tsai", "clock-tracking symbols not in stream")

    seg = local_cfo_correct(s, cfg, cfo_hat_hz, (first_sfo, stop))
    y = np.fft.fft(seg.reshape(cfg.m_sfo, sym)[:, ncp:], axis=1, norm="ortho")
    ya, yb = y[0::2], y[1::2]  # each pair's first and second copy, one row per pair
    w = np.abs(ya) ** 2 + np.abs(yb) ** 2
    wsum = w.sum(axis=1, keepdims=True)
    if not np.all(wsum > 0):  # names the first empty pair
        raise PipelineError("sync.estimate_sfo_tsai", "clock-tracking symbol pair "
                            f"{np.argmin(wsum > 0)} carries no energy")
    phase = np.angle(yb * np.conj(ya))
    # weighted LS through the origin: slope of phase vs signed index, each
    # pair's common phase removed first to avoid intercept bias
    k_signed = np.fft.fftfreq(n, d=1.0 / n)  # 0..N/2-1, -N/2..-1
    kc = k_signed - (w * k_signed).sum(axis=1, keepdims=True) / wsum
    pc = phase - (w * phase).sum(axis=1, keepdims=True) / wsum
    s_num = (w * kc * pc).sum(axis=1)
    s_den = (w * kc * kc).sum(axis=1)
    slopes = np.divide(s_num, s_den, out=np.zeros_like(s_num), where=s_den > 0)
    # running sums in pair order: from 8 pairs on, ``.sum()`` adds pairwise
    num, den = sum(s_num.tolist()), sum(s_den.tolist())
    delta_hat = (num / den if den > 0 else 0.0) * n / (2.0 * np.pi * sym)
    return float(delta_hat), slopes.tolist()


def resample_correct(s: np.ndarray, delta_hat: float) -> np.ndarray:
    """Invert the clock-ratio mismatch: output m = input at m/(1+delta_hat)."""
    if abs(delta_hat) >= SFO_BOUND:
        raise PipelineError("sync.resample_correct", f"|delta_hat| must be below {SFO_BOUND}")
    return sfo_correction_chain(s, delta_hat)


def synchronize(y: IqStream, cfg: FrameConfig,
                correct_sfo: bool = True) -> tuple[np.ndarray, SyncReport]:
    """Full chain; returns the CFO-corrected payload samples, exactly
    (N+N_CP)*M_pl of them, plus a report. ``correct_sfo=False`` skips the
    resampling stage (ablation toggle). The stream's rate must be the
    frame's ``bandwidth_hz``, the rate every stage assumes."""
    if y.nominal_rate != cfg.bandwidth_hz:
        raise PipelineError("sync.synchronize", f"stream rate {y.nominal_rate:g} differs "
                            f"from frame.bandwidth_hz {cfg.bandwidth_hz:g}")
    s = y.samples
    sym = cfg.symbol_len
    ts = 1.0 / cfg.bandwidth_hz

    coarse_start, cfo_hat, peak = schmidl_cox(s, cfg)
    fine_start = fine_timing(s, cfg, coarse_start, cfo_hat)
    delta_hat, slopes = estimate_sfo_tsai(s, cfg, fine_start, cfo_hat)

    if correct_sfo:
        z = resample_correct(s, delta_hat)
        start_z = int(round(fine_start * (1.0 + delta_hat)))
    else:
        z = s
        start_z = fine_start

    pl_start = start_z + cfg.m_preamble * sym
    pl_len = cfg.m_payload * sym
    if pl_start < 0 or pl_start + pl_len > z.size:
        raise PipelineError("sync.synchronize", "payload extends past end of stream")
    payload = np.empty(pl_len, dtype=np.complex128)

    def derotate(start: int, stop: int) -> None:
        # in place, stream times phasor: NumPy may evaluate ``a * np.exp(..)``
        # as phasor times stream, and complex products round differently
        n = np.arange(start, stop)
        payload[start:stop] = z[pl_start + start:pl_start + stop]
        payload[start:stop] *= np.exp(-2j * np.pi * cfo_hat * n * ts)

    run_blocks(derotate, pl_len)

    return payload, SyncReport(coarse_start=coarse_start, fine_start=fine_start,
                               cfo_hat_hz=float(cfo_hat), sfo_hat=float(delta_hat),
                               timing_metric_peak=peak, pair_phase_slopes=slopes)
