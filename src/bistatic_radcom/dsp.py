"""Fractional-delay and resampling primitives shared by channel and receiver.

Two distinct resamplers live here on purpose: the channel-side impairment
(`resample_arbitrary`, a long polyphase windowed-sinc interpolator) and the
receiver-side correction chain (`sfo_correction_chain`, FIR interpolate-by-2,
cubic polynomial rate conversion, FIR decimate-by-2). Keeping them different
avoids testing an implementation against itself.

The resampler and all three stages of the correction chain evaluate their
output in fixed blocks of ``_BLOCK`` samples, spread over a thread per usable
CPU by `run_blocks`; the channel and the receiver apply their phasors the same
way. The threads overlap because NumPy releases the interpreter lock in
``take`` and in ufuncs, and SciPy's ``upfirdn`` releases it in its filter
loop (each FIR block filters an input slice that overlaps its neighbours by
the filter length). Every block writes its own slice of a preallocated output
and the block edges do not depend on the thread count, so the result is
bit-for-bit the same on any number of cores. `fractional_delay` shifts by a
slice copy when the delay is a whole number of samples and otherwise filters
by overlap-add, whose batched FFTs also run on every CPU with the same bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
import scipy.fft
from scipy import signal


# Longest sample stream the pipeline accepts, checked before anything that
# size is allocated: the channel stream of a scenario (`load_scenario`) and a
# capture file (`read_iq`). The long reference stream (10.52 M samples) peaks
# at 1674 MB, 159 B per sample, so a stream at the budget needs about 2.7 GB.
MAX_STREAM_SAMPLES = 1 << 24


class DataError(ValueError):
    """Raised for non-finite or malformed sample data."""


def require_finite(x: np.ndarray, what: str = "input") -> None:
    if not np.all(np.isfinite(x)):
        raise DataError(f"{what} contains non-finite samples")


# ---------------------------------------------------------------------------
# block-parallel evaluation

_BLOCK = 1 << 15  # output samples per block; fixed, so results never depend on the thread count


def _workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_blocks(block: Callable[[int, int], None], n: int, size: int | None = None) -> None:
    """Call ``block(start, stop)`` on consecutive ``size``-element slices of
    ``range(n)`` (``_BLOCK`` when ``size`` is None), on up to one thread per
    CPU."""
    size = size or _BLOCK
    starts = range(0, n, size)
    with ThreadPoolExecutor(max_workers=max(1, min(_workers(), len(starts)))) as pool:
        futures = [pool.submit(block, s, min(s + size, n)) for s in starts]
        for f in futures:
            f.result()


# ---------------------------------------------------------------------------
# fractional delay (single fixed sub-sample shift)

_FRAC_DELAY_TAPS = 63
_FRAC_DELAY_BETA = 8.0


def fractional_delay(x: np.ndarray, delay_samples: float,
                     out_len: int | None = None) -> np.ndarray:
    """Delay ``x`` by an arbitrary (possibly fractional) number of samples.

    A whole number of samples is an exact shift. Otherwise windowed-sinc
    interpolation, 63 taps, Kaiser beta=8, by overlap-add; the filter group
    delay is compensated so output index n corresponds to x(n - delay).
    The default output length extends past the input by the integer delay
    plus half a filter length to hold the shifted tail.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_int = int(np.floor(delay_samples))
    frac = delay_samples - n_int
    ntaps = _FRAC_DELAY_TAPS
    center = (ntaps - 1) // 2
    if out_len is None:
        out_len = x.size + max(n_int, 0) + center + 1
    out = np.zeros(out_len, dtype=np.complex128)
    if frac == 0.0:
        y, shift = x, n_int  # out[n] = x[n - n_int]
    else:
        arg = np.arange(ntaps) - center - frac
        h = np.sinc(arg) * _kaiser_at(arg, ntaps, _FRAC_DELAY_BETA)
        with scipy.fft.set_workers(_workers()):
            y = signal.oaconvolve(x, h, mode="full")  # y[m] ~ x(m - center - frac)
        shift = n_int - center  # out[n] = y[n + center - n_int]
    n_lo = max(0, shift)
    n_hi = min(out_len, y.size + shift)
    if n_hi > n_lo:
        out[n_lo:n_hi] = y[n_lo - shift:n_hi - shift]
    return out


def _kaiser_at(t: np.ndarray, ntaps: int, beta: float) -> np.ndarray:
    """Kaiser window evaluated at (possibly fractional) tap offsets ``t``
    from the filter center, for a length-``ntaps`` design."""
    half = (ntaps - 1) / 2.0
    r = np.clip(t / half, -1.0, 1.0)
    return np.i0(beta * np.sqrt(1.0 - r * r)) / np.i0(beta)


# ---------------------------------------------------------------------------
# arbitrary-ratio polyphase resampler (channel-side SFO impairment)

_POLY_TAPS = 80
_POLY_PHASES = 16384  # dense enough for nearest-phase lookup below 1e-4 error
_POLY_BETA = 9.5  # ~95 dB Kaiser design; passband flat to ~0.46 Fs


def _polyphase_table() -> np.ndarray:
    k = np.arange(_POLY_TAPS) - (_POLY_TAPS // 2 - 1)
    mu = np.arange(_POLY_PHASES + 1)[:, None] / _POLY_PHASES
    arg = k[None, :] - mu
    return np.sinc(arg) * _kaiser_at(arg, _POLY_TAPS, _POLY_BETA)


_TABLE_T: np.ndarray | None = None  # tap-major copy: row k holds tap k of every phase


def resample_arbitrary(x: np.ndarray, ratio: float, t0: float = 0.0,
                       out_len: int | None = None) -> np.ndarray:
    """Evaluate band-limited interpolation of ``x`` at times n*ratio + t0.

    Polyphase windowed-sinc table (80 taps) with nearest-phase lookup; the
    phase grid is dense enough that quantization stays below the filter's
    own passband error. Samples outside the input are treated as zero.
    Each output sums its 80 taps left to right, one tap over a whole block
    at a time, on separate real and imaginary planes.
    """
    global _TABLE_T
    if _TABLE_T is None:
        _TABLE_T = np.ascontiguousarray(_polyphase_table().T)
    x = np.asarray(x, dtype=np.complex128)
    if out_len is None:
        out_len = int(np.floor((x.size - 1 - t0) / ratio)) + 1 if ratio > 0 else x.size
        out_len = max(out_len, 0)
    taps = _POLY_TAPS
    half = taps // 2 - 1
    # window n starts at x[base - half]; a full window of zeros on either
    # side of the usual padding absorbs every window that leaves the input
    lead = taps + half
    xr = np.zeros(lead + x.size + 2 * taps)
    xi = np.zeros_like(xr)
    xr[lead:lead + x.size] = x.real
    xi[lead:lead + x.size] = x.imag
    y = np.empty(out_len, dtype=np.complex128)
    yv = y.view(np.float64)

    def block(start: int, stop: int) -> None:
        t = np.arange(start, stop) * ratio + t0
        base = np.floor(t).astype(np.int64)
        mu = t - base
        p0 = np.rint(mu * _POLY_PHASES).astype(np.int64)
        np.clip(base, -taps, x.size + half + taps, out=base)
        base += taps  # xr index of each window start
        coeff = np.empty(stop - start)
        prod = np.empty(stop - start)
        acc_re = np.zeros(stop - start)
        acc_im = np.zeros(stop - start)
        for k in range(taps):
            np.take(_TABLE_T[k], p0, out=coeff, mode="clip")
            np.take(xr[k:], base, out=prod, mode="clip")
            prod *= coeff
            acc_re += prod
            np.take(xi[k:], base, out=prod, mode="clip")
            prod *= coeff
            acc_im += prod
        yv[2 * start:2 * stop:2] = acc_re
        yv[2 * start + 1:2 * stop:2] = acc_im

    run_blocks(block, out_len)
    return y


# ---------------------------------------------------------------------------
# receiver-side SFO correction chain: FIR x2 -> cubic SRC -> FIR /2

_STAGE_TAPS = 48
_STAGE_BETA = 7.0
_BYPASS_THRESHOLD = 1e-8


def _halfband_fir() -> np.ndarray:
    # cutoff at 1/4 of the doubled rate; 48 taps per the stage budget
    return signal.firwin(_STAGE_TAPS, 0.5, window=("kaiser", _STAGE_BETA))


def _cubic_lagrange(up: np.ndarray, t: np.ndarray) -> np.ndarray:
    """4-tap cubic Lagrange interpolation at fractional indices t of the
    samples u held in ``up``, which pads them with 2 zeros in front and 3
    behind."""
    base = np.floor(t).astype(np.int64)
    mu = t - base
    i = base + 2  # offset from the left zero pad
    np.clip(i, 1, up.size - 3, out=i)
    xm1, x0, x1, x2 = up[i - 1], up[i], up[i + 1], up[i + 2]
    c0 = x0
    c1 = -xm1 / 3.0 - 0.5 * x0 + x1 - x2 / 6.0
    c2 = 0.5 * (xm1 + x1) - x0
    c3 = (x2 - xm1) / 6.0 + 0.5 * (x0 - x1)
    return ((c3 * mu + c2) * mu + c1) * mu + c0


def _fir_blocks(h: np.ndarray, x: np.ndarray, up: int, down: int,
                out: np.ndarray) -> None:
    """Write the first ``out.size`` samples of ``signal.upfirdn(h, x, up,
    down)`` into ``out``, block by block.

    Each block filters the input slice its outputs depend on, widened by one
    filter length and started on a multiple of ``down`` so the local output
    grid and filter phases line up with the one-shot call; every kept output
    sums the same products in the same order, so the bits are identical.
    """
    reach = -(-h.size // up)  # input samples under the filter at each phase

    def block(start: int, stop: int) -> None:
        lo = max(start * down // up - reach + 1, 0)
        lo -= lo % down
        hi = min((stop - 1) * down // up + 1, x.size)
        skip = start - lo * up // down
        local = signal.upfirdn(h, x[lo:hi], up=up, down=down)
        out[start:stop] = local[skip:skip + stop - start]

    run_blocks(block, out.size)


def sfo_correction_chain(y: np.ndarray, delta_hat: float) -> np.ndarray:
    """Resample so that output m equals y evaluated at m/(1+delta_hat).

    Three stages: interpolate by 2 (48-tap Kaiser FIR), cubic polynomial
    arbitrary-ratio conversion, decimate by 2 (48-tap Kaiser FIR). All group
    delays are folded into the conversion instants, so the output is aligned
    with the input. Ratios below the estimator's numerical floor bypass the
    chain entirely.
    """
    y = np.asarray(y, dtype=np.complex128)
    if abs(delta_hat) < _BYPASS_THRESHOLD:
        return y.copy()
    h = _halfband_fir()
    d = (_STAGE_TAPS - 1) / 2.0  # group delay of each stage at the 2x rate
    # the interpolator's 2n + 46 outputs, between the cubic stage's zero pads
    up = np.empty(2 * y.size + _STAGE_TAPS + 3, dtype=np.complex128)
    up[:2] = 0.0
    up[-3:] = 0.0
    _fir_blocks(2.0 * h, y, 2, 1, up[2:-3])
    v = np.empty(2 * y.size + _STAGE_TAPS, dtype=np.complex128)

    def block(start: int, stop: int) -> None:
        k = np.arange(start, stop)
        v[start:stop] = _cubic_lagrange(up, (k + d) / (1.0 + delta_hat) + d)

    run_blocks(block, v.size)
    del up
    # both FIR group delays (d at the 2x rate each) are pre-advanced inside
    # the SRC instants, so decimator output m directly equals y(m/(1+delta))
    z = np.empty(y.size, dtype=np.complex128)
    _fir_blocks(h, v, 1, 2, z)
    return z
