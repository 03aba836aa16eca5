"""Fractional-delay and resampling primitives shared by channel and receiver.

Two distinct resamplers live here on purpose: the channel-side impairment
(`resample_arbitrary`, a long polyphase windowed-sinc interpolator) and the
receiver-side correction chain (`sfo_correction_chain`, FIR interpolate-by-2,
cubic polynomial rate conversion, FIR decimate-by-2). Keeping them different
avoids testing an implementation against itself.

Every blocked pass of the package runs on `run_blocks`, which spreads
fixed blocks over a thread per usable CPU and is the one place that sizes
them: a block holds about ``_BLOCK`` elements, as many whole items (samples,
grid rows or columns, overlap-add steps, table phases) as fit, and at least
one. The threads overlap because NumPy releases the interpreter lock in
``take`` and in ufuncs. Every block writes its own slice of a preallocated
output and the block edges do not depend on the thread count, so the result
is bit-for-bit the same on any number of cores.

The correction chain is fused: each output block filters, from the slice of
the input it depends on, only the interpolator outputs under its cubic
stencils, converts them to the decimator input it needs and decimates that.
Each FIR slice overlaps its neighbours by the filter length and starts on
the one-shot call's filter phase (`_fir_span`), so every sample has the bits
of the three stages run one after the other over the whole stream, while
neither 2n-sample intermediate stream exists.

The resampler's polyphase table (80 taps by 16 385 phases, 10.5 MB) lives
only while something holds it: `_tap_major_table` hands every caller the
one table that some caller still holds, through a weak reference, and builds
it again when none does. Each `resample_arbitrary` call holds it until it
returns, so the table is freed when the channel returns.

`fractional_delay` filters by overlap-add, one block of 428-sample steps
at a time on `run_blocks`, and writes each step straight into its output; a
step depends only on its own input and the one before, so the result has the
bits of one whole-stream call, and a span of it can be made on its own
(`fractional_delay_origin`).

The package imports no SciPy: every transform runs on ``numpy.fft``. The
FIR stages (`_fir_range`), their filter (`_halfband_fir`) and the
overlap-add (`fractional_delay`) are written to give the bits of SciPy's
``signal.upfirdn``, ``signal.firwin`` and ``signal.oaconvolve`` and of the
``scipy.fft`` calls those make; the tests hold them to those functions. Two
pieces keep SciPy's bits where NumPy's plain form would not: the FFT of the
real filter is a real-input FFT with its Hermitian half mirrored in
(`_real_fft`, as SciPy's own), and the window's Bessel function is Cephes's
series on libm's ``exp`` (`_i0`), not ``np.i0``, whose vectorized ``exp``
rounds differently.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .params import ConfigError

# Longest sample stream the pipeline accepts, checked before anything that
# size is allocated: the channel stream of a scenario (`load_scenario`) and a
# capture file (`read_iq`). The long reference stream (10.52 M samples) peaks
# at 531 MB, 50 B per sample, so a stream at the budget needs about 0.85 GB.
# That peak is set in comm estimation and decoding (the drift tracker's CIR
# magnitudes, then `equalize`); the sample path (TX, channel, sync) peaks at
# about 495 MB, in TX.
MAX_STREAM_SAMPLES = 1 << 24


def require_finite(x: np.ndarray, what: str = "input") -> None:
    if not np.all(np.isfinite(x)):
        raise ConfigError([f"{what} contains non-finite samples"])


# ---------------------------------------------------------------------------
# block-parallel evaluation

_BLOCK = 1 << 15  # elements per block; fixed, so results never depend on the thread count


def _workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def block_items(width: int = 1) -> int:
    """Items of ``width`` elements in one `run_blocks` block: ``_BLOCK //
    width``, at least one."""
    return max(_BLOCK // width, 1)


def run_blocks(block: Callable[[int, int], None], n: int, width: int = 1) -> None:
    """Call ``block(start, stop)`` on consecutive slices of ``range(n)``, on
    up to one thread per CPU. Each of the ``n`` items holds ``width``
    elements (a sample, a grid row or column, ...); a slice holds
    `block_items(width)` items."""
    size = block_items(width)
    starts = range(0, n, size)
    with ThreadPoolExecutor(max_workers=max(1, min(_workers(), len(starts)))) as pool:
        futures = [pool.submit(block, s, min(s + size, n)) for s in starts]
        for f in futures:
            f.result()


def pairwise_sum(values: Callable[[int, int], np.ndarray], n: int, start: int = 0) -> float:
    """``np.sum`` of the ``n`` float64 values from ``start`` on, with its bits,
    where ``values(a, b)`` gives values ``a:b`` as a new array. NumPy sums a
    contiguous array pairwise: above 128 values it splits ``n`` at half,
    rounded down to a multiple of 8, and adds the sums of the two parts. The
    split is followed here until a part fits in a block (or in 128 values,
    which NumPy sums in one unrolled loop), which is summed whole, so no
    more than a block of values exists at a time."""
    if n <= max(_BLOCK, 128):
        return float(np.add.reduce(values(start, start + n)))
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(values, n2, start) + pairwise_sum(values, n - n2, start + n2)


def parabolic_vertex(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Offset, clipped to +-0.5, of the vertex of the parabola through ``a,
    b, c`` at -1, 0, +1; 0 where the three are collinear (a flat top)."""
    denom = a - 2 * b + c
    return np.clip(np.divide(0.5 * (a - c), denom, out=np.zeros_like(denom),
                             where=denom != 0), -0.5, 0.5)


# ---------------------------------------------------------------------------
# fractional delay (single fixed sub-sample shift)

_FRAC_DELAY_TAPS = 63
_FRAC_DELAY_BETA = 8.0


# The overlap-add's FFT block and block step for the 63-tap filter: the
# sizes SciPy's ``signal.oaconvolve`` picks for 63 taps (``_calc_oa_lens``)
_OA_FFT = 490
_OA_STEP = _OA_FFT - _FRAC_DELAY_TAPS + 1


def fractional_delay(x: np.ndarray, delay_samples: float, out_len: int) -> np.ndarray:
    """The first ``out_len`` samples of ``x`` delayed by a fractional number
    of samples.

    Windowed-sinc interpolation, 63 taps, Kaiser beta=8; the filter group
    delay is compensated so output index n corresponds to x(n - delay). The
    filtering has the bits of SciPy's ``signal.oaconvolve`` for at least 12
    input samples (below that SciPy swaps its operands; the shortest transmit
    stream `load_scenario` accepts is 396 samples): each ``_OA_STEP``-sample
    step of the input is convolved by one ``_OA_FFT``-point FFT, and its last
    62 outputs are added to the next step's first. At or below ``_OA_FFT``
    samples one FFT of the next fast length covers the input, as
    ``fftconvolve`` does.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_int = int(np.floor(delay_samples))
    ntaps = _FRAC_DELAY_TAPS
    center = (ntaps - 1) // 2
    out = np.zeros(out_len, dtype=np.complex128)
    arg = np.arange(ntaps) - center - (delay_samples - n_int)
    h = np.sinc(arg) * _kaiser_at(arg, ntaps, _FRAC_DELAY_BETA)
    # y[m] ~ x(m - center - frac) lands at out[m + shift]; y[lo:hi] lands in out
    shift, ov = n_int - center, ntaps - 1
    lo, hi = max(-shift, 0), min(x.size + ov, out_len - shift)
    if hi <= lo:
        return out
    if x.size <= _OA_FFT:
        nfft = _next_fast_len(x.size + ov)
        y = np.fft.ifft(np.fft.fft(x, nfft) * _real_fft(h, nfft), nfft)
        out[lo + shift:hi + shift] = y[lo:hi]
        return out
    hf = _real_fft(h, _OA_FFT)
    first = lo // _OA_STEP

    def block(start: int, stop: int) -> None:
        # steps j0..j1 of y, from input steps j0 - 1 (its tail overlaps step j0) to j1
        j0, j1 = first + start, first + stop
        prev = max(j0 - 1, 0)
        seg = x[prev * _OA_STEP:j1 * _OA_STEP]
        rows = np.zeros((j1 - prev, _OA_STEP), dtype=np.complex128)
        rows.reshape(-1)[:seg.size] = seg
        ret = np.fft.ifft(np.fft.fft(rows, _OA_FFT, axis=1) * hf, _OA_FFT, axis=1)
        ret[1:, :ov] += ret[:-1, -ov:]
        # the FFT of the last step leaves rounding noise past y's end: clip to hi
        a, b = max(j0 * _OA_STEP, lo), min(j1 * _OA_STEP, hi)
        y = ret[j0 - prev:, :_OA_STEP].reshape(-1)
        out[a + shift:b + shift] = y[a - j0 * _OA_STEP:b - j0 * _OA_STEP]

    run_blocks(block, -(-hi // _OA_STEP) - first, width=_OA_FFT)
    return out


def fractional_delay_origin(n: int, delay_samples: float, start: int,
                            stop: int) -> tuple[int, int] | None:
    """How to make samples ``start:stop`` of `fractional_delay` of ``n``
    input samples ``x`` on their own: ``(k, d)`` such that
    ``fractional_delay(x[k:], delay_samples - d, stop - k - d)[start - k - d:]``
    has the bits of ``fractional_delay(x, delay_samples, out_len)[start:stop]``
    for any ``out_len`` at or past ``stop``; None where those samples are
    all zero.

    ``x[k:]`` starts on an overlap-add step, the one before the step of
    ``start``, whose tail that step adds, and it is kept longer than
    ``_OA_FFT``, so the overlap-add runs rather than one FFT. ``d``, a whole
    number of samples from 0 to the delay's integer part, drops the output
    before ``start``; subtracting it leaves the delay's fraction, and so the
    filter, exact."""
    n_int = int(np.floor(delay_samples))
    m = start - (n_int - (_FRAC_DELAY_TAPS - 1) // 2)  # filter output index of ``start``
    if m >= n + _FRAC_DELAY_TAPS - 1 or m + stop - start <= 0:
        return None
    k = max(0, min(m // _OA_STEP - 1, (n - _OA_FFT - 1) // _OA_STEP,
                   start // _OA_STEP)) * _OA_STEP
    return k, max(0, min(start - k, n_int))


def _real_fft(h: np.ndarray, n: int) -> np.ndarray:
    """The ``n``-point FFT of the real ``h`` as SciPy's ``fft`` computes it:
    the real-input FFT, with the conjugate of each of its bins k written to
    bin (n - k) % n. The DC bin, and the Nyquist bin at even n, are their
    own mirror, so their imaginary zero turns to -0. NumPy's complex ``fft``
    of the same input rounds differently."""
    r = np.fft.rfft(h, n)
    out = np.empty(n, dtype=np.complex128)
    out[:r.size] = r
    out[-np.arange(r.size) % n] = np.conj(r)
    return out


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= ``n``: SciPy's ``next_fast_len(n, False)``."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


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


# the polyphase table while some caller holds it, under the key "tap_major"
_tables: weakref.WeakValueDictionary[str, np.ndarray] = weakref.WeakValueDictionary()
_tables_lock = threading.Lock()


def _tap_major_table() -> np.ndarray:
    """The polyphase table of `_build_tap_major_table`: the one that a caller
    still holds, or else a new one. The table is not kept for the process:
    it is freed once no caller holds it."""
    with _tables_lock:
        table = _tables.get("tap_major")
        if table is None:
            table = _tables["tap_major"] = _build_tap_major_table()
        return table


def _build_tap_major_table() -> np.ndarray:
    """The polyphase table, tap-major: row j holds tap j of every phase.

    Entry ``[j, p]`` is ``sinc(a) * w(a)`` at ``a = j - 39 - p / P`` for P
    phases, with ``w`` the Kaiser window. ``a`` at ``[79 - j, P - p]`` is
    exactly ``-a`` and the window depends only on the square of its
    argument, so the window is evaluated on the first half of the phases and
    mirrored into the rest. The table is allocated once: blocks of phase
    columns write the window into it, then multiply it in place by their
    sinc."""
    k = np.arange(_POLY_TAPS) - (_POLY_TAPS // 2 - 1)
    table = np.empty((_POLY_TAPS, _POLY_PHASES + 1))
    half = _POLY_PHASES // 2 + 1

    def arg(start: int, stop: int) -> np.ndarray:
        return k[:, None] - (np.arange(start, stop) / _POLY_PHASES)[None, :]

    def window(start: int, stop: int) -> None:
        table[:, start:stop] = _kaiser_at(arg(start, stop), _POLY_TAPS, _POLY_BETA)

    def sinc(start: int, stop: int) -> None:
        table[:, start:stop] *= np.sinc(arg(start, stop))

    run_blocks(window, half, width=_POLY_TAPS)
    # phase P - p, past the first half, is phase p with its taps reversed
    table[:, half:] = table[::-1, _POLY_PHASES - half::-1]
    run_blocks(sinc, _POLY_PHASES + 1, width=_POLY_TAPS)
    return table


def resample_arbitrary(x: np.ndarray, ratio: float, out_len: int) -> np.ndarray:
    """Evaluate band-limited interpolation of ``x`` at times n*ratio,
    n < ``out_len``, for a ``ratio`` above 0.

    Polyphase windowed-sinc table (80 taps) with nearest-phase lookup; the
    phase grid is dense enough that quantization stays below the filter's
    own passband error. Samples outside the input are treated as zero.
    Each output sums its 80 taps left to right, one tap over a whole block
    at a time, on separate real and imaginary planes. Each block builds its
    planes from the input under its own windows, about ``ratio`` times a
    block long, so no copy of the whole input is made.
    """
    table = _tap_major_table()
    x = np.asarray(x, dtype=np.complex128)
    taps = _POLY_TAPS
    half = taps // 2 - 1
    y = np.empty(out_len, dtype=np.complex128)
    yv = y.view(np.float64)

    def block(start: int, stop: int) -> None:
        t = np.arange(start, stop) * ratio
        base = np.floor(t).astype(np.int64)
        mu = t - base
        p0 = np.rint(mu * _POLY_PHASES).astype(np.int64)
        # window n reads x[base - half:base - half + taps], which is
        # xr[base - lo:base - lo + taps]; t increases, so the block's windows
        # lie in x[lo - half:base[-1] - half + taps], zeros outside the input
        lo = int(base[0])
        base -= lo
        xr = np.zeros(int(base[-1]) + taps)
        xi = np.zeros_like(xr)
        a, b = max(lo - half, 0), min(lo - half + xr.size, x.size)
        if b > a:
            xr[a + half - lo:b + half - lo] = x.real[a:b]
            xi[a + half - lo:b + half - lo] = x.imag[a:b]
        coeff = np.empty(stop - start)
        prod = np.empty(stop - start)
        acc_re = np.zeros(stop - start)
        acc_im = np.zeros(stop - start)
        for k in range(taps):
            np.take(table[k], p0, out=coeff, mode="clip")
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


# Cephes's Chebyshev coefficients of exp(-x) I0(x) on [0, 8]
_I0A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)


def _i0(x: float) -> float:
    """Modified Bessel function I0 at 0 <= x <= 8, with the bits of SciPy's
    ``special.i0``: Cephes's Chebyshev sum, times libm's ``exp``."""
    y = x / 2.0 - 2.0
    b0, b1, b2 = 0.0, 0.0, 0.0
    for c in _I0A:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return math.exp(x) * (0.5 * (b0 - b2))


def _halfband_fir() -> np.ndarray:
    """Window-method lowpass, cutoff at 1/4 of the doubled rate, 48 taps per
    the stage budget, unit gain at DC: SciPy's ``signal.firwin(48, 0.5,
    window=("kaiser", 7.0))``, with its bits."""
    alpha = (_STAGE_TAPS - 1) / 2.0
    n = np.arange(_STAGE_TAPS, dtype=np.float64)
    arg = _STAGE_BETA * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)
    window = np.array([_i0(a) for a in arg.tolist()]) / _i0(_STAGE_BETA)
    h = 0.5 * np.sinc(0.5 * (n - alpha)) * window
    return h / np.sum(h)


def _cubic_lagrange(up: np.ndarray, t: np.ndarray, lo: int, size: int) -> np.ndarray:
    """4-tap cubic Lagrange interpolation at fractional indices t of the
    samples u held in a padded array of ``size`` entries, which pads them
    with 2 zeros in front and 3 behind; ``up`` holds that array from index
    ``lo`` on."""
    base = np.floor(t).astype(np.int64)
    mu = t - base
    i = base + 2  # offset from the left zero pad
    np.clip(i, 1, size - 3, out=i)
    i -= lo
    xm1, x0, x1, x2 = up[i - 1], up[i], up[i + 1], up[i + 2]
    # c1 = -xm1/3 - x0/2 + x1 - x2/6, c3 = (x2 - xm1)/6 + (x0 - x1)/2,
    # c2 = (xm1 + x1)/2 - x0 and ((c3 mu + c2) mu + c1) mu + x0, each
    # operation in that order, in place, so that only two arrays are added
    c1 = np.negative(xm1)
    c1 /= 3.0
    tmp = np.multiply(0.5, x0)
    c1 -= tmp
    c1 += x1
    c1 -= np.divide(x2, 6.0, out=tmp)
    c3 = np.subtract(x2, xm1, out=x2)
    c3 /= 6.0
    c3 += np.multiply(np.subtract(x0, x1, out=tmp), 0.5, out=tmp)
    c2 = np.add(xm1, x1, out=xm1)
    c2 *= 0.5
    c2 -= x0
    for c in (c2, c1, x0):
        c3 *= mu
        c3 += c
    return c3


def _fir_span(taps: int, up: int, down: int, start: int, stop: int,
              n_in: int) -> tuple[int, int]:
    """The input slice ``[lo, hi)`` that outputs ``start:stop`` of
    ``upfirdn(h, x, up, down)`` depend on, for ``taps`` filter taps
    and ``n_in`` input samples.

    The slice is widened by one filter length and starts on a multiple of
    ``down``, so the local output grid and filter phases line up with the
    one-shot call: `_fir_range` on it sums the same products in the same
    order, and the bits are identical."""
    reach = -(-taps // up)  # input samples under the filter at each phase
    lo = max(start * down // up - reach + 1, 0)
    lo -= lo % down
    return lo, min((stop - 1) * down // up + 1, n_in)


def _fir_range(h: np.ndarray, xs: np.ndarray, lo: int, up: int, down: int,
               start: int, stop: int) -> np.ndarray:
    """Outputs ``start:stop`` of ``upfirdn(h, x, up, down)`` (SciPy's
    ``signal.upfirdn``: upsample by ``up``, filter, downsample by ``down``)
    from ``xs = x[lo:hi]``, the slice that `_fir_span` gives.

    Output k is the sum over i of ``x[k*down//up - i] * h[k*down % up + i*up]``.
    The outputs of one filter phase are summed one tap at a time, from the
    last tap to the first, into an accumulator that starts at +0, as
    upfirdn's loop does. Each tap reads a contiguous slice of the input, or
    of its even or odd samples when ``down`` is 2. A real tap scales the
    real and imaginary parts on their own; against upfirdn's complex product
    that changes at most the sign of a zero term, and a zero term leaves a
    sum that started at +0 as it is, so the bits are the same."""
    reach = -(-h.size // up)  # taps per phase
    taps = np.zeros(reach * up)
    taps[:h.size] = h
    # zeros around xs, in front a whole number of ``down`` samples so each
    # sample keeps the parity of its input index
    front = -(-reach // down) * down
    back = max((stop - 1) * down // up + 1 - lo - xs.size, 0)
    xp = np.zeros(front + xs.size + back, dtype=np.complex128)
    xp[front:front + xs.size] = xs
    planes = [np.ascontiguousarray(xp[p::down]).view(np.float64) for p in range(down)]
    out = np.empty(stop - start, dtype=np.complex128)
    for k0 in range(start, min(start + up, stop)):
        count = len(range(k0, stop, up))
        newest = k0 * down // up - lo + front  # index in xp of output k0's newest sample
        phase = k0 * down % up
        acc = np.zeros(2 * count)
        prod = np.empty_like(acc)
        for i in range(reach - 1, -1, -1):
            plane, at = planes[(newest - i) % down], (newest - i) // down
            np.multiply(plane[2 * at:2 * (at + count)], taps[phase + i * up], out=prod)
            acc += prod
        out[k0 - start::up] = acc.view(np.complex128)
    return out


def sfo_correction_chain(y: np.ndarray, delta_hat: float) -> np.ndarray:
    """Resample so that output m equals y evaluated at m/(1+delta_hat).

    Three stages: interpolate by 2 (48-tap Kaiser FIR), cubic polynomial
    arbitrary-ratio conversion, decimate by 2 (48-tap Kaiser FIR). All group
    delays are folded into the conversion instants, so the output is aligned
    with the input. Ratios below the estimator's numerical floor bypass the
    chain entirely.

    The stages are fused per output block: the block's decimator input is
    interpolated from the slice of interpolator output under its cubic
    stencils, which is filtered from the slice of ``y`` it depends on. Neither
    intermediate stream (2n samples each) exists whole, and every sample has
    the bits of the three one-shot stages.
    """
    y = np.asarray(y, dtype=np.complex128)
    if abs(delta_hat) < _BYPASS_THRESHOLD:
        return y.copy()
    h = _halfband_fir()
    h_up = 2.0 * h
    d = (_STAGE_TAPS - 1) / 2.0  # group delay of each stage at the 2x rate
    n_u = 2 * y.size + _STAGE_TAPS - 2  # interpolator outputs
    n_v = 2 * y.size + _STAGE_TAPS  # cubic-stage outputs
    size = n_u + 5  # the interpolator outputs between 2 leading and 3 trailing zeros
    z = np.empty(y.size, dtype=np.complex128)

    def block(start: int, stop: int) -> None:
        lo_v, hi_v = _fir_span(h.size, 1, 2, start, stop, n_v)
        # both FIR group delays (d at the 2x rate each) are pre-advanced
        # inside the SRC instants, so decimator output m equals y(m/(1+delta))
        t = (np.arange(lo_v, hi_v) + d) / (1.0 + delta_hat) + d
        # padded interpolator samples under the stencils (t is increasing)
        lo_u = min(max(int(np.floor(t[0])) + 2, 1), size - 3) - 1
        hi_u = min(max(int(np.floor(t[-1])) + 2, 1), size - 3) + 3
        up = np.zeros(hi_u - lo_u, dtype=np.complex128)
        j0, j1 = max(lo_u - 2, 0), min(hi_u - 2, n_u)  # interpolator output indices
        if j1 > j0:
            a, b = _fir_span(h_up.size, 2, 1, j0, j1, y.size)
            up[j0 + 2 - lo_u:j1 + 2 - lo_u] = _fir_range(h_up, y[a:b], a, 2, 1, j0, j1)
        v = _cubic_lagrange(up, t, lo_u, size)
        z[start:stop] = _fir_range(h, v, lo_v, 1, 2, start, stop)

    # each output is made from two samples at the doubled rate
    run_blocks(block, y.size, width=2)
    return z
