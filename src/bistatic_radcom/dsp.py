"""Fractional-delay and resampling primitives shared by channel and receiver.

Two distinct resamplers live here on purpose: the channel-side impairment
(`resample_arbitrary`, a Farrow structure on an 80-tap windowed sinc) and the
receiver-side correction chain (`sfo_correction_chain`, FIR interpolate-by-2,
cubic polynomial rate conversion, FIR decimate-by-2). Keeping them different
avoids testing an implementation against itself.

Every blocked pass of the package runs on `run_blocks`, which spreads
fixed blocks over a thread per usable CPU and is the one place that sizes
them: a block holds about ``_BLOCK`` elements, as many whole items (samples,
grid rows or columns, FFT steps) as fit, and at least one. The threads
overlap because NumPy releases the interpreter lock in its FFTs, ``take``
and ufuncs. Every block writes its own slice of a preallocated output, or
its own partial sums (`block_sums`), and the block edges do not depend on
the thread count, so the result is bit-for-bit the same on any number of
cores.

The correction chain is fused: each output block filters, from the slice of
the input it depends on, only the interpolator outputs under its cubic
stencils, converts them to the decimator input it needs and decimates that.
Each FIR slice overlaps its neighbours by the filter length and starts on
the one-shot call's filter phase (`_fir_span`), so every sample has the bits
of the three stages run one after the other over the whole stream, while
neither 2n-sample intermediate stream exists.

The channel resampler makes each of its 80 taps a degree-6 polynomial in
the fractional delay (Farrow, ISCAS 1988; Vesma & Saramaki, ISCAS 1996).
The 7 branch filters run by overlap-save FFTs on a fixed grid of input
steps, and each output sums the branches at its base index in Horner form.
`fractional_delay` filters by overlap-add, one block of steps at a time.
In both, a step depends only on its own input (and, in the overlap-add, on
the step before), so an output has the bits of one whole-stream call, and
a span of a fractional delay can be made on its own
(`fractional_delay_origin`).

The package imports no SciPy and calls no BLAS: every transform runs on
``numpy.fft``. The tests hold the FIR stages, their filter and the
fractional delay to SciPy's ``signal.upfirdn``, ``signal.firwin`` and
``signal.oaconvolve`` within rounding.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

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


def block_sums(part: Callable[[int, int], Sequence[float]], n: int,
               count: int) -> np.ndarray:
    """``count`` sums over ``range(n)``: ``part(start, stop)`` gives the
    ``count`` partial sums of one `run_blocks` block, and the partials of
    the blocks are added in block order. The blocks are fixed, so the sums
    have the same bits on any number of threads."""
    size = block_items()
    partials = np.zeros((-(-n // size), count))

    def block(start: int, stop: int) -> None:
        partials[start // size] = part(start, stop)

    run_blocks(block, n)
    sums = np.zeros(count)
    for p in partials:
        sums += p
    return sums


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
# the overlap-add's FFT size, one for every input length, and its input step
_OA_FFT = 512
_OA_STEP = _OA_FFT - _FRAC_DELAY_TAPS + 1


def fractional_delay(x: np.ndarray, delay_samples: float, out_len: int) -> np.ndarray:
    """The first ``out_len`` samples of ``x`` delayed by a fractional number
    of samples.

    Windowed-sinc interpolation, 63 taps, Kaiser beta=8; the filter group
    delay is compensated so output index n corresponds to x(n - delay). The
    filter runs by overlap-add: each ``_OA_STEP``-sample step of the input
    is convolved by one ``_OA_FFT``-point FFT, and its last 62 outputs are
    added to the next step's first.
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
    hf = np.fft.fft(h, _OA_FFT)
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
    ``start``, whose tail that step adds. ``d``, a whole number of samples
    from 0 to the delay's integer part, drops the output before ``start``;
    subtracting it leaves the delay's fraction, and so the filter, exact."""
    n_int = int(np.floor(delay_samples))
    m = start - (n_int - (_FRAC_DELAY_TAPS - 1) // 2)  # filter output index of ``start``
    if m >= n + _FRAC_DELAY_TAPS - 1 or m + stop - start <= 0:
        return None
    k = max(0, min(m // _OA_STEP - 1, start // _OA_STEP)) * _OA_STEP
    return k, max(0, min(start - k, n_int))


def _kaiser_at(t: np.ndarray, ntaps: int, beta: float) -> np.ndarray:
    """Kaiser window evaluated at (possibly fractional) tap offsets ``t``
    from the filter center, for a length-``ntaps`` design."""
    half = (ntaps - 1) / 2.0
    r = np.clip(t / half, -1.0, 1.0)
    return np.i0(beta * np.sqrt(1.0 - r * r)) / np.i0(beta)


# ---------------------------------------------------------------------------
# arbitrary-ratio Farrow resampler (channel-side SFO impairment)

_POLY_TAPS = 80
_POLY_BETA = 9.5  # ~95 dB Kaiser design; passband flat to ~0.46 Fs
_FARROW_DEGREE = 6  # of each tap's polynomial in the fractional delay
_FARROW_FFT = 4096  # the branch filters' overlap-save FFT
_FARROW_STEP = _FARROW_FFT - _POLY_TAPS + 1  # base indices per overlap-save step


def _farrow_branches() -> np.ndarray:
    """The branch filters: row m holds the coefficient of ``mu**m`` in each
    tap, whose value at fractional delay ``mu`` in [0, 1) is ``sinc(a) *
    w(a)`` at ``a = j - 39 - mu`` for tap j, ``w`` the Kaiser window.

    Each tap is interpolated at 7 Chebyshev nodes of [0, 1] by Newton's
    divided differences, and the Newton form is expanded to monomials, all
    elementwise over the taps."""
    deg = _FARROW_DEGREE
    nodes = 0.5 - 0.5 * np.cos((2 * np.arange(deg + 1) + 1) * np.pi / (2 * deg + 2))
    a = (np.arange(_POLY_TAPS) - (_POLY_TAPS // 2 - 1))[None, :] - nodes[:, None]
    d = np.sinc(a) * _kaiser_at(a, _POLY_TAPS, _POLY_BETA)
    for j in range(1, deg + 1):  # row i becomes the difference over nodes i-j..i
        d[j:] = (d[j:] - d[j - 1:-1]) / (nodes[j:] - nodes[:-j])[:, None]
    # d[0] + (mu - nodes[0]) (d[1] + (mu - nodes[1]) (...)), innermost first
    c = np.zeros_like(d)
    c[0] = d[deg]
    for j in range(deg - 1, -1, -1):
        c[1:] = c[:-1] - nodes[j] * c[1:]
        c[0] = d[j] - nodes[j] * c[0]
    return c


def resample_arbitrary(x: np.ndarray, ratio: float, out_len: int) -> np.ndarray:
    """Evaluate band-limited interpolation of ``x`` at times n*ratio,
    n < ``out_len``, for a ``ratio`` above 0.

    An 80-tap windowed sinc (Kaiser, beta 9.5) whose taps are polynomials of
    degree 6 in the fractional delay ``mu`` (`_farrow_branches`): on white
    noise the output is within -97 dB of the exact kernel's. Samples outside
    the input are treated as zero. Each branch correlates the input with its
    taps by overlap-save FFTs, one ``_FARROW_FFT``-point step at a time on a
    fixed grid of base indices; an output sums the branches at its base
    index in Horner form in ``mu``. So an output's bits depend only on the
    input and its own index, and no stream-sized intermediate exists.
    """
    x = np.asarray(x, dtype=np.complex128)
    half = _POLY_TAPS // 2 - 1
    deg = _FARROW_DEGREE
    # the correlation with each branch's taps, as a product of spectra
    spectra = np.conj(np.fft.fft(_farrow_branches(), _FARROW_FFT, axis=1))
    y = np.zeros(out_len, dtype=np.complex128)
    # an output reads x[base - half:base - half + taps], zeros only from here
    end = x.size + half
    last = min(int(np.floor((out_len - 1) * ratio)), end - 1) if out_len else -1

    def block(start: int, stop: int) -> None:
        for s in range(start, stop):
            b0 = s * _FARROW_STEP
            b1 = min(b0 + _FARROW_STEP, end)
            # the outputs whose base lies in [b0, b1): a run, t increases
            n0 = max(int(b0 / ratio) - 2, 0)
            t = np.arange(n0, min(int(np.ceil(b1 / ratio)) + 2, out_len)) * ratio
            base = np.floor(t)
            i0, i1 = np.searchsorted(base, (b0, b1))
            if i1 <= i0:
                continue
            mu = t[i0:i1] - base[i0:i1]
            idx = base[i0:i1].astype(np.int64) - b0
            seg = np.zeros(_FARROW_FFT, dtype=np.complex128)
            lo, hi = max(b0 - half, 0), min(b0 - half + _FARROW_FFT, x.size)
            if hi > lo:
                seg[lo - b0 + half:hi - b0 + half] = x[lo:hi]
            v = np.fft.ifft(np.fft.fft(seg) * spectra, axis=1)
            acc = v[deg, idx]
            for m in range(deg - 1, -1, -1):
                acc *= mu
                acc += v[m, idx]
            y[n0 + i0:n0 + i1] = acc

    run_blocks(block, last // _FARROW_STEP + 1, width=_FARROW_FFT)
    return y


# ---------------------------------------------------------------------------
# receiver-side SFO correction chain: FIR x2 -> cubic SRC -> FIR /2

_STAGE_TAPS = 48
_STAGE_BETA = 7.0
_BYPASS_THRESHOLD = 1e-8


def _halfband_fir() -> np.ndarray:
    """Window-method lowpass, cutoff at 1/4 of the doubled rate, 48 taps per
    the stage budget, unit gain at DC: SciPy's ``signal.firwin(48, 0.5,
    window=("kaiser", 7.0))``."""
    t = np.arange(_STAGE_TAPS) - (_STAGE_TAPS - 1) / 2.0
    h = 0.5 * np.sinc(0.5 * t) * _kaiser_at(t, _STAGE_TAPS, _STAGE_BETA)
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
