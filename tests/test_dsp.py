"""Resampling and fractional-delay primitives."""

import ast
import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy import signal
from scipy.signal import _signaltools

from bistatic_radcom import dsp
from bistatic_radcom.dsp import (
    fractional_delay,
    require_finite,
    resample_arbitrary,
    sfo_correction_chain,
)
from bistatic_radcom.params import ConfigError


def bandlimited(seed: int, n: int, occupancy: float) -> np.ndarray:
    """Unit-power complex signal occupying the given fraction of the band."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    half = max(int(occupancy * n / 2), 2)
    spec[1:half] = rng.normal(size=half - 1) + 1j * rng.normal(size=half - 1)
    spec[-half:] = rng.normal(size=half) + 1j * rng.normal(size=half)
    x = np.fft.ifft(spec)
    return x / np.sqrt(np.mean(np.abs(x) ** 2))


def test_require_finite_rejects_nan():
    with pytest.raises(ConfigError) as exc:
        require_finite(np.array([1.0, np.nan]))
    assert exc.value.violations == ["input contains non-finite samples"]


def test_integer_delay_is_exact_shift(monkeypatch):
    """A delay of a whole number of samples (path delay plus STO) is an
    exact shift, zeros before and after it: the channel's path stage copies
    the slice and never reaches `fractional_delay`."""
    from bistatic_radcom import channel
    from bistatic_radcom.channel import (
        ChannelScenario, ImpairmentSet, PropagationPath, apply_paths_and_cfo)

    def fractional(*_):
        raise AssertionError("whole-sample delay reached fractional_delay")

    monkeypatch.setattr(channel, "fractional_delay", fractional)
    fs = 1e9
    rng = np.random.default_rng(0)
    x = rng.normal(size=256) + 1j * rng.normal(size=256)
    for delay, sto in ((7.0, 0.0), (0.0, 3.0), (5.0, -2.0)):
        sc = ChannelScenario(
            paths=(PropagationPath(gain=1.0, delay_s=delay / fs, doppler_hz=0.0,
                                   is_main=True),),
            impairments=ImpairmentSet(sto_s=sto / fs))
        y = apply_paths_and_cfo(x, fs, sc)
        shift = int(delay + sto)
        assert y.size == 256 + int(np.ceil(delay + max(sto, 0.0))) + 64
        assert np.array_equal(y[shift:shift + 256], x)
        assert np.array_equal(y[:shift], np.zeros(shift))
        assert np.array_equal(y[shift + 256:], np.zeros(y.size - shift - 256))


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(0.05, 0.95),
       st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_fractional_delay_matches_spectral_oracle(seed, frac, n_int):
    """Windowed-sinc delay agrees with an exact frequency-domain shift."""
    n = 1024
    x = bandlimited(seed, n, 0.8)
    d = n_int + frac
    y = fractional_delay(x, d, n)
    k = np.fft.fftfreq(n)
    oracle = np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * k * d))
    m = slice(64, n - 64)  # skip transients at the edges
    err = np.sqrt(np.mean(np.abs(y[m] - oracle[m]) ** 2))
    assert err < 1e-3


def test_fractional_delay_accuracy_in_band():
    """-60 dB interpolation error over 90% of the band."""
    x = bandlimited(3, 4096, 0.9)
    d = 7.25
    y = fractional_delay(x, d, 4096)
    k = np.fft.fftfreq(4096)
    oracle = np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * k * d))
    m = slice(128, 4096 - 128)
    err = np.sqrt(np.mean(np.abs(y[m] - oracle[m]) ** 2))
    assert 20 * np.log10(err) < -60.0


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(-5e-5, 5e-5))
@settings(max_examples=100, deadline=None)
def test_resampler_composition_inverts(seed, delta):
    """Resampling by (1+delta) then 1/(1+delta) returns the input."""
    n = 8192
    x = bandlimited(seed, n, 0.8)
    y = resample_arbitrary(x, 1.0 + delta, n)
    z = resample_arbitrary(y, 1.0 / (1.0 + delta), n)
    m = slice(128, n - 128)
    err = np.sqrt(np.mean(np.abs(z[m] - x[m]) ** 2))
    assert err < 1e-4


def test_resampler_unit_ratio_near_identity():
    x = bandlimited(1, 4096, 0.9)
    y = resample_arbitrary(x, 1.0, 4096)
    m = slice(64, 4096 - 64)
    assert np.sqrt(np.mean(np.abs(y[m] - x[m]) ** 2)) < 1e-4


def test_resampler_matches_spectral_timebase():
    """Output sample m equals the input evaluated at m*ratio."""
    n = 4096
    x = bandlimited(9, n, 0.5)
    delta = 3e-4
    y = resample_arbitrary(x, 1.0 + delta, n - 8)
    k = np.fft.fftfreq(n)
    t = np.arange(n - 8) * (1.0 + delta)
    oracle = np.fft.ifft(np.fft.fft(x))  # x itself
    spec = np.fft.fft(x)
    # direct DFT evaluation at fractional instants
    exact = (spec[None, :] * np.exp(2j * np.pi * k[None, :] * t[:, None])).sum(axis=1) / n
    m = slice(64, n - 72)
    err = np.sqrt(np.mean(np.abs(y[m] - exact[m]) ** 2))
    assert err < 1e-4


def test_correction_chain_bypass_below_threshold():
    x = bandlimited(2, 2048, 0.9)
    z = sfo_correction_chain(x, 1e-12)
    assert np.array_equal(z, x)
    assert z is not x


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(1e-6, 5e-5) | st.floats(-5e-5, -1e-6))
@settings(max_examples=100, deadline=None)
def test_correction_chain_inverts_clock_scaling(seed, delta):
    """The receiver chain undoes a clock-ratio mismatch on in-band content.

    Narrow-band content only: the pinned multirate architecture attenuates
    the outermost band edges by design.
    """
    n = 8192
    x = bandlimited(seed, n, 0.4)
    y = resample_arbitrary(x, 1.0 + delta, n)
    z = sfo_correction_chain(y, delta)
    m = slice(256, n - 256)
    err = np.sqrt(np.mean(np.abs(z[m] - x[m]) ** 2))
    assert err < 2e-3


def test_correction_chain_output_length():
    x = bandlimited(5, 3000, 0.3)
    z = sfo_correction_chain(x, 2e-5)
    assert z.size == x.size


# ---------------------------------------------------------------------------
# block-parallel evaluation is bit-exact against the one-shot forms


@functools.lru_cache(maxsize=1)
def phase_major_table() -> np.ndarray:
    """The resampler's polyphase table, row p holding phase p, from its
    formula evaluated at every entry."""
    k = np.arange(dsp._POLY_TAPS) - (dsp._POLY_TAPS // 2 - 1)
    arg = k[None, :] - np.arange(dsp._POLY_PHASES + 1)[:, None] / dsp._POLY_PHASES
    return np.sinc(arg) * dsp._kaiser_at(arg, dsp._POLY_TAPS, dsp._POLY_BETA)


def resample_gather_oracle(x, ratio, out_len):
    """The resampler as one 2-D window gather and a row-wise einsum."""
    taps, phases = dsp._POLY_TAPS, dsp._POLY_PHASES
    half = taps // 2 - 1
    xp = np.concatenate([np.zeros(half, dtype=np.complex128), x,
                         np.zeros(taps, dtype=np.complex128)])
    t = np.arange(out_len) * ratio
    base = np.floor(t).astype(np.int64)
    mu = t - base
    p0 = np.rint(mu * phases).astype(np.int64)
    idx = base[:, None] + np.arange(taps)[None, :]
    np.clip(idx, 0, xp.size - 1, out=idx)
    return np.einsum("ij,ij->i", phase_major_table()[p0], xp[idx])


def cubic_lagrange_oracle(up, t):
    """The cubic stage as whole-array expressions, on the padded interpolator
    output ``up``."""
    base = np.floor(t).astype(np.int64)
    mu = t - base
    i = np.clip(base + 2, 1, up.size - 3)
    xm1, x0, x1, x2 = up[i - 1], up[i], up[i + 1], up[i + 2]
    c1 = -xm1 / 3.0 - 0.5 * x0 + x1 - x2 / 6.0
    c2 = 0.5 * (xm1 + x1) - x0
    c3 = (x2 - xm1) / 6.0 + 0.5 * (x0 - x1)
    return ((c3 * mu + c2) * mu + c1) * mu + x0


def chain_one_shot_oracle(y, delta_hat):
    """The correction chain with each of its three stages evaluated in one
    call, the cubic one as whole-array expressions."""
    h = dsp._halfband_fir()
    d = (dsp._STAGE_TAPS - 1) / 2.0
    u = signal.upfirdn(2.0 * h, y, up=2)
    up = np.concatenate([np.zeros(2, dtype=u.dtype), u, np.zeros(3, dtype=u.dtype)])
    k = np.arange(2 * y.size + dsp._STAGE_TAPS)
    v = cubic_lagrange_oracle(up, (k + d) / (1.0 + delta_hat) + d)
    return signal.upfirdn(h, v, up=1, down=2)[:y.size]


def delay_fftconvolve_oracle(x, delay_samples, out_len):
    """The fractional delay as one ``fftconvolve`` with the 63-tap
    windowed-sinc."""
    ntaps = dsp._FRAC_DELAY_TAPS
    center = (ntaps - 1) // 2
    n_int = int(np.floor(delay_samples))
    arg = np.arange(ntaps) - center - (delay_samples - n_int)
    h = np.sinc(arg) * dsp._kaiser_at(arg, ntaps, dsp._FRAC_DELAY_BETA)
    y = signal.fftconvolve(x, h, mode="full")
    # out[n] = y[n + center - n_int], zero where that index leaves y
    idx = np.arange(out_len) + center - n_int
    inside = (idx >= 0) & (idx < y.size)
    out = np.zeros(out_len, dtype=np.complex128)
    out[inside] = y[idx[inside]]
    return out


def same_bits(a, b) -> bool:
    """Equal values, signs of zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def blocked(fn, block, workers):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", block)
        mp.setattr(dsp, "_workers", lambda: workers)
        return fn()


def test_run_blocks_reads_block_size_per_call():
    """The block size is read when `run_blocks` is called, so the block-edge
    tests that patch ``_BLOCK`` do cut their inputs into blocks. A block
    holds ``_BLOCK // width`` items of ``width`` elements, the last block
    ragged, and one item where an item holds more than ``_BLOCK`` elements;
    no items make no block. The edges are the same on any number of
    threads."""
    def spans(n=1000, width=1):
        seen = []
        dsp.run_blocks(lambda a, b: seen.append((a, b)), n, width=width)
        return sorted(seen)

    assert spans() == [(0, 1000)]
    n = dsp._BLOCK + 5
    assert spans(n) == [(0, dsp._BLOCK), (dsp._BLOCK, n)]
    for workers in (1, 3):
        assert blocked(spans, 300, workers) == [(0, 300), (300, 600), (600, 900),
                                                (900, 1000)]
        assert blocked(lambda: spans(width=2), 1000, workers) == [(0, 500), (500, 1000)]
        assert blocked(lambda: spans(10, 3), 10, workers) == [(0, 3), (3, 6), (6, 9),
                                                              (9, 10)]
        assert blocked(lambda: spans(9, 4), 10, workers) == [(0, 2), (2, 4), (4, 6),
                                                             (6, 8), (8, 9)]
        assert blocked(lambda: spans(3, 11), 10, workers) == [(0, 1), (1, 2), (2, 3)]
        assert blocked(lambda: spans(0, 3), 10, workers) == []


def test_run_blocks_is_given_item_widths_only():
    """`run_blocks` is the one place that sizes a block: every call in the
    package passes the block function, the item count and at most the
    ``width`` of one item, by keyword, and no block count of its own."""
    src = Path(__file__).resolve().parent.parent / "src" / "bistatic_radcom"
    block_count = re.compile(r"block|_(ROWS|COLUMNS|CELLS|STEPS|PHASES)$", re.IGNORECASE)
    calls, offenders = 0, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and "run_blocks" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            calls += 1
            names = {getattr(n, "id", None) or getattr(n, "attr", "")
                     for kw in node.keywords for n in ast.walk(kw.value)}
            if (len(node.args) != 2 or any(kw.arg != "width" for kw in node.keywords)
                    or any(block_count.search(name) for name in names if name)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert calls > 10
    assert offenders == []


def complex_noise(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(-1e-3, 1e-3),
       st.booleans(),
       st.integers(16, 160),
       st.integers(1, 4),
       st.integers(-2, 2),
       st.integers(-40, 120))
@settings(max_examples=100, deadline=None)
def test_blocked_resampler_matches_gather_oracle(seed, delta, inverse, block,
                                                 n_blocks, edge, past_end):
    """Ratio 1 +- 1e-3 (or its inverse), output lengths on either side of a
    block edge and past the end of the input, 1 or 3 threads: the blocked
    resampler returns the oracle's bits."""
    ratio = 1.0 / (1.0 + delta) if inverse else 1.0 + delta
    out_len = max(n_blocks * block + edge, 0)
    x = complex_noise(seed, max(out_len - past_end, 1))
    want = resample_gather_oracle(x, ratio, out_len)
    for workers in (1, 3):
        got = blocked(lambda: resample_arbitrary(x, ratio, out_len), block, workers)
        assert same_bits(got, want)


def resample_whole_planes_oracle(x, ratio, out_len):
    """The resampler's tap loop over the whole output at once, reading
    zero-padded real and imaginary copies of the whole input."""
    table = dsp._tap_major_table()
    taps = dsp._POLY_TAPS
    half = taps // 2 - 1
    xr = np.zeros(half + x.size + 2 * taps)
    xi = np.zeros_like(xr)
    xr[half:half + x.size] = x.real
    xi[half:half + x.size] = x.imag
    t = np.arange(out_len) * ratio
    base = np.floor(t).astype(np.int64)
    p0 = np.rint((t - base) * dsp._POLY_PHASES).astype(np.int64)
    acc_re, acc_im = np.zeros(out_len), np.zeros(out_len)
    for k in range(taps):
        coeff = np.take(table[k], p0, mode="clip")
        acc_re += np.take(xr[k:], base, mode="clip") * coeff
        acc_im += np.take(xi[k:], base, mode="clip") * coeff
    y = np.empty(out_len, dtype=np.complex128)
    y.real, y.imag = acc_re, acc_im
    return y


@pytest.mark.parametrize("ratio", [1 - 3e-3, 1 - 2e-5, 1 + 2e-5, 1 + 3e-3, 0.5, 1.7])
@pytest.mark.parametrize("block", [16, 37])
def test_blocked_resampler_planes_match_whole_planes(ratio, block):
    """Each block's planes, cut from its own input window, give the bits of
    planes copied from the whole input: output lengths below the input
    length and far enough above it that the last windows, and whole blocks,
    lie past the end of the input; every first window starts before it."""
    n = 300
    x = complex_noise(7, n)
    for out_len in (n // 2 + 3, n - 1, int(n / ratio) + 3 * block + 5):
        want = resample_whole_planes_oracle(x, ratio, out_len)
        for workers in (1, 3):
            got = blocked(lambda: resample_arbitrary(x, ratio, out_len), block, workers)
            assert same_bits(got, want)


def test_resampler_default_block_edge_matches_gather_oracle():
    n = dsp._BLOCK + 300
    x = complex_noise(4, n - 100)
    want = resample_gather_oracle(x, 1.0 + 2.5e-4, n)
    for workers in (1, 2):
        got = blocked(lambda: resample_arbitrary(x, 1.0 + 2.5e-4, n),
                      dsp._BLOCK, workers)
        assert same_bits(got, want)


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(1e-6, 1e-3) | st.floats(-1e-3, -1e-6),
       st.integers(1, 400),
       st.integers(16, 160))
@settings(max_examples=100, deadline=None)
def test_blocked_cubic_stage_matches_one_shot(seed, delta, n, block):
    """The correction chain's cubic stage, evaluated in place block by block
    on 1 or 3 threads, returns the bits of its whole-array expressions."""
    y = complex_noise(seed, n)
    want = chain_one_shot_oracle(y, delta)
    for workers in (1, 3):
        got = blocked(lambda: sfo_correction_chain(y, delta), block, workers)
        assert same_bits(got, want)


@given(st.integers(0, 2 ** 32 - 1),
       st.integers(1, 62) | st.integers(63, 3000),
       st.floats(-70.0, 70.0),
       st.integers(-120, 120))
@settings(max_examples=100, deadline=None)
def test_fractional_delay_matches_fftconvolve_oracle(seed, n, delay, len_offset):
    """Overlap-add filtering agrees with one ``fftconvolve`` to 1e-12, for
    inputs shorter than the filter and spanning many overlap-add blocks,
    output lengths shorter and longer than the filtered input; the batched
    FFTs give the same bits on 1 and 3 threads."""
    x = complex_noise(seed, n)
    out_len = max(n + max(int(np.floor(delay)), 0) + 32 + len_offset, 0)
    want = delay_fftconvolve_oracle(x, delay, out_len)
    got = [blocked(lambda: fractional_delay(x, delay, out_len), dsp._BLOCK, workers)
           for workers in (1, 3)]
    assert got[0].shape == want.shape
    assert np.max(np.abs(got[0] - want), initial=0.0) <= 1e-12
    assert same_bits(got[0], got[1])


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(2, 1), (1, 2)]),
       st.integers(1, 700),
       st.integers(16, 160),
       st.integers(-60, 0),
       st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_blocked_fir_stage_matches_one_shot_upfirdn(seed, rates, n, block, trim,
                                                    zero_at, zero_len):
    """Both FIR stages of the correction chain (x2 interpolator, /2
    decimator), filtered block by block on 1 or 3 threads, return the bits of
    one ``signal.upfirdn`` call over odd and even lengths, up to its last
    sample or cut short of it. A run of the input is zeroed, so products of
    either sign of zero enter the sums."""
    up, down = rates
    h = dsp._halfband_fir() * up
    x = complex_noise(seed, n)
    lo = int(zero_at * n)
    x[lo:lo + int(zero_len * (n - lo))] = 0.0
    want = signal.upfirdn(h, x, up=up, down=down)
    want = want[:max(want.size + trim, 1)]

    def fir_blocks():
        out = np.empty_like(want)

        def one(start, stop):
            lo, hi = dsp._fir_span(h.size, up, down, start, stop, x.size)
            out[start:stop] = dsp._fir_range(h, x[lo:hi], lo, up, down, start, stop)

        dsp.run_blocks(one, out.size)
        return out

    for workers in (1, 3):
        assert same_bits(blocked(fir_blocks, block, workers), want)


def fractional_delay_one_shot(x, delay_samples, out_len):
    """The fractional delay as one ``oaconvolve`` over the whole input."""
    ntaps = dsp._FRAC_DELAY_TAPS
    center = (ntaps - 1) // 2
    n_int = int(np.floor(delay_samples))
    arg = np.arange(ntaps) - center - (delay_samples - n_int)
    h = np.sinc(arg) * dsp._kaiser_at(arg, ntaps, dsp._FRAC_DELAY_BETA)
    y = signal.oaconvolve(x, h, mode="full")
    out = np.zeros(out_len, dtype=np.complex128)
    shift = n_int - center
    n_lo, n_hi = max(0, shift), min(out_len, y.size + shift)
    out[n_lo:n_hi] = y[n_lo - shift:n_hi - shift]
    return out


def test_overlap_add_chunk_is_a_whole_number_of_oaconvolve_steps():
    """The package's own FFT block and block step must be the ones one
    whole-stream ``oaconvolve`` uses at every length above one block; this
    fails if SciPy changes its block sizes for 63 taps."""
    for n in (491, 1000, 27_392, 10 ** 6, 2 ** 24):
        block, _, step, _ = _signaltools._calc_oa_lens(n, dsp._FRAC_DELAY_TAPS)
        assert (block, step) == (490, 428), n
    assert (dsp._OA_FFT, dsp._OA_STEP) == (490, 428)


def test_halfband_fir_has_firwin_bits():
    assert same_bits(dsp._halfband_fir(),
                     signal.firwin(dsp._STAGE_TAPS, 0.5, window=("kaiser", dsp._STAGE_BETA)))


@pytest.mark.parametrize("lengths", [
    range(12, 1201), [428 * 64, 428 * 128 - 1, 428 * 3, 428 * 3 + 61]])
def test_oaconvolve_has_scipy_bits(lengths):
    """The fractional delay has the bits of one whole-stream
    ``signal.oaconvolve`` on every input length from 12 samples up through
    the one-FFT case (at or below 490 samples) and the blocked case, with
    the whole convolution and the zeros past its end in the output."""
    delay = 31.3  # the filter centre: out[m] is the convolution's y[m]
    for n in lengths:
        x = complex_noise(n, n)
        out_len = n + 200
        assert same_bits(fractional_delay(x, delay, out_len),
                         fractional_delay_one_shot(x, delay, out_len)), n


def test_real_fft_has_scipy_bits():
    """The FFT of a real filter has the bits of ``scipy.fft.fft`` at every
    length from 1 to 1200 (odd and even lengths mirror different halves),
    for filters of 1 tap, 63 taps, half the length and the whole length."""
    rng = np.random.default_rng(0)
    for n in range(1, 1201):
        for taps in sorted({1, min(63, n), (n + 1) // 2, n}):
            h = rng.normal(size=taps)
            assert same_bits(dsp._real_fft(h, n), scipy.fft.fft(h, n)), (n, taps)


def test_next_fast_len_matches_scipy():
    for n in range(1, 10_001):
        assert dsp._next_fast_len(n) == scipy.fft.next_fast_len(n, False), n


def test_i0_has_scipy_bits_at_the_halfband_window():
    """The 48 window arguments of the half-band filter and its beta."""
    alpha = (dsp._STAGE_TAPS - 1) / 2.0
    n = np.arange(dsp._STAGE_TAPS, dtype=np.float64)
    args = dsp._STAGE_BETA * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)
    for x in [*args.tolist(), dsp._STAGE_BETA]:
        assert same_bits(np.float64(dsp._i0(x)), scipy.special.i0(x)), x


@given(st.floats(0.0, 8.0))
@settings(max_examples=2000, deadline=None)
def test_i0_has_scipy_bits(x):
    assert same_bits(np.float64(dsp._i0(x)), scipy.special.i0(x))


def test_polyphase_table_matches_whole_table_formula():
    """The tap-major table built in place on blocks of 1, 7 (the last one
    ragged), 1000 or all phases, on 1 or 3 threads, its window mirrored from
    the first half of the phases, equals the formula at every entry."""
    want = np.ascontiguousarray(phase_major_table().T)
    for phases in (1, 7, 1000, 1 << 16):
        for workers in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dsp, "_BLOCK", phases * dsp._POLY_TAPS)
                mp.setattr(dsp, "_workers", lambda: workers)
                table = dsp._build_tap_major_table()
            assert table.flags.c_contiguous
            assert same_bits(table, want), (phases, workers)


def test_polyphase_table_lives_while_held(monkeypatch):
    """While a caller holds the table, every call returns that one object;
    once none does, a resampler call builds its own table and frees it when
    it returns. A rebuilt table has the bits of the held one."""
    held = dsp._tap_major_table()
    assert dsp._tap_major_table() is held
    monkeypatch.setattr(dsp, "_tables", type(dsp._tables)())  # no holder
    built, build_table = [], dsp._build_tap_major_table

    def build():
        table = build_table()
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(dsp, "_build_tap_major_table", build)
    x = complex_noise(5, 1000)
    y = resample_arbitrary(x, 1.0 + 1e-4, x.size)
    assert len(built) == 1 and built[0]() is None
    assert same_bits(y, resample_arbitrary(x, 1.0 + 1e-4, x.size))
    assert len(built) == 2 and built[1]() is None
    rebuilt = dsp._tap_major_table()
    assert len(built) == 3 and rebuilt is not held and same_bits(rebuilt, held)
    assert dsp._tap_major_table() is rebuilt and len(built) == 3


def test_correction_chain_memory(monkeypatch):
    """On 2.66 M samples and 2 threads, the fused chain allocates less than
    16 MB besides its output. Its blocks are counted in samples at the
    doubled rate, where each output is made from two of them; counted in
    output samples, they held 22 MB. tracemalloc counts NumPy's buffers
    whatever the allocator keeps resident, so the figure repeats run to
    run."""
    y = complex_noise(11, 2_660_000)
    monkeypatch.setattr(dsp, "_workers", lambda: 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        z = sfo_correction_chain(y, 2e-5)
        peak = tracemalloc.get_traced_memory()[1] - before - z.nbytes
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def test_package_does_not_import_scipy(tmp_path):
    """The command line loads, and runs the demo scenario, without importing
    any part of SciPy, whose import would be most of the start-up time."""
    demo = Path(__file__).resolve().parent.parent / "scenarios" / "clock_drift_demo.json"
    code = ("import sys\n"
            "from bistatic_radcom import cli\n"
            "assert cli.main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code, str(demo), str(tmp_path / "out")],
                   env=_child_env(), check=True, timeout=300)


def test_package_runs_without_scipy_installed(tmp_path):
    """With every SciPy import made to fail, the demo's run (writing its
    rx.iq) and a known capture of that rx.iq exit 0 and write the same bytes
    as the same calls made here."""
    from bistatic_radcom.cli import main

    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                      / "clock_drift_demo.json").read_text())
    doc["outputs"]["write_iq"] = True
    scn = tmp_path / "demo.json"
    scn.write_text(json.dumps(doc))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from bistatic_radcom import cli\n"
            "scn, out = sys.argv[1], sys.argv[2]\n"
            "assert cli.main(['run', scn, '--out', out + '/run']) == 0\n"
            "assert cli.main(['capture', out + '/run/rx.iq', scn, '--out', out + '/cap']) == 0\n")
    subprocess.run([sys.executable, "-c", code, str(scn), str(tmp_path / "bare")],
                   env=_child_env(), check=True, timeout=300)
    here = tmp_path / "here"
    assert main(["run", str(scn), "--out", str(here / "run")]) == 0
    assert main(["capture", str(here / "run" / "rx.iq"), str(scn),
                 "--out", str(here / "cap")]) == 0
    files = sorted(f.relative_to(here) for f in here.rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(tmp_path / "bare")
                           for f in (tmp_path / "bare").rglob("*") if f.is_file())
    assert Path("run", "rx.iq") in files and Path("cap", "comm_metrics.json") in files
    for f in files:
        assert (here / f).read_bytes() == (tmp_path / "bare" / f).read_bytes(), f


@pytest.mark.parametrize("chunk", [428, 428 * 2, 428 * 3, 428 * 64])
@pytest.mark.parametrize("n, delay, len_offset", [
    (428 * 5, 3.4, 0), (428 * 5 + 17, 0.25, 40), (428 * 7 + 300, 70.75, -100),
    (800, 12.5, 0), (428 * 2 + 1, -20.6, 5), (428 * 64 * 2 + 999, 5007.25, 0)])
def test_chunked_fractional_delay_matches_one_shot(chunk, n, delay, len_offset):
    """Overlap-add in blocks of ``chunk`` input samples (1, 2, 3 or 64
    steps), one block or many, output cut short or extended, on 1 or 3
    threads, returns the bits of one whole-stream ``oaconvolve``."""
    x = complex_noise(n, n)
    out_len = n + max(int(np.floor(delay)), 0) + 32 + len_offset
    want = fractional_delay_one_shot(x, delay, out_len)
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsp, "_BLOCK", chunk // dsp._OA_STEP * dsp._OA_FFT)
            mp.setattr(dsp, "_workers", lambda: workers)
            got = fractional_delay(x, delay, out_len)
        assert same_bits(got, want)


@pytest.mark.parametrize("n, delay", [
    (428 * 9 + 17, 3.4), (428 * 9 + 17, 1234.75), (428 * 3, 0.5), (491, 70.25),
    (300, 12.5), (428 * 6 + 5, -20.6), (428 * 6 + 5, -700.3)])
def test_fractional_delay_span_on_its_own(n, delay):
    """Every span of a fractional delay, at any place (before the delayed
    input, across it, past its end), made from the input from the step that
    `fractional_delay_origin` names with the delay less its whole samples,
    has the bits of the whole call; a span it calls all zero is."""
    x = complex_noise(n, n)
    out_len = n + max(int(np.ceil(delay)), 0) + 500
    whole = fractional_delay(x, delay, out_len)
    rng = np.random.default_rng(n)
    edges = np.unique(np.concatenate([[0, 1, out_len - 1, out_len],
                                      rng.integers(0, out_len + 1, 40)]))
    for start, stop in zip(edges[:-1], edges[1:]):
        origin = dsp.fractional_delay_origin(n, delay, start, stop)
        if origin is None:
            assert not whole[start:stop].any(), (start, stop)
            continue
        k, d = origin
        got = fractional_delay(x[k:], delay - d, stop - k - d)[start - k - d:]
        assert same_bits(got, whole[start:stop]), (start, stop)
        assert start - k - d < 3 * dsp._OA_STEP  # little output before the span


@pytest.mark.parametrize("block", [100, 128, 1000, 1 << 15])
def test_pairwise_sum_has_numpy_bits(block):
    """The pairwise sum followed from the top, each part summed once it fits
    in a block, has the bits of ``np.sum`` and, divided by the count, of
    ``np.mean``: at lengths on either side of the multiples of 8 that NumPy
    splits at, of its 128-value unrolled loop and of the block size. The
    values span many magnitudes, so the order of the additions shows."""
    rng = np.random.default_rng(block)
    lengths = {0, 1, 7, 8, 9, 127, 128, 129, 130, 255, 256, 257, 263, 1000, 1001,
               1015, 1016, 1017, 1031, block - 1, block, block + 1, 2 * block + 7,
               8 * block + 3, 100_003}
    for n in sorted(lengths):
        a = rng.lognormal(0.0, 4.0, n)
        got = blocked(lambda: dsp.pairwise_sum(lambda s, e: a[s:e].copy(), n), block, 1)
        assert np.float64(got).view(np.uint64) == np.sum(a).view(np.uint64), n
        if n:
            assert np.float64(got / n).view(np.uint64) == np.mean(a).view(np.uint64), n


@pytest.mark.parametrize("delta", [2e-5, -3e-4, 7e-7, 5e-9])
def test_fused_chain_matches_three_stages(delta):
    """On 150 k samples, default and short blocks, the fused correction chain
    returns the bits of its three stages each run over the whole stream; a
    ratio below the bypass threshold returns a copy of the input."""
    y = complex_noise(7, 150_001)
    if abs(delta) < dsp._BYPASS_THRESHOLD:
        want = y
    else:
        want = chain_one_shot_oracle(y, delta)
    for block, workers in ((dsp._BLOCK, 2), (1000, 3)):
        got = blocked(lambda: sfo_correction_chain(y, delta), block, workers)
        assert got is not y
        assert same_bits(got, want)
