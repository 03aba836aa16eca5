"""Resampling and fractional-delay primitives."""

import ast
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal, special

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
    the slice and never reaches `fractional_delay`. That holds within
    rounding too: at 1 GHz a 12 ns path behind a 700-sample STO comes to
    711.9999999999999 samples."""
    from bistatic_radcom import channel
    from bistatic_radcom.channel import (
        ChannelScenario, ImpairmentSet, PropagationPath, apply_paths_and_cfo)

    def fractional(*_):
        raise AssertionError("whole-sample delay reached fractional_delay")

    monkeypatch.setattr(channel, "fractional_delay", fractional)
    fs = 1e9
    rng = np.random.default_rng(0)
    x = rng.normal(size=256) + 1j * rng.normal(size=256)
    assert (12e-9 + 700 / fs) * fs != 712.0
    for delay, sto in ((7.0, 0.0), (0.0, 3.0), (5.0, -2.0), (12.0, 700.0)):
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


def kernel_gather_oracle(x, ratio, out_len):
    """The resampler's kernel, the windowed sinc evaluated at each output's
    own fractional delay (no polynomial, no phase grid; the Kaiser window
    from SciPy's Bessel function), over a window gathered from the
    zero-padded input, a few thousand outputs at a time."""
    taps, beta = dsp._POLY_TAPS, dsp._POLY_BETA
    half = taps // 2 - 1
    xp = np.concatenate([np.zeros(half, dtype=np.complex128), x,
                         np.zeros(taps, dtype=np.complex128)])
    out = np.empty(out_len, dtype=np.complex128)
    for start in range(0, out_len, 4096):
        t = np.arange(start, min(start + 4096, out_len)) * ratio
        base = np.floor(t).astype(np.int64)
        a = (np.arange(taps) - half)[None, :] - (t - base)[:, None]
        r = np.clip(a / ((taps - 1) / 2.0), -1.0, 1.0)
        h = np.sinc(a) * special.i0(beta * np.sqrt(1.0 - r * r)) / special.i0(beta)
        idx = np.minimum(base[:, None] + np.arange(taps)[None, :], xp.size - 1)
        out[start:start + t.size] = np.einsum("ij,ij->i", h, xp[idx])
    return out


def error_db(got, want):
    """Power of ``got - want`` against the power of ``want``, in dB."""
    return 10 * np.log10(np.sum(np.abs(got - want) ** 2) / np.sum(np.abs(want) ** 2))


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


def test_run_blocks_raises_the_error_of_a_block():
    """An exception raised in any slice, the first, a middle or the last
    one, propagates from `run_blocks` on 1 or 3 threads."""
    def fail_at(bad):
        def block(start, stop):
            if start == bad:
                raise ValueError(f"block at {start}")
        return lambda: dsp.run_blocks(block, 1000)

    for bad in (0, 500, 900):
        for workers in (1, 3):
            with pytest.raises(ValueError, match=f"block at {bad}$"):
                blocked(fail_at(bad), 100, workers)


def test_run_blocks_runs_each_block_once_on_many_threads():
    """Eight threads, more than the cores, share the blocks of one item
    while the interpreter switches threads every microsecond: every block
    runs exactly once, and the call ends within a minute."""
    seen = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=blocked, args=(
            lambda: dsp.run_blocks(lambda a, b: seen.append((a, b)), 5000), 1, 8))
        runner.start()
        runner.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert sorted(seen) == [(k, k + 1) for k in range(5000)]


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


def _public_definitions(path: Path) -> list[tuple[str, str]]:
    """(name, place) of each public function and class at the top level of
    the module at ``path``, and of each public method of those classes."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, f"{path.name}:{node.lineno}"))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f"{path.name}:{f.lineno}") for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def _references(path: Path) -> set[str]:
    """Every name the module at ``path`` uses: names, attributes, imported
    names, and string literals that could name an attribute (the benchmark's
    tracer wraps functions by name)."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.add(node.value)
    return refs


def test_public_surface_is_used_outside_the_tests():
    """Every public function, class and public method in the package is
    referenced from the package, the scripts, the benchmark or the
    acceptance gate: code that only the other tests use is public surface
    nobody needs. There is no allow-list."""
    root = Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "bistatic_radcom").glob("*.py"))
    users = [*src, *sorted((root / "scripts").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    refs = set().union(*map(_references, users))
    defined = [d for path in src for d in _public_definitions(path)]
    assert len(defined) > 50
    assert [f"{place} {name}" for name, place in defined if name not in refs] == []


def complex_noise(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@given(st.integers(0, 2 ** 32 - 1),
       st.floats(-1e-3, 1e-3),
       st.booleans(),
       st.integers(1, 3),
       st.integers(-200, 200),
       st.integers(-40, 3000))
@settings(max_examples=100, deadline=None)
def test_blocked_resampler_matches_gather_oracle(seed, delta, inverse, steps, edge,
                                                 past_end):
    """Ratio 1 +- 1e-3 (or its inverse), outputs over one to three
    overlap-save steps, on either side of a step edge and past the end of
    the input: the Farrow resampler stays within -90 dB of the exact kernel,
    and its bits are the same in blocks of one or two steps on 1 or 3
    threads."""
    ratio = 1.0 / (1.0 + delta) if inverse else 1.0 + delta
    out_len = steps * dsp._FARROW_STEP + edge
    x = complex_noise(seed, max(out_len - past_end, 1))
    got = resample_arbitrary(x, ratio, out_len)
    assert error_db(got, kernel_gather_oracle(x, ratio, out_len)) <= -90.0
    for block, workers in ((1, 1), (1, 3), (2 * dsp._FARROW_FFT, 3)):
        assert same_bits(blocked(lambda: resample_arbitrary(x, ratio, out_len),
                                 block, workers), got)


def resample_whole_planes_oracle(x, ratio, out_len):
    """The Farrow structure with each branch plane correlated with the whole
    zero-padded input at once, directly rather than by FFT, and the Horner
    sum over every output."""
    c = dsp._farrow_branches()
    taps = dsp._POLY_TAPS
    half = taps // 2 - 1
    xp = np.concatenate([np.zeros(half, dtype=np.complex128), x,
                         np.zeros(taps, dtype=np.complex128)])
    planes = np.array([np.correlate(xp, row, "valid") for row in c])
    t = np.arange(out_len) * ratio
    base = np.floor(t).astype(np.int64)
    inside = base < planes.shape[1]
    v = planes[:, np.where(inside, base, 0)] * inside
    mu = t - base
    acc = v[-1]
    for row in v[-2::-1]:
        acc = acc * mu + row
    return acc


@pytest.mark.parametrize("ratio", [1 - 3e-3, 1 - 2e-5, 1 + 2e-5, 1 + 3e-3, 0.5, 1.7])
@pytest.mark.parametrize("block", [16, 37])
def test_blocked_resampler_planes_match_whole_planes(ratio, block):
    """The branch planes, filtered one overlap-save step at a time (a
    ``_BLOCK`` below one step's FFT makes a block of each step), on 1 or 3
    threads, give the whole-input planes' output within rounding, and the
    bits of the default blocks: output lengths below the input length and
    far enough above it that whole steps lie past the end of the input."""
    n = 3 * dsp._FARROW_STEP + 300
    x = complex_noise(7, n)
    for out_len in (n // 2 + 3, n - 1, int(n / ratio) + 2 * dsp._FARROW_STEP + 5):
        want = resample_whole_planes_oracle(x, ratio, out_len)
        got = resample_arbitrary(x, ratio, out_len)
        assert np.max(np.abs(got - want)) <= 1e-12
        for workers in (1, 3):
            assert same_bits(blocked(lambda: resample_arbitrary(x, ratio, out_len),
                                     block, workers), got)


def test_resampler_default_block_edge_matches_gather_oracle():
    """Outputs across the edge of the default block, which holds 8 steps,
    from an input that ends before them, stay within -90 dB of the exact
    kernel, with the same bits on 1 or 2 threads and in one-step blocks."""
    n = dsp.block_items(dsp._FARROW_FFT) * dsp._FARROW_STEP + 300
    x = complex_noise(4, n - 100)
    got = resample_arbitrary(x, 1.0 + 2.5e-4, n)
    assert error_db(got, kernel_gather_oracle(x, 1.0 + 2.5e-4, n)) <= -90.0
    for block, workers in ((dsp._BLOCK, 1), (dsp._BLOCK, 2), (1, 2)):
        assert same_bits(blocked(lambda: resample_arbitrary(x, 1.0 + 2.5e-4, n),
                                 block, workers), got)


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


def test_halfband_fir_matches_firwin():
    want = signal.firwin(dsp._STAGE_TAPS, 0.5, window=("kaiser", dsp._STAGE_BETA))
    assert np.max(np.abs(dsp._halfband_fir() - want)) <= 1e-15


@pytest.mark.parametrize("lengths", [
    range(12, 1201), [450 * 64, 450 * 128 - 1, 428 * 3, 428 * 3 + 61]])
def test_fractional_delay_matches_oaconvolve(lengths):
    """The fractional delay is one whole-stream ``signal.oaconvolve`` within
    rounding, on every input length from 12 samples up through a few
    overlap-add steps and on long inputs, with the whole convolution and the
    zeros past its end in the output."""
    delay = 31.3  # the filter centre: out[m] is the convolution's y[m]
    for n in lengths:
        x = complex_noise(n, n)
        out_len = n + 200
        got = fractional_delay(x, delay, out_len)
        want = fractional_delay_one_shot(x, delay, out_len)
        assert np.max(np.abs(got - want)) <= 1e-12, n
        assert not got[n + 62:].any()


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
    """Overlap-add in blocks of ``chunk`` input samples, rounded down to
    whole steps and at least one (1, 2 or 60 steps), one block or many,
    output cut short or extended, on 1 or 3 threads, returns the bits of one
    whole-stream call in a single block."""
    x = complex_noise(n, n)
    out_len = n + max(int(np.floor(delay)), 0) + 32 + len_offset
    want = blocked(lambda: fractional_delay(x, delay, out_len), 1 << 40, 1)
    for workers in (1, 3):
        got = blocked(lambda: fractional_delay(x, delay, out_len),
                      chunk // dsp._OA_STEP * dsp._OA_FFT, workers)
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
def test_block_sums_match_whole_array_sums(block):
    """Block partials added in block order: the same bits on 1 or 3
    threads, and within 1e-12 of ``np.sum`` at lengths on either side of one
    block and of many. The values span many magnitudes, so a lost or doubled
    block would show."""
    rng = np.random.default_rng(block)
    lengths = {0, 1, 7, 127, 128, 129, 1000, block - 1, block, block + 1,
               2 * block + 7, 8 * block + 3, 100_003}
    for n in sorted(lengths):
        a = rng.lognormal(0.0, 4.0, n)

        def part(start, stop):
            return np.sum(a[start:stop]), stop - start

        got = [blocked(lambda: dsp.block_sums(part, n, 2), block, workers)
               for workers in (1, 3)]
        assert same_bits(got[0], got[1]), n
        assert got[0][1] == n
        assert abs(got[0][0] - np.sum(a)) <= 1e-12 * np.sum(a), n


@pytest.mark.parametrize("delta", [3e-5, -2e-4, 5e-9])
def test_chain_span_has_the_bits_of_the_whole_stream(delta):
    """Outputs ``a:b`` of the correction chain, asked for alone, have the
    bits of the same outputs of the whole stream: spans from 0, to the end,
    empty, and starting or ending inside a block of the whole-stream call,
    in blocks of 500 outputs on 1 or 3 threads and in the default block; a
    ratio below the bypass threshold gives a copy of the span."""
    y = complex_noise(5, 5000)
    want = sfo_correction_chain(y, delta)
    spans = [(0, 5000), (0, 1), (0, 1730), (1730, 2000), (999, 3001), (1000, 2000),
             (4999, 5000), (0, 0), (2500, 2500), (5000, 5000)]
    for block, workers in ((1000, 1), (1000, 3), (dsp._BLOCK, 2)):
        for a, b in spans:
            got = blocked(lambda: sfo_correction_chain(y, delta, a, b), block, workers)
            assert same_bits(got, want[a:b]), (a, b)
            assert not np.shares_memory(got, y)
    for a, b in ((-1, 10), (10, 9), (0, 5001)):
        with pytest.raises(ValueError, match="outside"):
            sfo_correction_chain(y, delta, a, b)


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
