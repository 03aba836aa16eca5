"""Propagation and impairment model."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bistatic_radcom import dsp
from bistatic_radcom.channel import (
    ChannelScenario,
    ImpairmentSet,
    PropagationPath,
    add_awgn,
    apply_paths_and_cfo,
    apply_sfo,
    main_path_rx_power,
    run_channel,
)
from bistatic_radcom.dsp import fractional_delay
from bistatic_radcom.params import ConfigError, FrameConfig
from bistatic_radcom.txframe import IqStream, build_tx_frame, frame_capacity_bits


def small_cfg():
    return FrameConfig(n_subcarriers=64, cp_len=16, m_payload=32)


FS = 1e9


def tone(n=4096, f=0.01):
    return np.exp(2j * np.pi * f * np.arange(n))


def single_main(**imp):
    return ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),),
        impairments=ImpairmentSet(**imp))


WEAKER = "secondary path must be weaker than the main path in linear gain"


def test_scenario_requires_exactly_one_main():
    with pytest.raises(ConfigError) as exc:
        ChannelScenario(paths=(PropagationPath(1.0, 0.0, 0.0, False),))
    assert exc.value.violations == ["paths: exactly one path must set is_main (got 0)"]
    with pytest.raises(ConfigError) as exc:
        ChannelScenario(paths=(PropagationPath(1.0, 0.0, 0.0, True),
                               PropagationPath(0.5, 1e-9, 0.0, True)))
    assert exc.value.violations == ["paths: exactly one path must set is_main (got 2)"]
    with pytest.raises(ConfigError) as exc:
        ChannelScenario(paths=())
    assert exc.value.violations == ["paths: at least one path is needed"]


def test_secondary_must_be_weaker():
    with pytest.raises(ConfigError) as exc:
        ChannelScenario(paths=(PropagationPath(0.5, 0.0, 0.0, True),
                               PropagationPath(0.9, 1e-9, 0.0, False)))
    assert exc.value.violations == [f"paths[1]: {WEAKER}"]


def test_channel_scenario_reports_every_violation():
    with pytest.raises(ConfigError) as exc:
        ChannelScenario(paths=(PropagationPath(0.5, -1e-9, 0.0, True),
                               PropagationPath(0.9, 1e-9, 0.0, False)))
    assert exc.value.violations == ["paths[0]: delay must be non-negative",
                                     f"paths[1]: {WEAKER}"]


def test_sfo_bound_enforced():
    with pytest.raises(ConfigError, match=r"\|sfo_norm\| must be below 0.001"):
        ImpairmentSet(sfo_norm=2e-3)


def test_clean_channel_is_identity():
    x = tone()
    y = run_channel(IqStream(samples=x, nominal_rate=FS), single_main())
    assert y.nominal_rate == FS
    assert np.allclose(y.samples[:x.size], x, atol=1e-10)


def test_integer_delay_path():
    x = tone()
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=12e-9, doppler_hz=0.0, is_main=True),))
    y = apply_paths_and_cfo(x, FS, sc)
    # 12 ns at 1 GS/s = 12 samples
    assert np.allclose(y[12:12 + 4096], x, atol=1e-9)


def test_doppler_shift_theorem():
    """A path Doppler of one subcarrier spacing cyclically shifts the
    demodulated grid by one row (small-frame oracle)."""
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    frame, _, tx = build_tx_frame(cfg, info)
    fd = cfg.subcarrier_spacing
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=fd, is_main=True),))
    y = apply_paths_and_cfo(tx.samples, tx.nominal_rate, sc)
    # first OFDM symbol: multiplying by e^{j2pi n/N} shifts bins up by one
    blk = y[cfg.cp_len:cfg.cp_len + cfg.n_subcarriers]
    got = np.fft.fft(blk, norm="ortho")
    want = np.roll(frame[:, 0], 1) * np.exp(
        2j * np.pi * fd * cfg.cp_len / cfg.bandwidth_hz)
    assert np.allclose(got, want, atol=1e-6)


def test_cfo_cpo_phasor():
    x = tone(n=1000)
    y = apply_paths_and_cfo(x, FS, single_main(cfo_hz=1e5, cpo_rad=0.5))
    n = np.arange(1000)
    expect = x * np.exp(1j * (2 * np.pi * 1e5 * n / 1e9 + 0.5))
    assert np.allclose(y[:1000], expect, atol=1e-9)


def test_apply_sfo_timebase():
    """Clock offset delta compresses the received timebase by (1+delta)."""
    n = 8192
    f = 0.05
    t = np.arange(n)
    delta = 1e-4
    y = apply_sfo(tone(n, f), delta)
    expect = np.exp(2j * np.pi * f * t * (1 + delta))
    m = slice(64, n - 64)
    assert np.sqrt(np.mean(np.abs(y[m] - expect[m]) ** 2)) < 1e-4


@given(st.integers(0, 2 ** 32 - 1), st.floats(-5.0, 25.0))
@settings(max_examples=100, deadline=None)
def test_awgn_calibration(seed, snr_db):
    """Measured noise power matches the requested SNR within 3%."""
    n = 100_000
    x = np.ones(n, dtype=complex)
    noise = add_awgn(x, snr_db, ref_power=1.0, seed=seed) - x
    measured = np.mean(np.abs(noise) ** 2)
    expected = 10 ** (-snr_db / 10.0)
    assert measured == pytest.approx(expected, rel=0.03)


def test_run_channel_skips_idle_stages(monkeypatch):
    """No clock offset and no SNR: the clock and noise stages never run."""
    from bistatic_radcom import channel

    def idle(*_):
        raise AssertionError("stage with nothing to do was run")

    monkeypatch.setattr(channel, "apply_sfo", idle)
    monkeypatch.setattr(channel, "add_awgn", idle)
    x = tone(n=100)
    y = run_channel(IqStream(samples=x, nominal_rate=FS), single_main())
    assert np.array_equal(y.samples[:100], x)


def test_awgn_reproducible_per_seed():
    x = tone(n=1000)
    a = add_awgn(x, 10.0, 1.0, seed=42)
    b = add_awgn(x, 10.0, 1.0, seed=42)
    c = add_awgn(x, 10.0, 1.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def awgn_one_draw(x, snr_db, ref_power, seed):
    """AWGN as one whole-stream draw, added out of place."""
    noise_var = ref_power / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(noise_var / 2.0), (x.size, 2))
    return x + noise[:, 0] + 1j * noise[:, 1]


@pytest.mark.parametrize("n, chunk", [(1, 7), (49, 7), (50, 7), (1000, 64),
                                      (2 * (1 << 15) + 123, 1 << 15)])
def test_chunked_awgn_matches_one_draw(monkeypatch, n, chunk):
    """Noise drawn in chunks (whole or not) and added in place gives the bits
    of one draw added out of place, and leaves the input as it was."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    before = x.copy()
    monkeypatch.setattr(dsp, "_BLOCK", chunk)
    got = add_awgn(x, 7.5, 2.0, seed=11)
    want = awgn_one_draw(x, 7.5, 2.0, 11)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


def test_main_path_power_reference():
    x = tone(n=1000)
    sc = ChannelScenario(
        paths=(PropagationPath(gain=0.5, delay_s=0.0, doppler_hz=0.0, is_main=True),
               PropagationPath(gain=0.1, delay_s=5e-9, doppler_hz=0.0)))
    assert main_path_rx_power(x, sc) == pytest.approx(0.25)


def test_two_path_resolvable_delays():
    """Main + 7.25 ns target produce two distinct contributions."""
    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=64)
    rng = np.random.default_rng(1)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    _, _, tx = build_tx_frame(cfg, info)
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),
               PropagationPath(gain=0.3, delay_s=7.25e-9, doppler_hz=0.0)))
    y = apply_paths_and_cfo(tx.samples, tx.nominal_rate, sc)
    # first payload symbol: every subcarrier is occupied
    off = cfg.m_preamble * cfg.symbol_len + cfg.cp_len
    blk = y[off:off + cfg.n_subcarriers]
    tx_blk = tx.samples[off:off + cfg.n_subcarriers]
    cfr = np.fft.fft(blk) / np.fft.fft(tx_blk)
    # window in physical frequency order to keep sidelobes below the echo
    cir = np.fft.ifft(np.fft.fftshift(cfr) * np.hamming(256), n=8 * 256)
    mags = np.abs(cir)
    main_bin = int(np.argmax(mags))
    assert main_bin < 4 or main_bin > mags.size - 4
    # positive-delay half only (the main lobe wraps across bin 0)
    win = np.arange(mags.size)
    target_bin = int(np.argmax(np.where((win > 40) & (win < 1024), mags, 0)))
    assert abs(target_bin - 7.25 * 8) <= 4


def delayed_one_shot(x, delay, out_len):
    """``x`` delayed by ``delay`` samples: an exact shift for a whole number
    of samples, `fractional_delay` otherwise."""
    if not float(delay).is_integer():
        return fractional_delay(x, delay, out_len)
    out = np.zeros(out_len, dtype=np.complex128)
    d = int(delay)
    lo, hi = max(d, 0), min(d + x.size, out_len)
    out[lo:hi] = x[lo - d:hi - d]
    return out


def paths_and_cfo_oracle(x, fs, scenario):
    """The multipath sum and the CFO/CPO phasor, each over the whole stream
    at once."""
    imp = scenario.impairments
    ts = 1.0 / fs
    max_delay = max(p.delay_s for p in scenario.paths) + max(imp.sto_s, 0.0)
    out_len = x.size + int(np.ceil(max_delay * fs)) + 64
    y = np.zeros(out_len, dtype=np.complex128)
    n = np.arange(out_len)
    for p in scenario.paths:
        delayed = delayed_one_shot(x, (p.delay_s + imp.sto_s) * fs, out_len)
        if p.doppler_hz != 0.0:
            delayed *= np.exp(2j * np.pi * p.doppler_hz * n * ts)
        y += p.gain * delayed
    if imp.cfo_hz != 0.0 or imp.cpo_rad != 0.0:
        y *= np.exp(1j * (2.0 * np.pi * imp.cfo_hz * n * ts + imp.cpo_rad))
    return y


path_st = st.tuples(st.floats(0.05, 0.9), st.floats(-np.pi, np.pi),
                    st.integers(0, 150).map(float) | st.floats(0.0, 150.0),
                    st.just(0.0) | st.floats(-2e7, 2e7))


@given(st.integers(0, 2 ** 32 - 1),
       st.integers(1, 600),
       st.lists(path_st, min_size=1, max_size=3),
       st.integers(0, 40).map(float) | st.floats(0.0, 40.0),
       st.floats(-3e7, 3e7),
       st.floats(-np.pi, np.pi),
       st.integers(16, 160))
@settings(max_examples=100, deadline=None)
def test_blocked_paths_and_cfo_match_one_shot(seed, n, paths, sto, cfo_hz, cpo,
                                              block):
    """Per-path Doppler, path sum and CFO/CPO rotation, block by block on 1 or
    3 threads, return the bits of the whole-stream expressions."""
    rng = np.random.default_rng(seed)
    fs = 1e9
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=1.5e6, is_main=True),)
        + tuple(PropagationPath(gain=g * np.exp(1j * ph), delay_s=d / fs, doppler_hz=fd)
                for g, ph, d, fd in paths),
        impairments=ImpairmentSet(sto_s=sto / fs, cfo_hz=cfo_hz, cpo_rad=cpo))
    want = paths_and_cfo_oracle(x, fs, sc)
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsp, "_BLOCK", block)
            mp.setattr(dsp, "_workers", lambda: workers)
            got = apply_paths_and_cfo(x, fs, sc)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, delays", [
    (428 * 12 + 17, (0.25, 3.4, 70.75)), (428 * 30, (999.5, 5007.25)),
    (428 * 2 + 1, (12.5,)), (600, (0.9, 2500.5))])
@pytest.mark.parametrize("block, workers", [(100, 1), (333, 3), (1 << 15, 2)])
def test_blocked_fractional_echo_matches_one_shot(n, delays, block, workers):
    """Streams of up to 30 overlap-add steps, echoes delayed by a fraction of
    a sample past a few samples, several steps or the whole stream: each
    span of a fractional echo, filtered on its own from the step before it,
    returns the bits of the path sum with whole delayed streams, on 1 to 3
    threads."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=1.5e6, is_main=True),)
        + tuple(PropagationPath(gain=0.3 * np.exp(0.7j * i), delay_s=d / FS,
                                doppler_hz=2e5 * i) for i, d in enumerate(delays)),
        impairments=ImpairmentSet(sto_s=7.5 / FS, cfo_hz=1e6, cpo_rad=0.3))
    want = paths_and_cfo_oracle(x, FS, sc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", block)
        mp.setattr(dsp, "_workers", lambda: workers)
        got = apply_paths_and_cfo(x, FS, sc)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_run_channel_leaves_its_stream_unchanged():
    """`run_channel` drops only its own reference to the TX stream: the
    caller's `IqStream` keeps its samples and their bits."""
    cfg = small_cfg()
    rng = np.random.default_rng(2)
    _, _, tx = build_tx_frame(cfg, rng.integers(0, 2, frame_capacity_bits(cfg)[0],
                                                dtype=np.uint8))
    before = tx.samples.copy()
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),
               PropagationPath(gain=0.1, delay_s=7.25e-9, doppler_hz=2000.0)),
        impairments=ImpairmentSet(sto_s=3e-8, cfo_hz=1e5, sfo_norm=2e-5, snr_db=10.0))
    rx = run_channel(tx, sc)
    assert np.array_equal(tx.samples.view(np.uint64), before.view(np.uint64))
    assert not np.shares_memory(rx.samples, tx.samples)


def test_channel_memory(tmp_path):
    """The channel, handed the only reference to a 2.6 M-sample TX stream
    (40 MB) with an echo a fraction of a sample late, peaks at two streams
    plus a margin (92 MB), the TX stream counted: the TX stream and the
    SNR reference's blocks, the TX stream and the path sum, then the path
    sum and the resampled stream once the TX stream is let go, then the
    noise added in place. A copy of the nonzero samples and their powers,
    the whole delayed echo, the TX stream kept through the resampler and a
    noisy copy each made a third stream (150 MB).

    The process reads its own high-water mark (``VmHWM``) against its
    resident size (``VmRSS``) before the TX stream is loaded; the worker
    count is fixed at 2, as each thread holds its own block temporaries."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    rng = np.random.default_rng(0)
    n = 2_600_000
    np.save(tmp_path / "tx.npy", rng.normal(size=n) + 1j * rng.normal(size=n))
    code = textwrap.dedent("""
        import numpy as np
        from bistatic_radcom import dsp
        from bistatic_radcom.channel import (ChannelScenario, ImpairmentSet,
                                             PropagationPath, run_channel)
        from bistatic_radcom.txframe import IqStream

        def status_mb(key):
            with open("/proc/self/status") as f:
                line = next(x for x in f if x.startswith(key + ":"))
            return int(line.split()[1]) / 1024.0

        dsp._workers = lambda: 2
        table = dsp._tap_major_table()  # held, so the channel's resampler reuses it
        sc = ChannelScenario(
            paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),
                   PropagationPath(gain=0.03, delay_s=7.25e-9, doppler_hz=2000.0)),
            impairments=ImpairmentSet(sto_s=5e-6, cfo_hz=146484.375, cpo_rad=0.7,
                                      sfo_norm=2e-5, snr_db=15.0, noise_seed=7))
        before = status_mb("VmRSS")
        rx = run_channel(IqStream(samples=np.load("tx.npy"), nominal_rate=1e9), sc)
        print(status_mb("VmHWM") - before, rx.samples.nbytes / 2 ** 20)
    """)
    src = str(Path(dsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    rise, stream = map(float, out.split())
    assert stream > 39.0
    assert rise < 2 * stream + 20.0
