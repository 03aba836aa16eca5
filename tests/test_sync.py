"""Receiver synchronization: timing, carrier offset and clock offset."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bistatic_radcom import dsp, sync
from bistatic_radcom.channel import (
    ChannelScenario,
    ImpairmentSet,
    PropagationPath,
    run_channel,
)
from bistatic_radcom.commrx import (
    demap_decode,
    demodulate_frame,
    equalize,
    estimate_cfr,
)
from bistatic_radcom.params import ConfigError, FrameConfig, PipelineError
from bistatic_radcom.sync import (
    estimate_sfo_tsai,
    fine_timing,
    resample_correct,
    schmidl_cox,
    synchronize,
)
from bistatic_radcom.txframe import IqStream, build_tx_frame, frame_capacity_bits, frame_tables


def desk_cfg():
    return FrameConfig(n_subcarriers=256, cp_len=64, m_payload=128)


def make_frame(cfg, seed=0):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    return build_tx_frame(cfg, info)


def through_channel(tx, sto=0, cfo_hz=0.0, cpo=0.0, sfo=0.0, snr_db=None,
                    seed=0):
    sc = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=sto / tx.nominal_rate,
                               doppler_hz=0.0, is_main=True),),
        impairments=ImpairmentSet(sto_s=0.0, cfo_hz=cfo_hz, cpo_rad=cpo,
                                  sfo_norm=sfo, snr_db=snr_db, noise_seed=seed))
    return run_channel(tx, sc)


def test_fine_timing_exact_on_clean_frame():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=777)
    payload, rep = synchronize(y, cfg, correct_sfo=False)
    assert rep.fine_start == 777
    assert rep.coarse_start == pytest.approx(777, abs=cfg.cp_len)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_fine_timing_exact_under_noise(seed):
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg, seed=1)
    rng = np.random.default_rng(seed)
    sto = int(rng.integers(200, 2000))
    y = through_channel(tx, sto=sto, cfo_hz=5e4, cpo=float(rng.uniform(0, 6)),
                        snr_db=10.0, seed=seed)
    _, rep = synchronize(y, cfg, correct_sfo=False)
    assert abs(rep.fine_start - sto) <= 1


def test_fractional_cfo_recovery():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    df = cfg.subcarrier_spacing
    cfo = 0.3 * df
    y = through_channel(tx, sto=500, cfo_hz=cfo)
    _, rep = synchronize(y, cfg, correct_sfo=False)
    assert rep.cfo_hat_hz == pytest.approx(cfo, abs=0.01 * df)


def test_integer_plus_fractional_cfo_recovery():
    """Offsets beyond half the half-symbol ambiguity need the integer stage."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    df = cfg.subcarrier_spacing
    cfo = 2.4 * df
    y = through_channel(tx, sto=500, cfo_hz=cfo)
    _, rep = synchronize(y, cfg, correct_sfo=False)
    assert rep.cfo_hat_hz == pytest.approx(cfo, abs=0.01 * df)


def test_negative_cfo_recovery():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    df = cfg.subcarrier_spacing
    cfo = -1.7 * df
    y = through_channel(tx, sto=500, cfo_hz=cfo)
    _, rep = synchronize(y, cfg, correct_sfo=False)
    assert rep.cfo_hat_hz == pytest.approx(cfo, abs=0.01 * df)


def test_timing_metric_bounded():
    """The metric's peak, and so every value of it, stays within 1."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=400, snr_db=5.0)
    _, _, peak = schmidl_cox(y.samples, cfg)
    assert 0.3 < peak <= 1.0 + 1e-9


def schmidl_cox_one_shot(s, cfg):
    """Coarse timing with every running sum and the metric over the whole
    stream at once."""
    n = cfg.n_subcarriers
    half = n // 2
    prod = np.conj(s[:-half]) * s[half:]
    pwr = np.abs(s) ** 2
    n_d = s.size - n
    cp = np.cumsum(np.concatenate([[0.0 + 0.0j], prod]))
    cw = np.cumsum(np.concatenate([[0.0], pwr]))
    p = cp[half:half + n_d] - cp[:n_d]
    r1 = cw[half:half + n_d] - cw[:n_d]
    r2 = cw[n:n + n_d] - cw[half:half + n_d]
    r_floor = 0.01 * np.mean(pwr) * half
    metric = np.zeros(n_d)
    np.divide(np.abs(p) ** 2, r1 * r2, out=metric, where=(r1 > r_floor) & (r2 > r_floor))
    d_peak = int(np.argmax(metric))
    thr = 0.9 * metric[d_peak]
    lo = hi = d_peak
    while lo > 0 and metric[lo - 1] >= thr:
        lo -= 1
    while hi < metric.size - 1 and metric[hi + 1] >= thr:
        hi += 1
    d_mid = (lo + hi) // 2
    coarse_start = d_mid - cfg.cp_len // 2
    ts = 1.0 / cfg.bandwidth_hz
    frac_cfo = np.angle(p[d_mid]) / (np.pi * n * ts)
    int_cfo = sync._integer_cfo(s, cfg, coarse_start, frac_cfo)
    return coarse_start, frac_cfo + int_cfo * cfg.subcarrier_spacing, metric[d_peak]


@pytest.mark.parametrize("block, workers", [(100, 1), (777, 3), (dsp._BLOCK, 2)])
def test_blocked_schmidl_cox_matches_one_shot(block, workers):
    """Running sums carried across blocks and the metric on blocks, on 1 to 3
    threads, return the one-shot start, CFO and metric peak bit for bit."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=400, cfo_hz=2.1e6, cpo=0.5, snr_db=12.0, seed=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsp, "_BLOCK", block)
        mp.setattr(dsp, "_workers", lambda: workers)
        got = schmidl_cox(y.samples, cfg)
    want = schmidl_cox_one_shot(y.samples, cfg)
    assert got[0] == want[0]
    assert np.array(got[1:]).view(np.uint64).tolist() == \
        np.array(want[1:], dtype=np.float64).view(np.uint64).tolist()


def test_clock_offset_estimate_noiseless():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    delta = 2e-5
    y = through_channel(tx, sto=600, sfo=delta)
    _, rep = synchronize(y, cfg, correct_sfo=True)
    assert rep.sfo_hat == pytest.approx(delta, rel=0.05)
    assert len(rep.pair_phase_slopes) == cfg.m_sfo // 2


def test_clock_offset_sign():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=600, sfo=-2e-5)
    _, rep = synchronize(y, cfg, correct_sfo=True)
    assert rep.sfo_hat == pytest.approx(-2e-5, rel=0.05)


def estimate_sfo_per_pair(s, cfg, fine_start, cfo_hat_hz):
    """Oracle of `estimate_sfo_tsai` as a loop over the pairs: one FFT pair
    and one weighted fit per pair, the pair totals summed in pair order."""
    n, ncp, sym = cfg.n_subcarriers, cfg.cp_len, cfg.symbol_len
    first = fine_start + cfg.m_sc * sym
    seg = sync.local_cfo_correct(s, cfg, cfo_hat_hz, (first, first + cfg.m_sfo * sym))
    k_signed = np.fft.fftfreq(n, d=1.0 / n)
    num = den = 0.0
    slopes = []
    for pair in range(cfg.m_sfo // 2):
        a = seg[2 * pair * sym + ncp:2 * pair * sym + ncp + n]
        b = seg[(2 * pair + 1) * sym + ncp:(2 * pair + 1) * sym + ncp + n]
        ya, yb = np.fft.fft(a, norm="ortho"), np.fft.fft(b, norm="ortho")
        w = np.abs(ya) ** 2 + np.abs(yb) ** 2
        phase = np.angle(yb * np.conj(ya))
        kc = k_signed - (w * k_signed).sum() / w.sum()
        pc = phase - (w * phase).sum() / w.sum()
        s_num, s_den = (w * kc * pc).sum(), (w * kc * kc).sum()
        slopes.append(float(s_num / s_den) if s_den > 0 else 0.0)
        num += s_num
        den += s_den
    slope_all = num / den if den > 0 else 0.0
    return float(slope_all * n / (2.0 * np.pi * sym)), slopes


@pytest.mark.parametrize("m_sfo", [2, 4, 10, 16, 18, 20, 24])
def test_clock_offset_fit_matches_per_pair_loop(m_sfo):
    """One FFT over all clock-tracking symbols and one fit over all pairs
    give the bits of the per-pair loop, in the estimate and in every pair's
    slope; from 8 pairs on this holds only if the pairs are summed in order."""
    cfg = FrameConfig(n_subcarriers=64, cp_len=16, m_sfo=m_sfo, m_payload=8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fine_start = int(rng.integers(0, 100))
        size = fine_start + cfg.m_preamble * cfg.symbol_len + int(rng.integers(0, 100))
        s = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cfo = rng.uniform(-3.0, 3.0) * cfg.subcarrier_spacing
        got = estimate_sfo_tsai(s, cfg, fine_start, cfo)
        want = estimate_sfo_per_pair(s, cfg, fine_start, cfo)
        assert np.array([got[0], *got[1]]).view(np.uint64).tolist() == \
            np.array([want[0], *want[1]]).view(np.uint64).tolist(), seed
        assert all(type(x) is float for x in got[1])


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_fine_timing_correlation_matches_per_candidate_dot_products(n):
    """``np.correlate(seg, ref, "valid")``, as `fine_timing` calls it, gives
    the bits of one ``np.vdot(ref, window)`` per candidate start."""
    cfg = FrameConfig(n_subcarriers=n, cp_len=n // 4, m_payload=8)
    ref = np.fft.ifft(frame_tables(cfg).preamble[:, 0], norm="ortho")
    rng = np.random.default_rng(n)
    size = n + 2 * cfg.cp_len
    seg = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    seg[cfg.cp_len:cfg.cp_len + n] += ref
    want = np.array([np.abs(np.vdot(ref, seg[i:i + n])) for i in range(size - n + 1)])
    got = np.abs(np.correlate(seg, ref, "valid"))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_payload_extraction_clean_loopback():
    """Payload samples after sync, a plain array, match the transmitted
    payload exactly."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=321)
    payload, rep = synchronize(y, cfg, correct_sfo=False)
    assert isinstance(payload, np.ndarray)
    assert payload.shape == (cfg.m_payload * cfg.symbol_len,)
    ref = tx.samples[cfg.m_preamble * cfg.symbol_len:]
    err = np.max(np.abs(payload - ref[:payload.size]))
    assert err < 1e-8


def test_no_lock_on_noise_raises():
    cfg = desk_cfg()
    rng = np.random.default_rng(0)
    n = cfg.frame_len + 4000
    y = IqStream(samples=(rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2),
                 nominal_rate=cfg.bandwidth_hz)
    with pytest.raises(PipelineError) as exc:
        synchronize(y, cfg)
    assert exc.value.stage in ("sync.schmidl_cox", "sync.fine_timing")


def test_truncated_capture_raises():
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=500)
    short = IqStream(samples=y.samples[:cfg.frame_len // 2],
                     nominal_rate=y.nominal_rate)
    with pytest.raises(PipelineError) as exc:
        synchronize(short, cfg)
    assert exc.value.stage.startswith("sync.")


@pytest.mark.parametrize("cut", [1, 5, 20, 40])
def test_capture_starting_inside_first_cp_decodes(cut):
    """A capture whose first samples fall inside the first preamble CP
    synchronizes to a negative frame start and decodes without error."""
    cfg = desk_cfg()
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    _, payload, tx = build_tx_frame(cfg, info)
    y = IqStream(samples=tx.samples[cut:], nominal_rate=tx.nominal_rate)
    samples, rep = synchronize(y, cfg)
    assert rep.fine_start == -cut
    rg = demodulate_frame(samples, cfg)
    s_hat, nv, _ = equalize(rg, estimate_cfr(rg, cfg).cfr, cfg)
    _, metrics = demap_decode(s_hat, nv, cfg, payload.codeword_count, info.size,
                              tx_info_bits=info)
    assert metrics.post_fec_ber == 0.0


def test_full_impairment_desk_chain():
    """Joint timing, carrier and clock recovery under noise."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg, seed=3)
    df = cfg.subcarrier_spacing
    y = through_channel(tx, sto=900, cfo_hz=1.3 * df, cpo=0.7, sfo=1e-5,
                        snr_db=30.0, seed=5)
    _, rep = synchronize(y, cfg, correct_sfo=True)
    assert abs(rep.fine_start - 900) <= 1
    assert rep.cfo_hat_hz == pytest.approx(1.3 * df, abs=0.02 * df)
    # short-symbol frames give a coarse clock estimate: check sign and order
    assert rep.sfo_hat == pytest.approx(1e-5, abs=5e-6)


@pytest.mark.parametrize("correct_sfo", [True, False])
def test_blocked_payload_derotation_matches_one_shot(correct_sfo):
    """The payload CFO de-rotation, block by block on 1 to 3 threads, returns
    the bits of the whole-payload phasor applied in place to the (corrected)
    stream."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=333, cfo_hz=2.3e6, cpo=0.3, sfo=4e-5, snr_db=25.0)
    for block, workers in ((1000, 1), (1000, 3), (dsp._BLOCK, 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsp, "_BLOCK", block)
            mp.setattr(dsp, "_workers", lambda: workers)
            payload, rep = synchronize(y, cfg, correct_sfo=correct_sfo)
        z, start = y.samples, rep.fine_start
        if correct_sfo:
            z = resample_correct(y.samples, rep.sfo_hat)
            start = int(round(rep.fine_start * (1.0 + rep.sfo_hat)))
        start += cfg.m_preamble * cfg.symbol_len
        n = np.arange(cfg.m_payload * cfg.symbol_len)
        ts = 1.0 / cfg.bandwidth_hz
        want = z[start:start + n.size].copy()
        want *= np.exp(-2j * np.pi * rep.cfo_hat_hz * n * ts)
        assert np.array_equal(payload.view(np.uint64), want.view(np.uint64))


def test_channel_and_sync_memory(tmp_path):
    """The channel and synchronization of a 2.66 M-sample stream, the size
    of the long reference cut to 1024 payload symbols, raise the peak RSS of
    the process that runs them by about 200 MB, down from the 323 MB that
    whole-stream temporaries took.

    The TX stream is made here and loaded by the measured process. That
    process reads its own high-water mark (``VmHWM``): ``ru_maxrss`` of a
    child starts at the RSS of the process that spawned it, which would hide
    part of the rise. The worker count is fixed at 2, because each thread
    holds its own block temporaries."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    cfg = FrameConfig(n_subcarriers=2048, cp_len=512, m_payload=1024)
    _, _, tx = make_frame(cfg, seed=1)
    np.save(tmp_path / "tx.npy", tx.samples)
    code = textwrap.dedent("""
        import numpy as np
        from bistatic_radcom import dsp
        from bistatic_radcom.channel import (ChannelScenario, ImpairmentSet,
                                             PropagationPath, run_channel)
        from bistatic_radcom.params import FrameConfig
        from bistatic_radcom.sync import synchronize
        from bistatic_radcom.txframe import IqStream

        def peak_mb():
            with open("/proc/self/status") as f:
                line = next(x for x in f if x.startswith("VmHWM:"))
            return int(line.split()[1]) / 1024.0

        dsp._workers = lambda: 2
        cfg = FrameConfig(n_subcarriers=2048, cp_len=512, m_payload=1024)
        tx = IqStream(samples=np.load("tx.npy"), nominal_rate=cfg.bandwidth_hz)
        sc = ChannelScenario(
            paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),
                   PropagationPath(gain=0.03, delay_s=7.25e-9, doppler_hz=2000.0)),
            impairments=ImpairmentSet(sto_s=5e-6, cfo_hz=146484.375, cpo_rad=0.7,
                                      sfo_norm=2e-5, snr_db=15.0, noise_seed=7))
        before = peak_mb()
        payload, report = synchronize(run_channel(tx, sc), cfg)
        assert report.timing_metric_peak > 0.9
        print(peak_mb() - before)
    """)
    src = str(Path(dsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert float(out) < 240.0


def test_stages_on_arrays_compose_to_synchronize():
    """The stages, called by hand on the sample array, give the report of
    `synchronize`."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=555, cfo_hz=1.6 * cfg.subcarrier_spacing, sfo=2e-5)
    _, rep = synchronize(y, cfg)
    s = y.samples
    coarse, cfo, peak = schmidl_cox(s, cfg)
    fine = fine_timing(s, cfg, coarse, cfo)
    sfo, slopes = estimate_sfo_tsai(s, cfg, fine, cfo)
    assert (coarse, fine, cfo, sfo, peak, slopes) == (
        rep.coarse_start, rep.fine_start, rep.cfo_hat_hz, rep.sfo_hat,
        rep.timing_metric_peak, rep.pair_phase_slopes)


def test_stream_at_another_rate_is_rejected():
    """Every stage assumes the frame's sample rate, so `synchronize` refuses
    a stream at any other rate rather than mis-scale its CFO phasors."""
    cfg = desk_cfg()
    _, _, tx = make_frame(cfg)
    y = through_channel(tx, sto=500)
    with pytest.raises(PipelineError) as exc:
        synchronize(IqStream(samples=y.samples, nominal_rate=2 * cfg.bandwidth_hz), cfg)
    assert exc.value.stage == "sync.synchronize"
    assert "differs from frame.bandwidth_hz" in str(exc.value)


@pytest.mark.parametrize("cfo_subcarriers", [0.0, 2.0])
def test_integer_cfo_search_includes_zero_at_ten_subcarriers(cfo_subcarriers):
    """N = 10 leaves room for shifts up to 3 subcarriers; the search must
    test the even shifts -2, 0, 2, not the odd ones that miss a zero or
    two-subcarrier offset."""
    cfg = FrameConfig(n_subcarriers=10, cp_len=2, m_payload=64)
    _, _, tx = make_frame(cfg)
    df = cfg.subcarrier_spacing
    y = through_channel(tx, sto=50, cfo_hz=cfo_subcarriers * df)
    _, rep = synchronize(y, cfg, correct_sfo=False)
    assert rep.cfo_hat_hz == pytest.approx(cfo_subcarriers * df, abs=0.1 * df)


# The one frame up to N = 40 that the CP bound admits and that still cannot
# lock: N = 14, cp_len 4, default preamble seed (a sidelobe of the fine-timing
# correlation within 2x of its peak).
UNLOCKED_SMALL_FRAME = (14, 4, FrameConfig.preamble_seed)


def loopback_fine_start(n, cp_len, preamble_seed, sto=50):
    """Fine start of a noiseless loopback of a 64-symbol frame."""
    cfg = FrameConfig(n_subcarriers=n, cp_len=cp_len, m_payload=64,
                      preamble_seed=preamble_seed)
    _, _, tx = make_frame(cfg)
    _, rep = synchronize(through_channel(tx, sto=sto), cfg, correct_sfo=False)
    return rep.fine_start


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_cp_bound_admits_only_frames_that_lock(n):
    """The first Schmidl-Cox symbol repeats every N/2 samples, so fine
    timing's +-cp_len window meets a sidelobe of about half its peak once
    cp_len nears N/2. A frame is rejected at construction exactly when
    cp_len exceeds N/2 - 3, and every frame that is built locks on a
    noiseless loopback, for three preamble seeds."""
    for cp_len in range(1, n):
        if cp_len > n // 2 - 3:
            with pytest.raises(ConfigError, match="cp_len must be at most"):
                FrameConfig(n_subcarriers=n, cp_len=cp_len, m_payload=64)
            continue
        for seed in (FrameConfig.preamble_seed, 1, 2):
            if (n, cp_len, seed) != UNLOCKED_SMALL_FRAME:
                assert loopback_fine_start(n, cp_len, seed) == 50, (cp_len, seed)


@pytest.mark.xfail(raises=PipelineError, strict=True,
                   reason="fine-timing sidelobe within 2x of the peak")
def test_unlocked_small_frame_locks():
    assert loopback_fine_start(*UNLOCKED_SMALL_FRAME) == 50
