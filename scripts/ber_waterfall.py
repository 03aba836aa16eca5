#!/usr/bin/env python3
"""Pre/post-FEC BER and EVM versus SNR over the full impaired link.

Runs the complete chain (frame build, multipath + clock impairments,
synchronization, equalization, decoding) at a reduced desk-scale frame so a
full waterfall finishes in about a minute. Output is a CSV table on stdout,
plot-ready.

Usage: python scripts/ber_waterfall.py [--snrs 0 2 4 ...] [--seeds 3]
"""

import argparse
import sys

import numpy as np

from bistatic_radcom.channel import (ChannelScenario, ImpairmentSet,
                                     PropagationPath, run_channel)
from bistatic_radcom.commrx import (compensate_residual_sfo, demap_decode,
                                    demodulate_frame, equalize, estimate_cfr,
                                    estimate_main_doppler, evm_rms_percent)
from bistatic_radcom.params import FrameConfig, PipelineError
from bistatic_radcom.sync import synchronize
from bistatic_radcom.txframe import build_tx_frame, frame_capacity_bits


def run_once(cfg: FrameConfig, snr_db: float, seed: int):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, frame_capacity_bits(cfg)[0], dtype=np.uint8)
    frame, payload, tx = build_tx_frame(cfg, info)
    scenario = ChannelScenario(
        paths=(PropagationPath(gain=1.0, delay_s=0.0, doppler_hz=0.0, is_main=True),
               PropagationPath(gain=10 ** (-20 / 20), delay_s=12e-9, doppler_hz=500.0)),
        impairments=ImpairmentSet(
            sto_s=2000 / cfg.bandwidth_hz,
            cfo_hz=0.2 * cfg.subcarrier_spacing,
            sfo_norm=2e-5, snr_db=snr_db, noise_seed=seed))
    rx = run_channel(tx, scenario)
    samples, _ = synchronize(rx, cfg)
    rg = demodulate_frame(samples, cfg)
    _, rg = estimate_main_doppler(rg, cfg)
    est = estimate_cfr(rg, cfg)
    rg, est = compensate_residual_sfo(rg, est, cfg)
    s_hat, noise_vars, _ = equalize(rg, est.cfr, cfg)
    _, metrics = demap_decode(s_hat, noise_vars, cfg, payload.codeword_count,
                              info.size, tx_info_bits=info,
                              tx_coded_bits=payload.coded_bits)
    return metrics.pre_fec_ber, metrics.post_fec_ber, evm_rms_percent(s_hat)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snrs", type=float, nargs="+",
                        default=[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    cfg = FrameConfig(n_subcarriers=256, cp_len=64, m_payload=512)
    print("snr_db,pre_fec_ber,post_fec_ber,evm_rms_percent,sync_failures")
    for snr in args.snrs:
        pre, post, evm, fails = [], [], [], 0
        for seed in range(args.seeds):
            try:
                p, q, e = run_once(cfg, snr, seed)
            except PipelineError:  # a sync stage failed
                fails += 1
                continue
            pre.append(p)
            post.append(q)
            evm.append(e)
        if pre:
            print(f"{snr:g},{np.mean(pre):.6g},{np.mean(post):.6g},"
                  f"{np.mean(evm):.6g},{fails}")
        else:
            print(f"{snr:g},nan,nan,nan,{fails}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
