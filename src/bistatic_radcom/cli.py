"""Command-line front end.

Verbs:
  run <scenario.json> [--out DIR]        simulate a scenario end to end
  capture <file.iq> <config.json> [--out DIR]   process external IQ samples
  params <config.json>                   print closed-form performance figures

The default output directory comes from $BISTATIC_RADCOM_OUT (falling back
to the current directory). Exit codes: 0 ok, 2 `ConfigError` (an input the
run cannot use), 3 `PipelineError` (a failed stage, tagged).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .params import (ConfigError, PipelineError, SensingMode, comm_throughput,
                     radar_performance)
from .scenario import load_scenario, process_capture, run_scenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3

OUTDIR_ENV = "BISTATIC_RADCOM_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bistatic-radcom",
        description="Bistatic OFDM joint radar-communication link simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario end to end")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory "
                       f"(default: ${OUTDIR_ENV} or the current directory)")

    p_cap = sub.add_parser("capture", help="process an external IQ capture")
    p_cap.add_argument("iq_file", help="interleaved float32 IQ file with JSON sidecar")
    p_cap.add_argument("config", help="scenario JSON file (its channel section is "
                       "validated but not used)")
    p_cap.add_argument("--out", default=None, help="output directory "
                       f"(default: ${OUTDIR_ENV} or the current directory)")

    p_par = sub.add_parser("params", help="print closed-form performance figures")
    p_par.add_argument("config", help="scenario JSON file")
    return parser


def _print_params(scn) -> None:
    cfg = scn.frame
    full = radar_performance(cfg, SensingMode.FULL_FRAME)
    pilot = radar_performance(cfg, SensingMode.PILOT_ONLY)
    rate = comm_throughput(cfg)

    print(f"config: N={cfg.n_subcarriers} N_CP={cfg.cp_len} "
          f"M_pl={cfg.m_payload} pilots {cfg.pilot_freq_spacing}x{cfg.pilot_time_spacing} "
          f"B={cfg.bandwidth_hz / 1e9:g} GHz")
    print(f"processing_gain_full_db = {full.processing_gain_db:.2f}")
    print(f"processing_gain_pilot_db = {pilot.processing_gain_db:.2f}")
    print(f"range_resolution_m = {full.range_resolution:.4f}")
    print(f"max_unamb_range_full_m = {full.max_unamb_range:.1f}")
    print(f"max_unamb_range_pilot_m = {pilot.max_unamb_range:.1f}")
    print(f"max_isi_free_range_m = {full.max_isi_free_range:.1f}")
    print(f"doppler_resolution_hz = {full.doppler_resolution:.2f}")
    print(f"max_unamb_doppler_full_khz = {full.max_unamb_doppler / 1e3:.2f}")
    print(f"max_unamb_doppler_pilot_khz = {pilot.max_unamb_doppler / 1e3:.2f}")
    print(f"max_ici_free_doppler_khz = {full.max_ici_free_doppler / 1e3:.2f}")
    print(f"data_rate_gbit_s = {rate / 1e9:.2f}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.verb == "params":
            scn = load_scenario(args.config)
            _print_params(scn)
            return EXIT_OK

        outdir = Path(args.out if args.out is not None else os.environ.get(OUTDIR_ENV, "."))
        if args.verb == "run":
            scn = load_scenario(args.scenario)
            summary = run_scenario(scn, outdir)
        else:
            scn = load_scenario(args.config)
            summary = process_capture(args.iq_file, scn, outdir)
        print(f"scenario '{scn.name}' complete; artifacts in {outdir}")
        for key in ("pre_fec_ber", "post_fec_ber", "evm_rms_percent"):
            print(f"  {key} = {summary[key]:.6g}")
        return EXIT_OK

    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
