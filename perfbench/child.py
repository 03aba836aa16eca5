"""One benchmark call in a fresh process.

    python3 perfbench/child.py --mode setup|gen|call|trace --verb run|capture \
        --scenario S.json [--iq rx.iq] --out DIR --result R.json

The process first times its own set-up, as a CLI user pays it on every call:
importing the package front end (which pulls in NumPy and SciPy), parsing the
scenario, and building the shared LDPC code. ``setup`` stops there. ``gen``
then writes the scenario's ``rx.iq`` into DIR. ``call`` times one pipeline
call through the entry point the CLI uses (``run_scenario`` or
``process_capture``); ``trace`` does the same with every layer wrapped by the
span tracer. Results go to ``--result`` as JSON.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "gen", "call", "trace"), required=True)
    ap.add_argument("--verb", choices=("run", "capture"), default="run")
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--iq")
    ap.add_argument("--out")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import bistatic_radcom.cli  # noqa: F401  (the CLI's import cost)
    from bistatic_radcom import ldpc, scenario
    t1 = time.perf_counter()
    scn = scenario.load_scenario(args.scenario)
    t2 = time.perf_counter()
    ldpc.default_code()
    result = {"setup_s": time.perf_counter() - t0, "load_scenario_s": t2 - t1}

    if args.mode == "gen":
        _write_rx_iq(scenario, scn, args.out)
    elif args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer, install
            tracer = Tracer(run_id=args.out)
            install(tracer)
        t4 = time.perf_counter()
        if args.verb == "run":
            summary = scenario.run_scenario(scn, args.out)
        else:
            summary = scenario.process_capture(args.iq, scn, args.out)
        result["wall_s"] = time.perf_counter() - t4
        result["summary"] = summary
        if tracer is not None:
            from bistatic_radcom import dsp
            result["spans"] = tracer.spans
            # window width of the resampler's gather, for its computed traffic
            result["gather_taps"] = getattr(dsp, "_POLY_TAPS", 0)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["resolution"] = _resolutions(scn)
    result["versions"] = _versions()
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


def _write_rx_iq(scenario, scn, outdir: str) -> None:
    """The rx.iq that ``run_scenario`` writes with ``outputs.write_iq``, made
    by the same public calls but without running the receiver after it."""
    from pathlib import Path
    from bistatic_radcom.channel import run_channel
    from bistatic_radcom.iqfile import write_iq
    from bistatic_radcom.txframe import build_tx_frame
    _, _, tx = build_tx_frame(scn.frame, scenario.generate_info_bits(scn))
    rx = run_channel(tx, scenario.channel_from_scenario(scn))
    Path(outdir).mkdir(parents=True, exist_ok=True)
    write_iq(Path(outdir) / "rx.iq", rx, metadata={"scenario": scn.name})


def _resolutions(scn) -> dict:
    from bistatic_radcom.params import radar_performance
    return {m.value: {"range_m": p.range_resolution, "doppler_hz": p.doppler_resolution}
            for m in scn.sensing_modes
            for p in [radar_performance(scn.frame, m)]}


def _versions() -> dict:
    import numpy
    import scipy
    import bistatic_radcom
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    return {"bistatic_radcom": bistatic_radcom.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "blas": {k: blas.get(k) for k in ("name", "version")}}


if __name__ == "__main__":
    sys.exit(main())
