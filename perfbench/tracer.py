"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the package,
under the name its caller looks up: ``from .x import y`` binds ``y`` into the
caller's module, so e.g. ``synchronize`` is wrapped as ``scenario.synchronize``.
Each span records name, start, end, parent, a run id and the process peak RSS
at both ends. Spans stay in memory until the traced call returns.

Per-layer metrics are derived from the spans alone; counts that the package
does not expose (decoder iterations, codewords valid at entry) are read off
the nesting of ``LdpcCode.check`` spans inside ``LdpcCode.decode`` spans.
"""

from __future__ import annotations

import os
import resource
import time
from statistics import median

MODULES = ("txframe", "channel", "dsp", "sync", "commrx", "ldpc", "radar",
           "iqfile", "scenario")
MODES = ("pilot_only", "full_frame")
ROOT_SPANS = ("scenario.run_scenario", "scenario.process_capture")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rows(arr) -> int:
    """Number of codewords in a (..., n) array."""
    return arr.size // arr.shape[-1]


def _mode_arg(args, kwargs, pos: int) -> str:
    mode = kwargs.get("mode", args[pos] if len(args) > pos else None)
    return getattr(mode, "value", str(mode))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is the span name or a function of (args, kwargs) giving it;
        ``counts(args, kwargs, result)`` returns extra fields for the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = {
                "name": name if isinstance(name, str) else name(args, kwargs),
                "run": tracer.run_id,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "rss0": _maxrss_mb(),
            }
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                span["rss1"] = _maxrss_mb()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package (imported beforehand)."""
    from bistatic_radcom import channel, commrx, iqfile, radar, scenario, sync, ldpc

    for fn in ("run_scenario", "process_capture", "run_receive_pipeline"):
        tracer.wrap(scenario, fn, f"scenario.{fn}")
    tracer.wrap(scenario, "build_tx_frame", "txframe.build_tx_frame")
    tracer.wrap(scenario, "symbols_from_grid", "txframe.symbols_from_grid")
    tracer.wrap(scenario, "run_channel", "channel.run_channel")
    tracer.wrap(scenario, "synchronize", "sync.synchronize")
    for fn in ("demodulate_frame", "estimate_main_doppler", "estimate_cfr",
               "compensate_residual_sfo", "cir_evolution", "equalize",
               "demap_decode", "evm_rms_percent", "constellation_density"):
        tracer.wrap(scenario, fn, f"commrx.{fn}")

    for fn in ("apply_paths_and_cfo", "apply_sfo", "add_awgn", "main_path_rx_power"):
        tracer.wrap(channel, fn, f"channel.{fn}")
    tracer.wrap(channel, "fractional_delay", "dsp.fractional_delay")
    tracer.wrap(channel, "resample_arbitrary", "dsp.resample_arbitrary",
                lambda a, k, r: {"samples": int(r.size)})

    for fn in ("schmidl_cox", "local_cfo_correct", "fine_timing",
               "estimate_sfo_tsai", "resample_correct"):
        tracer.wrap(sync, fn, f"sync.{fn}")
    tracer.wrap(sync, "sfo_correction_chain", "dsp.sfo_correction_chain",
                lambda a, k, r: {"samples": int(r.size)})

    tracer.wrap(commrx, "qpsk_llrs", "commrx.qpsk_llrs")

    tracer.wrap(radar, "cfr_for_sensing",
                lambda a, k: f"radar.{_mode_arg(a, k, 2)}.cfr_for_sensing")
    tracer.wrap(radar, "range_doppler",
                lambda a, k: f"radar.{_mode_arg(a, k, 2)}.range_doppler",
                lambda a, k, r: {"cells": int(r.magnitude_db.size)})
    tracer.wrap(radar, "extract_peaks",
                lambda a, k: f"radar.{a[0].mode.value}.extract_peaks")

    tracer.wrap(iqfile, "read_iq", "iqfile.read_iq",
                lambda a, k, r: {"bytes": os.path.getsize(a[0])})

    code_cls = ldpc.LdpcCode
    tracer.wrap(code_cls, "encode", "ldpc.encode",
                lambda a, k, r: {"codewords": _rows(r)})
    tracer.wrap(code_cls, "check", "ldpc.check",
                lambda a, k, r: {"codewords": _rows(a[1]),
                                 "valid": int(r.sum())})
    tracer.wrap(code_cls, "decode", "ldpc.decode",
                lambda a, k, r: {"codewords": int(r[1].size),
                                 "unconverged": int((~r[1]).sum())})


# ---------------------------------------------------------------------------
# per-layer metrics

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "txframe.build_tx_frame.self_s": "s",
        "txframe.build_tx_frame.rss_rise_mb": "MB",
        "ldpc.encode.s": "s",
        "ldpc.encode.codewords": "count",
        "ldpc.check.s": "s",
        "ldpc.check.calls": "count",
        "ldpc.check.codewords": "count",
        "ldpc.decode.s": "s",
        "ldpc.decode.self_s": "s",
        "ldpc.decode.codewords": "count",
        "ldpc.decode.valid_at_entry": "count",
        "ldpc.decode.iterations": "count",
        "ldpc.decode.codeword_iterations": "count",
        "ldpc.decode.unconverged": "count",
        "ldpc.decode.s_per_codeword_iter": "s/cw_iter",
        "channel.apply_paths_and_cfo.self_s": "s",
        "channel.apply_sfo.self_s": "s",
        "channel.add_awgn.s": "s",
        "channel.run_channel.rss_rise_mb": "MB",
        "dsp.fractional_delay.s": "s",
        "dsp.resample_arbitrary.s": "s",
        "dsp.resample_arbitrary.s_per_msample": "s/Msample",
        "dsp.resample_arbitrary.gather_mb_computed": "MB",
        "dsp.sfo_correction_chain.s": "s",
        "dsp.sfo_correction_chain.s_per_msample": "s/Msample",
        "dsp.sfo_correction_chain.rss_rise_mb": "MB",
        "sync.schmidl_cox.s": "s",
        "sync.local_cfo_correct.s": "s",
        "sync.fine_timing.s": "s",
        "sync.estimate_sfo_tsai.s": "s",
        "sync.resample_correct.self_s": "s",
        "sync.synchronize.self_s": "s",
    }
    for fn in ("demodulate_frame", "estimate_main_doppler", "estimate_cfr",
               "compensate_residual_sfo", "cir_evolution", "equalize",
               "constellation_density"):
        units[f"commrx.{fn}.s"] = "s"
    units["commrx.demap_decode.self_s"] = "s"
    for m in MODES:
        units[f"radar.{m}.cfr_for_sensing.self_s"] = "s"
        units[f"radar.{m}.range_doppler.s"] = "s"
        units[f"radar.{m}.range_doppler.s_per_mcell"] = "s/Mcell"
        units[f"radar.{m}.extract_peaks.s"] = "s"
        units[f"radar.{m}.map_cells"] = "count"
        units[f"radar.{m}.rss_rise_mb"] = "MB"
    units["iqfile.read_iq.s"] = "s"
    units["iqfile.read_iq.mb"] = "MB"
    units["scenario.load_scenario.s"] = "s"
    units["scenario.run_receive_pipeline.self_s"] = "s"
    for mod in MODULES:
        units[f"layer.{mod}.pct"] = "%"
    units["ldpc.decode.pct"] = "%"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage_pct"] = "%"
    units["trace.spans"] = "count"
    units["trace.selfcheck_violations"] = "count"
    return units


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_sum[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child_sum[i] for i, s in enumerate(spans)]


def selfcheck(spans: list[dict]) -> list[str]:
    """Nesting violations: negative self time, or children outside or
    summing past their parent."""
    problems = []
    for i, st in enumerate(self_times(spans)):
        if st < 0:
            problems.append(f"{spans[i]['name']}: negative self time {st:.3g} s")
    for s in spans:
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"{s['name']}: outside parent {parent['name']}")
    return problems


def call_metrics(spans: list[dict], wall_s: float, load_scenario_s: float,
                 gather_taps: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline call."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_total[s["name"]] = self_total.get(s["name"], 0.0) + st

    def named(name):
        return [s for s in spans if s["name"] == name]

    def per(seconds, amount):
        return seconds / amount if amount else 0.0

    # "<span>.s" is the spans' total time, "<span>.self_s" their self time and
    # "<span or group>.rss_rise_mb" the rise of peak RSS across them
    out = {name: 0.0 for name in metric_units()}
    for name in out:
        key, _, qty = name.rpartition(".")
        if qty == "s":
            out[name] = total.get(key, 0.0)
        elif qty == "self_s":
            out[name] = self_total.get(key, 0.0)
        elif qty == "rss_rise_mb":
            group = [s for s in spans
                     if s["name"] == key or s["name"].startswith(key + ".")]
            if group:
                out[name] = (max(s["rss1"] for s in group)
                             - min(s["rss0"] for s in group))

    out["ldpc.encode.codewords"] = sum(s["codewords"] for s in named("ldpc.encode"))
    checks = named("ldpc.check")
    out["ldpc.check.calls"] = len(checks)
    out["ldpc.check.codewords"] = sum(s["codewords"] for s in checks)

    # decoder counts from outside: the first check inside a decode span is the
    # entry test, every later one closes an iteration over the active set
    decodes = [i for i, s in enumerate(spans) if s["name"] == "ldpc.decode"]
    for i in decodes:
        inner = [s for s in checks if s["parent"] == i]
        out["ldpc.decode.codewords"] += spans[i]["codewords"]
        out["ldpc.decode.unconverged"] += spans[i]["unconverged"]
        if inner:
            out["ldpc.decode.valid_at_entry"] += inner[0]["valid"]
            out["ldpc.decode.iterations"] += len(inner) - 1
            out["ldpc.decode.codeword_iterations"] += sum(s["codewords"] for s in inner[1:])
    out["ldpc.decode.s_per_codeword_iter"] = per(
        out["ldpc.decode.s"], out["ldpc.decode.codeword_iterations"])

    resampled = sum(s["samples"] for s in named("dsp.resample_arbitrary"))
    out["dsp.resample_arbitrary.s_per_msample"] = per(
        out["dsp.resample_arbitrary.s"], resampled / 1e6)
    # computed, not measured: per output sample the gather writes and reads
    # back an int64 index, a complex128 sample and a float64 coefficient per tap
    out["dsp.resample_arbitrary.gather_mb_computed"] = (
        2 * resampled * gather_taps * (8 + 16 + 8) / 1e6)
    corrected = sum(s["samples"] for s in named("dsp.sfo_correction_chain"))
    out["dsp.sfo_correction_chain.s_per_msample"] = per(
        out["dsp.sfo_correction_chain.s"], corrected / 1e6)

    for m in MODES:
        cells = sum(s["cells"] for s in named(f"radar.{m}.range_doppler"))
        out[f"radar.{m}.map_cells"] = cells
        out[f"radar.{m}.range_doppler.s_per_mcell"] = per(
            out[f"radar.{m}.range_doppler.s"], cells / 1e6)

    out["iqfile.read_iq.mb"] = sum(s["bytes"] for s in named("iqfile.read_iq")) / 1e6
    out["scenario.load_scenario.s"] = load_scenario_s

    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    root_self = sum(selfs[i] for i in roots if spans[i]["name"] in ROOT_SPANS)
    root_total = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    for mod in MODULES:
        layer_self = sum(st for s, st in zip(spans, selfs)
                         if s["name"].split(".")[0] == mod and s["name"] not in ROOT_SPANS)
        out[f"layer.{mod}.pct"] = 100.0 * layer_self / wall_s
    out["ldpc.decode.pct"] = 100.0 * out["ldpc.decode.s"] / wall_s
    out["trace.wall_s"] = wall_s
    # share of the call spent inside some layer span below the entry point
    out["trace.coverage_pct"] = 100.0 * (root_total - root_self) / wall_s
    out["trace.spans"] = len(spans)
    out["trace.selfcheck_violations"] = len(selfcheck(spans))
    return out


def combine(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced calls."""
    return {name: median(m[name] for m in per_call) for name in per_call[0]}
