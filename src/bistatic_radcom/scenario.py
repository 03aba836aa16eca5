"""Scenario files: JSON schema validation and the end-to-end pipeline runner.

A scenario bundles a frame configuration, an optional channel description
(paths + impairments), receiver stage toggles, sensing settings and output
options. Validation returns dotted-path diagnostics ("channel.paths[0].delay_ns:
missing") so a bad file can be fixed without reading source code. The runner
executes TX -> channel -> sync -> comm -> radar and writes a fixed artifact
set into an output directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp, radar as radar_mod
from .channel import (ChannelScenario, ImpairmentSet, PropagationPath,
                      SFO_BOUND, run_channel, stream_len)
from .commrx import (cir_evolution, compensate_residual_sfo,
                     constellation_density, demap_decode, demodulate_frame,
                     equalize, estimate_cfr, estimate_main_doppler,
                     evm_rms_percent)
from .ldpc import default_code
from .params import FrameConfig, SensingMode, validate_config
from .sync import SyncError, synchronize
from .txframe import (FrameGrid, IqStream, PayloadBits, assemble_frame,
                      build_tx_frame, frame_capacity_bits, frame_tables,
                      map_payload, symbols_from_grid)


class ScenarioFileError(ValueError):
    """Raised for unreadable or schema-violating scenario files; carries the
    full list of dotted-path diagnostics."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class PipelineError(RuntimeError):
    """Raised when a pipeline stage fails; tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class PathSpec:
    gain_db: float
    delay_ns: float
    doppler_hz: float = 0.0
    phase_deg: float = 0.0
    is_main: bool = False


@dataclass
class Scenario:
    name: str
    frame: FrameConfig
    info_seed: int = 1
    info_count: int | None = None       # None = fill the frame
    info_known: bool = True             # False for blind external captures
    paths: list[PathSpec] = field(default_factory=list)
    sto_samples: float = 0.0
    cfo_hz: float = 0.0
    cpo_rad: float = 0.0
    sfo_norm: float = 0.0
    snr_db: float | None = None
    noise_seed: int = 0
    has_channel: bool = False
    correct_sfo: bool = True
    residual_sfo_compensation: bool = True
    sensing_modes: list[SensingMode] = field(default_factory=lambda: [SensingMode.PILOT_ONLY])
    zero_pad: int = 2
    window: str = "hamming"
    peak_threshold_db: float = -40.0
    max_peaks: int = 10
    write_map_csv: bool = True
    write_iq: bool = False


# ---------------------------------------------------------------------------
# schema validation

_NUM = (int, float)


def _check_keys(obj: dict, allowed: set[str], where: str, errors: list[str]) -> None:
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}{key}: unknown field")


def _get_num(obj: dict, key: str, where: str, errors: list[str],
             default=None, required: bool = False, allow_none: bool = False):
    if key not in obj:
        if required:
            errors.append(f"{where}{key}: missing required field")
        return default
    v = obj[key]
    if v is None and allow_none:
        return None
    if isinstance(v, bool) or not isinstance(v, _NUM):
        errors.append(f"{where}{key}: expected a number, got {type(v).__name__}")
        return default
    if isinstance(v, float) and not math.isfinite(v):
        errors.append(f"{where}{key}: expected a finite number")
        return default
    return v


def _get_int(obj: dict, key: str, where: str, errors: list[str], default=None):
    v = _get_num(obj, key, where, errors, default)
    if v is not None and not isinstance(v, bool) and float(v) != int(v):
        errors.append(f"{where}{key}: expected an integer")
        return default
    return None if v is None else int(v)


def _get_bool(obj: dict, key: str, where: str, errors: list[str], default: bool) -> bool:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        errors.append(f"{where}{key}: expected true/false")
        return default
    return v


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises ScenarioFileError carrying every diagnostic found, each prefixed
    with the dotted path of the offending field.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioFileError([f"scenario file not found: {path}"])
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFileError([f"invalid JSON at line {exc.lineno}: {exc.msg}"])
    if not isinstance(doc, dict):
        raise ScenarioFileError(["top level: expected a JSON object"])

    errors: list[str] = []
    _check_keys(doc, {"name", "frame", "info_bits", "channel", "receiver",
                      "sensing", "outputs"}, "", errors)

    name = doc.get("name", path.stem)
    if not isinstance(name, str):
        errors.append("name: expected a string")
        name = path.stem

    # frame ---------------------------------------------------------------
    frame_doc = doc.get("frame", {})
    frame = FrameConfig()
    if not isinstance(frame_doc, dict):
        errors.append("frame: expected an object")
    else:
        allowed = set(FrameConfig().to_dict())
        _check_keys(frame_doc, allowed, "frame.", errors)
        fields = {}
        for key in allowed & set(frame_doc):
            if key == "bandwidth_hz" or key == "code_rate":
                v = _get_num(frame_doc, key, "frame.", errors)
            else:
                v = _get_int(frame_doc, key, "frame.", errors)
            if v is not None:
                fields[key] = v
        frame = FrameConfig(**{**FrameConfig().to_dict(), **fields})
        for msg in validate_config(frame):
            errors.append(f"frame: {msg}")

    scn = Scenario(name=name, frame=frame)

    # info bits -----------------------------------------------------------
    info_doc = doc.get("info_bits", {})
    if not isinstance(info_doc, dict):
        errors.append("info_bits: expected an object")
    else:
        _check_keys(info_doc, {"seed", "count", "known"}, "info_bits.", errors)
        scn.info_seed = _get_int(info_doc, "seed", "info_bits.", errors, 1)
        if info_doc.get("count") is not None:
            scn.info_count = _get_int(info_doc, "count", "info_bits.", errors)
            if scn.info_count is not None and scn.info_count <= 0:
                errors.append("info_bits.count: must be positive")
        scn.info_known = _get_bool(info_doc, "known", "info_bits.", errors, True)

    # channel -------------------------------------------------------------
    if "channel" in doc:
        ch = doc["channel"]
        if not isinstance(ch, dict):
            errors.append("channel: expected an object")
        else:
            scn.has_channel = True
            _check_keys(ch, {"paths", "impairments"}, "channel.", errors)
            paths = ch.get("paths")
            if not isinstance(paths, list) or not paths:
                errors.append("channel.paths: expected a non-empty array")
            else:
                for i, p in enumerate(paths):
                    where = f"channel.paths[{i}]."
                    if not isinstance(p, dict):
                        errors.append(f"channel.paths[{i}]: expected an object")
                        continue
                    _check_keys(p, {"gain_db", "delay_ns", "doppler_hz",
                                    "phase_deg", "is_main"}, where, errors)
                    gain_db = _get_num(p, "gain_db", where, errors, required=True)
                    delay_ns = _get_num(p, "delay_ns", where, errors, required=True)
                    if delay_ns is not None and delay_ns < 0:
                        errors.append(f"{where}delay_ns: must be non-negative")
                    spec = PathSpec(
                        gain_db=gain_db if gain_db is not None else 0.0,
                        delay_ns=delay_ns if delay_ns is not None else 0.0,
                        doppler_hz=_get_num(p, "doppler_hz", where, errors, 0.0),
                        phase_deg=_get_num(p, "phase_deg", where, errors, 0.0),
                        is_main=_get_bool(p, "is_main", where, errors, False),
                    )
                    scn.paths.append(spec)
                mains = sum(1 for p in scn.paths if p.is_main)
                if mains != 1:
                    errors.append(f"channel.paths: exactly one path must set is_main (got {mains})")
                else:
                    main = next(p for p in scn.paths if p.is_main)
                    for i, p in enumerate(scn.paths):
                        if not p.is_main and p.gain_db >= main.gain_db:
                            errors.append(f"channel.paths[{i}].gain_db: secondary path "
                                          "must be weaker than the main path")
            imp = ch.get("impairments", {})
            if not isinstance(imp, dict):
                errors.append("channel.impairments: expected an object")
            else:
                where = "channel.impairments."
                _check_keys(imp, {"sto_samples", "cfo_hz", "cpo_rad", "sfo_norm",
                                  "snr_db", "noise_seed"}, where, errors)
                scn.sto_samples = _get_num(imp, "sto_samples", where, errors, 0.0)
                scn.cfo_hz = _get_num(imp, "cfo_hz", where, errors, 0.0)
                scn.cpo_rad = _get_num(imp, "cpo_rad", where, errors, 0.0)
                scn.sfo_norm = _get_num(imp, "sfo_norm", where, errors, 0.0)
                scn.snr_db = _get_num(imp, "snr_db", where, errors, None, allow_none=True)
                scn.noise_seed = _get_int(imp, "noise_seed", where, errors, 0)
                if scn.sfo_norm is not None and abs(scn.sfo_norm) >= SFO_BOUND:
                    errors.append(f"{where}sfo_norm: |value| must be below {SFO_BOUND}")
                if scn.sto_samples is not None and scn.sto_samples < 0:
                    errors.append(f"{where}sto_samples: must be non-negative")

    # receiver ------------------------------------------------------------
    rx = doc.get("receiver", {})
    if not isinstance(rx, dict):
        errors.append("receiver: expected an object")
    else:
        _check_keys(rx, {"correct_sfo", "residual_sfo_compensation"}, "receiver.", errors)
        scn.correct_sfo = _get_bool(rx, "correct_sfo", "receiver.", errors, True)
        scn.residual_sfo_compensation = _get_bool(
            rx, "residual_sfo_compensation", "receiver.", errors, True)

    # sensing -------------------------------------------------------------
    sensing = doc.get("sensing", {})
    if not isinstance(sensing, dict):
        errors.append("sensing: expected an object")
    else:
        _check_keys(sensing, {"modes", "zero_pad", "window", "peak_threshold_db",
                              "max_peaks", "write_map_csv"}, "sensing.", errors)
        modes = sensing.get("modes", ["pilot_only"])
        if not isinstance(modes, list):
            errors.append("sensing.modes: expected an array")
        else:
            parsed = []
            for i, m in enumerate(modes):
                try:
                    parsed.append(SensingMode(m))
                except ValueError:
                    valid = ", ".join(x.value for x in SensingMode)
                    errors.append(f"sensing.modes[{i}]: {m!r} is not one of {valid}")
            scn.sensing_modes = parsed
        zp = _get_int(sensing, "zero_pad", "sensing.", errors, 2)
        if zp is not None and zp < 1:
            errors.append("sensing.zero_pad: must be >= 1")
        else:
            scn.zero_pad = zp if zp else 2
        window = sensing.get("window", "hamming")
        if window not in ("hamming", "rect"):
            errors.append(f"sensing.window: {window!r} is not one of hamming, rect")
        else:
            scn.window = window
        thr = _get_num(sensing, "peak_threshold_db", "sensing.", errors, -40.0)
        if thr is not None and thr >= 0:
            errors.append("sensing.peak_threshold_db: must be negative (relative to peak)")
        else:
            scn.peak_threshold_db = thr
        mp = _get_int(sensing, "max_peaks", "sensing.", errors, 10)
        if mp is not None and mp < 1:
            errors.append("sensing.max_peaks: must be >= 1")
        else:
            scn.max_peaks = mp if mp else 10
        scn.write_map_csv = _get_bool(sensing, "write_map_csv", "sensing.", errors, True)

    # outputs -------------------------------------------------------------
    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        errors.append("outputs: expected an object")
    else:
        _check_keys(outputs, {"write_iq"}, "outputs.", errors)
        scn.write_iq = _get_bool(outputs, "write_iq", "outputs.", errors, False)

    if not errors:
        _check_sample_budget(scn, errors)
        _check_map_budget(scn, errors)
    if errors:
        raise ScenarioFileError(errors)
    return scn


def _check_sample_budget(scn: Scenario, errors: list[str]) -> None:
    """The frame and the channel stream must fit `dsp.MAX_STREAM_SAMPLES`;
    the diagnostic names the field that sets the length."""
    budget = dsp.MAX_STREAM_SAMPLES
    n_tx = scn.frame.frame_len
    if n_tx > budget:
        errors.append(f"frame: a frame of {n_tx} samples exceeds the sample budget "
                      f"of {budget}")
        return
    if not scn.has_channel:
        return
    fs = scn.frame.bandwidth_hz
    i, worst = max(enumerate(scn.paths), key=lambda ip: ip[1].delay_ns)
    # the channel's own output length, in the same float arithmetic; a huge
    # extent is rejected before it is rounded to an integer
    extent = (worst.delay_ns * 1e-9 + scn.sto_samples / fs) * fs
    if extent > budget or stream_len(n_tx, extent) > budget:
        where = (f"channel.paths[{i}].delay_ns" if worst.delay_ns * 1e-9 * fs >= scn.sto_samples
                 else "channel.impairments.sto_samples")
        errors.append(f"{where}: a delay plus STO of {extent:.6g} samples makes the channel "
                      f"stream longer than the sample budget of {budget}")


def _check_map_budget(scn: Scenario, errors: list[str]) -> None:
    """Every configured sensing mode's map must fit `radar.MAX_MAP_CELLS`."""
    budget = radar_mod.MAX_MAP_CELLS
    for mode in scn.sensing_modes:
        cells = radar_mod.map_cells(scn.frame, mode, scn.zero_pad)
        if cells > budget:
            errors.append(f"sensing.zero_pad: a {mode.value} map of {cells} cells at "
                          f"zero_pad {scn.zero_pad} exceeds the map budget of {budget} cells")


def channel_from_scenario(scn: Scenario) -> ChannelScenario:
    if not scn.has_channel:
        raise PipelineError("channel", "scenario declares no channel section")
    paths = tuple(
        PropagationPath(
            gain=10.0 ** (p.gain_db / 20.0) * complex(math.cos(math.radians(p.phase_deg)),
                                                      math.sin(math.radians(p.phase_deg))),
            delay_s=p.delay_ns * 1e-9,
            doppler_hz=p.doppler_hz,
            is_main=p.is_main,
        )
        for p in scn.paths
    )
    imp = ImpairmentSet(
        sto_s=scn.sto_samples / scn.frame.bandwidth_hz,
        cfo_hz=scn.cfo_hz,
        cpo_rad=scn.cpo_rad,
        sfo_norm=scn.sfo_norm,
        snr_db=scn.snr_db,
        noise_seed=scn.noise_seed,
    )
    return ChannelScenario(paths=paths, impairments=imp)


def generate_info_bits(scn: Scenario) -> np.ndarray:
    max_info, _ = frame_capacity_bits(scn.frame)
    count = scn.info_count if scn.info_count is not None else max_info
    if count > max_info:
        raise PipelineError("tx", f"info_bits.count {count} exceeds frame capacity {max_info}")
    rng = np.random.default_rng(scn.info_seed)
    return rng.integers(0, 2, count, dtype=np.uint8)


# ---------------------------------------------------------------------------
# artifact writing

def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.9g", delimiter=",", header=header, comments="")


def run_receive_pipeline(stream: IqStream, scn: Scenario, outdir: Path,
                         tx_refs: dict | None = None) -> dict:
    """Sync -> comm -> radar on a sample stream; writes all RX artifacts.

    ``tx_refs`` optionally carries the known transmit side (info/coded bits,
    data symbols, codeword count) so error rates and EVM use true references.
    Returns a summary dict (also written as comm_metrics.json).
    """
    cfg = scn.frame

    try:
        payload_stream, report = synchronize(stream, cfg, correct_sfo=scn.correct_sfo)
    except SyncError as exc:
        raise PipelineError(f"sync.{exc.stage}", str(exc)) from exc

    try:
        rg = demodulate_frame(payload_stream, cfg)
        doppler_hz, rg = estimate_main_doppler(rg, cfg)
        est = estimate_cfr(rg, cfg)
        est.main_doppler_hz = doppler_hz
        if scn.residual_sfo_compensation:
            rg, est = compensate_residual_sfo(rg, est, cfg)
        delays, mag_db = cir_evolution(rg, cfg)
    except Exception as exc:
        raise PipelineError("comm.estimation", str(exc)) from exc

    _write_csv(outdir / "cir_evolution.csv",
               "pilot_symbol_index,delay_samples,delay_ns,mag_db",
               [frame_tables(cfg).m_pil.astype(float), delays,
                delays / cfg.bandwidth_hz * 1e9, mag_db])

    try:
        s_hat, noise_vars, erased = equalize(rg, est.cfr, cfg)
        code = default_code()
        max_info, _ = frame_capacity_bits(cfg)
        info_len = scn.info_count if scn.info_count is not None else max_info
        n_cw = max(1, -(-info_len // code.k))
        tx_info = tx_refs.get("info_bits") if tx_refs else None
        tx_coded = tx_refs.get("coded_bits") if tx_refs else None
        info_hat, metrics = demap_decode(s_hat, noise_vars, cfg, n_cw, info_len,
                                         tx_info_bits=tx_info, tx_coded_bits=tx_coded)
        ref_syms = tx_refs.get("data_symbols") if tx_refs else None
        metrics.evm_rms_percent = evm_rms_percent(s_hat, ref_syms)
        metrics.slope_fit_warning = est.slope_fit_warning
    except Exception as exc:
        raise PipelineError("comm.decode", str(exc)) from exc

    density, edges = constellation_density(s_hat)
    centers = 0.5 * (edges[:-1] + edges[1:])
    re_c, im_c = np.meshgrid(centers, centers, indexing="ij")
    keep = density.reshape(-1) > 0
    _write_csv(outdir / "constellation.csv", "re,im,density",
               [re_c.reshape(-1)[keep], im_c.reshape(-1)[keep],
                density.reshape(-1)[keep]])

    detections_rows: list[tuple] = []
    for mode in scn.sensing_modes:
        try:
            cfr_s = radar_mod.cfr_for_sensing(rg, cfg, mode, decoded_info_bits=info_hat)
            rd = radar_mod.range_doppler(cfr_s, cfg, mode,
                                         window_kind=scn.window,
                                         zero_pad=scn.zero_pad)
            dets = radar_mod.extract_peaks(rd, scn.peak_threshold_db,
                                           max_peaks=scn.max_peaks)
        except Exception as exc:
            raise PipelineError(f"radar.{mode.value}", str(exc)) from exc
        if scn.write_map_csv:
            rr, dd = np.meshgrid(rd.range_axis_m, rd.doppler_axis_hz, indexing="ij")
            _write_csv(outdir / f"rd_map_{mode.value}.csv",
                       "range_m,doppler_hz,mag_db",
                       [rr.reshape(-1), dd.reshape(-1),
                        rd.magnitude_db.reshape(-1)])
        for d in dets:
            detections_rows.append((mode.value, d.rel_bistatic_range_m,
                                    d.doppler_shift_hz, d.magnitude_db))

    with open(outdir / "detections.csv", "w") as f:
        f.write("mode,rel_bistatic_range_m,doppler_hz,mag_db\n")
        for row in detections_rows:
            f.write(f"{row[0]},{row[1]:.9g},{row[2]:.9g},{row[3]:.9g}\n")

    _write_json(outdir / "sync_report.json", report.to_dict())
    summary = metrics.to_dict()
    summary["main_doppler_hz"] = float(doppler_hz)
    summary["residual_delay_slope_s_per_symbol"] = float(est.delay_slope)
    summary["info_bits_decoded"] = int(info_hat.size)
    _write_json(outdir / "comm_metrics.json", summary)
    return summary


def _tx_refs(frame: FrameGrid, payload: PayloadBits) -> dict:
    """Known transmit side (info/coded bits, data symbols) for error rates
    and EVM."""
    return {
        "info_bits": payload.info_bits,
        "coded_bits": payload.coded_bits,
        "data_symbols": symbols_from_grid(frame),
    }


def run_scenario(scn: Scenario, outdir: str | Path) -> dict:
    """Full simulation: TX frame, channel, receive pipeline, artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        frame, payload, tx_stream = build_tx_frame(scn.frame, generate_info_bits(scn))
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("tx", str(exc)) from exc
    try:
        ch = channel_from_scenario(scn)
        rx_stream = run_channel(tx_stream, ch)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("channel", str(exc)) from exc

    if scn.write_iq:
        from .iqfile import write_iq
        write_iq(outdir / "tx.iq", tx_stream, metadata={"scenario": scn.name})
        write_iq(outdir / "rx.iq", rx_stream, metadata={"scenario": scn.name})

    # the data symbols are taken after the channel's memory peak and the TX
    # grid is released before the receiver's (sync resampler) peak
    tx_refs = _tx_refs(frame, payload)
    del frame
    return run_receive_pipeline(rx_stream, scn, outdir, tx_refs)


def process_capture(iq_path: str | Path, scn: Scenario, outdir: str | Path) -> dict:
    """Receive pipeline on externally captured samples.

    When the scenario marks the payload as known (seeded), transmit-side
    references are regenerated so BER/EVM are measured against truth.
    """
    from .iqfile import read_iq
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stream = read_iq(iq_path)
    tx_refs = None
    if scn.info_known:
        # the references need the payload grid, not the modulated samples
        payload, symbols = map_payload(generate_info_bits(scn), scn.frame)
        tx_refs = _tx_refs(assemble_frame(scn.frame, symbols), payload)
    return run_receive_pipeline(stream, scn, outdir, tx_refs)
