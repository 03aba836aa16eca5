"""Scenario files: JSON schema validation and the end-to-end pipeline runner.

A scenario bundles a frame configuration, an optional channel description
(paths + impairments), receiver stage toggles, sensing settings and output
options. Validation reads one table of field rows and returns dotted-path
diagnostics ("channel.paths[0].delay_ns: missing required field") so a bad
file can be fixed without reading source code. The runner executes TX ->
channel -> sync -> comm -> radar, each stage tagging its failures, and writes
a fixed artifact set into an output directory.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dsp, radar as radar_mod
from .channel import (ChannelScenario, ImpairmentSet, PropagationPath,
                      max_delay_samples, run_channel, stream_len)
from .commrx import (cir_evolution, compensate_residual_sfo,
                     constellation_density, demap_decode, demodulate_frame,
                     equalize, estimate_cfr, estimate_main_doppler,
                     evm_rms_percent)
from .ldpc import default_code
from .params import (QPSK_BITS, SFO_BOUND, ConfigError, FrameConfig,
                     PipelineError, SensingMode)
from .sync import synchronize
from .txframe import (IqStream, PayloadBits, build_tx_frame, codeword_count,
                      frame_capacity_bits, frame_tables, map_payload,
                      symbols_from_grid)


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a `PipelineError` tagged with
    the stage `name`; one already tagged (``sync.<function>``) passes."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


@dataclass
class PathSpec:
    """One ``channel.paths`` entry as the file gives it: dB, ns, degrees."""
    gain_db: float
    delay_ns: float
    doppler_hz: float = 0.0
    phase_deg: float = 0.0
    is_main: bool = False

    def path(self) -> PropagationPath:
        phase = math.radians(self.phase_deg)
        gain = 10.0 ** (self.gain_db / 20.0) * complex(math.cos(phase), math.sin(phase))
        return PropagationPath(gain, self.delay_ns * 1e-9, self.doppler_hz, self.is_main)


@dataclass
class Scenario:
    name: str
    frame: FrameConfig
    info_seed: int = 1
    info_count: int | None = None       # None = fill the frame
    info_known: bool = True             # False for blind external captures
    channel: ChannelScenario | None = None  # None = no channel section
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
# schema validation: one table of field rows, one walker

_BAD = object()  # a value that did not parse
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_FRAME_BOUNDS = {"pilot_seed": _NON_NEGATIVE, "preamble_seed": _NON_NEGATIVE}
# Bound on a path gain or an SNR in dB, far beyond any physical link budget.
# Within it the linear gain, the noise variance and the stream powers stay
# finite and non-zero: a +500 dB path under -500 dB SNR makes samples of
# power 1e100, whose power sums stay far inside the float range.
_DB_BOUND = (lambda v: abs(v) <= 500.0, "|value| must be at most 500 dB")
# Bound on a frequency offset in Hz, far beyond any link: the phase
# 2*pi*f*n/fs of any stream within `dsp.MAX_STREAM_SAMPLES` at a rate of at
# least 1 Hz stays below 2e23 rad, so every phasor is finite.
_HZ_BOUND = (lambda v: abs(v) <= 1e15, "|value| must be at most 1e15 Hz")

# (section, key, attribute it fills, kind, bound as (test, message)). The
# attribute is a FrameConfig field in "frame", a PathSpec field in
# "channel.paths", an ImpairmentSet field in "channel.impairments" (but
# sto_samples, converted to its sto_s) and a Scenario field elsewhere; that
# dataclass holds the default, and a field without one is required. Rows are
# checked in order.
_ROWS = [
    *(("frame", f.name, f.name, "number" if isinstance(f.default, float) else "integer",
       _FRAME_BOUNDS.get(f.name)) for f in fields(FrameConfig)),
    ("info_bits", "seed", "info_seed", "integer", _NON_NEGATIVE),
    ("info_bits", "count", "info_count", "integer?", (lambda v: v > 0, "must be positive")),
    ("info_bits", "known", "info_known", "bool", None),
    ("channel.paths", "gain_db", "gain_db", "number", _DB_BOUND),
    ("channel.paths", "delay_ns", "delay_ns", "number", _NON_NEGATIVE),
    ("channel.paths", "doppler_hz", "doppler_hz", "number", _HZ_BOUND),
    ("channel.paths", "phase_deg", "phase_deg", "number", None),
    ("channel.paths", "is_main", "is_main", "bool", None),
    ("channel.impairments", "sto_samples", "sto_samples", "number", _NON_NEGATIVE),
    ("channel.impairments", "cfo_hz", "cfo_hz", "number", _HZ_BOUND),
    ("channel.impairments", "cpo_rad", "cpo_rad", "number", None),
    ("channel.impairments", "sfo_norm", "sfo_norm", "number",
     (lambda v: abs(v) < SFO_BOUND, f"|value| must be below {SFO_BOUND}")),
    ("channel.impairments", "snr_db", "snr_db", "number?", _DB_BOUND),
    ("channel.impairments", "noise_seed", "noise_seed", "integer", _NON_NEGATIVE),
    ("receiver", "correct_sfo", "correct_sfo", "bool", None),
    ("receiver", "residual_sfo_compensation", "residual_sfo_compensation", "bool", None),
    ("sensing", "modes", "sensing_modes", [{m.value: m for m in SensingMode}], None),
    ("sensing", "zero_pad", "zero_pad", "integer", _AT_LEAST_ONE),
    ("sensing", "window", "window", {"hamming": "hamming", "rect": "rect"}, None),
    ("sensing", "peak_threshold_db", "peak_threshold_db", "number",
     (lambda v: v < 0, "must be negative (relative to peak)")),
    ("sensing", "max_peaks", "max_peaks", "integer", _AT_LEAST_ONE),
    ("sensing", "write_map_csv", "write_map_csv", "bool", None),
    ("outputs", "write_iq", "write_iq", "bool", None),
]


def _parse(v, kind, at: str, errors: list[str]):
    """A JSON value of one kind: "number", "integer" or "bool" (a trailing
    "?" admits null), a dict of choices, or a list holding one dict (an
    array of distinct choices). Reports a value that does not parse,
    returning _BAD."""
    if isinstance(kind, list):
        if not isinstance(v, list):
            errors.append(f"{at}: expected an array")
            return _BAD
        items = [_parse(x, kind[0], f"{at}[{i}]", errors) for i, x in enumerate(v)]
        if any(x is _BAD for x in items):
            return _BAD
        repeats = [f"{at}[{i}]: {x!r} is listed twice" for i, x in enumerate(v) if x in v[:i]]
        errors.extend(repeats)
        return _BAD if repeats else items
    if isinstance(kind, dict):
        if isinstance(v, str) and v in kind:
            return kind[v]
        errors.append(f"{at}: {v!r} is not one of {', '.join(kind)}")
    elif v is None and kind.endswith("?"):
        return None
    elif kind == "bool":
        if isinstance(v, bool):
            return v
        errors.append(f"{at}: expected true/false")
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{at}: expected a number, got {type(v).__name__}")
    elif not -sys.float_info.max <= v <= sys.float_info.max:  # NaN, inf, or too large
        errors.append(f"{at}: expected a finite number")
    elif kind.startswith("number"):
        return v
    elif isinstance(v, int) or v.is_integer():
        return int(v)
    else:
        errors.append(f"{at}: expected an integer")
    return _BAD


def _walk(obj, section: str, cls, errors: list[str], where: str = "") -> dict:
    """Check the JSON object `obj` against the rows of `section`. Returns the
    values that parsed, by attribute; an absent key keeps the default of
    `cls`."""
    where = where or section
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object")
        return {}
    rows = [row for row in _ROWS if row[0] == section]
    keys = {row[1] for row in rows}
    errors.extend(f"{where}.{key}: unknown field" for key in obj if key not in keys)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for _, key, attr, kind, bound in rows:
        at = f"{where}.{key}"
        if key not in obj:
            if attr in required:
                errors.append(f"{at}: missing required field")
            continue
        v = _parse(obj[key], kind, at, errors)
        if v is not _BAD and v is not None and bound and not bound[0](v):
            errors.append(f"{at}: {bound[1]}")
        elif v is not _BAD:
            values[attr] = v
    return values


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises ConfigError carrying every diagnostic found, each prefixed
    with the dotted path of the offending field. The cross-field checks run
    only on a file whose every field parsed.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"scenario file not found: {path}"])
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON at line {exc.lineno}: {exc.msg}"])
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])

    errors: list[str] = []
    errors.extend(f"{key}: unknown field" for key in doc if key not in (
        "name", "frame", "info_bits", "channel", "receiver", "sensing", "outputs"))
    name = doc.get("name", path.stem)
    if not isinstance(name, str):
        errors.append("name: expected a string")
    frame = _walk(doc.get("frame", {}), "frame", FrameConfig, errors)
    values = _walk(doc.get("info_bits", {}), "info_bits", Scenario, errors)
    paths: list[dict] | None = None
    impairments: dict = {}
    if "channel" in doc:
        ch = doc["channel"]
        if not isinstance(ch, dict):
            errors.append("channel: expected an object")
        else:
            errors.extend(f"channel.{key}: unknown field" for key in ch
                          if key not in ("paths", "impairments"))
            path_docs = ch.get("paths")
            if not isinstance(path_docs, list) or not path_docs:
                errors.append("channel.paths: expected a non-empty array")
            else:
                paths = [_walk(p, "channel.paths", PathSpec, errors, f"channel.paths[{i}]")
                         for i, p in enumerate(path_docs)]
            impairments = _walk(ch.get("impairments", {}), "channel.impairments",
                                ImpairmentSet, errors)
    for section in ("receiver", "sensing", "outputs"):
        values.update(_walk(doc.get(section, {}), section, Scenario, errors))
    if errors:
        raise ConfigError(errors)

    cfg = channel = None
    try:
        cfg = FrameConfig(**frame)
    except ConfigError as exc:
        errors.extend(f"frame: {msg}" for msg in exc.violations)
    if paths is not None:
        # without a valid frame there is no rate for the STO; the paths are
        # still checked
        sto_samples = impairments.pop("sto_samples", 0.0)
        sto_s = sto_samples / cfg.bandwidth_hz if cfg is not None else 0.0
        try:
            channel = ChannelScenario(
                paths=tuple(PathSpec(**p).path() for p in paths),
                impairments=ImpairmentSet(sto_s=sto_s, **impairments))
        except ConfigError as exc:
            errors.extend(f"channel.{msg}" for msg in exc.violations)
    if errors:
        raise ConfigError(errors)
    scn = Scenario(name=name, frame=cfg, channel=channel, **values)
    for check in (_check_sample_budget, _check_capacity, _check_map_budget):
        check(scn, errors)
    if errors:
        raise ConfigError(errors)
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
    if scn.channel is None:
        return
    # a huge extent is rejected before it is rounded to an integer
    extent = max_delay_samples(scn.channel, scn.frame.bandwidth_hz)
    if extent > budget or stream_len(n_tx, extent) > budget:
        i, worst = max(enumerate(scn.channel.paths), key=lambda ip: ip[1].delay_s)
        where = (f"channel.paths[{i}].delay_ns" if worst.delay_s >= scn.channel.impairments.sto_s
                 else "channel.impairments.sto_samples")
        errors.append(f"{where}: a delay plus STO of {extent:.6g} samples makes the channel "
                      f"stream longer than the sample budget of {budget}")


def _check_capacity(scn: Scenario, errors: list[str]) -> None:
    """The frame must carry a codeword, and the info bits must fit in it."""
    max_info, n_cw = frame_capacity_bits(scn.frame)
    if n_cw == 0:
        cells = scn.frame.n_data_elements
        errors.append(f"frame: its {cells} data cells carry {cells * QPSK_BITS} coded bits, "
                      f"fewer than one codeword of {default_code().n}")
    elif scn.info_count is not None and scn.info_count > max_info:
        errors.append(f"info_bits.count: {scn.info_count} exceeds the frame capacity of "
                      f"{max_info} info bits")


def _check_map_budget(scn: Scenario, errors: list[str]) -> None:
    """Every configured sensing mode's map must fit `radar.MAX_MAP_CELLS`."""
    budget = radar_mod.MAX_MAP_CELLS
    for mode in scn.sensing_modes:
        cells = radar_mod.map_cells(scn.frame, mode, scn.zero_pad)
        if cells > budget:
            errors.append(f"sensing.zero_pad: a {mode.value} map of {cells} cells at "
                          f"zero_pad {scn.zero_pad} exceeds the map budget of {budget} cells")


def channel_from_scenario(scn: Scenario) -> ChannelScenario | None:
    """The scenario's channel, as `load_scenario` built it."""
    return scn.channel


def info_length(scn: Scenario) -> int:
    """Info bits per frame: ``info_bits.count``, or the frame capacity."""
    return scn.info_count if scn.info_count is not None else frame_capacity_bits(scn.frame)[0]


def generate_info_bits(scn: Scenario) -> np.ndarray:
    rng = np.random.default_rng(scn.info_seed)
    return rng.integers(0, 2, info_length(scn), dtype=np.uint8)


# ---------------------------------------------------------------------------
# artifact writing

def _json_safe(v):
    """``v`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_json_safe(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _write_json(path: Path, obj: dict) -> None:
    text = json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


_CSV_CELLS = 1 << 14  # about the lines formatted per block


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    """One line per element of the equally shaped `columns`, in C order,
    each value as "%.9g": the lines `np.savetxt` writes. Blocks of leading
    rows, about `_CSV_CELLS` lines each, are stacked and formatted one at a
    time, so the stacked columns never exist whole."""
    rows = max(1, _CSV_CELLS // max(1, math.prod(columns[0].shape[1:])))
    line = ",".join(["%.9g"] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start:start + rows].reshape(-1) for c in columns])
            f.write("".join([line % tuple(r) for r in block.tolist()]))


def _write_map_csv(path: Path, rd: radar_mod.RangeDopplerMap) -> None:
    shape = rd.magnitude_db.shape
    _write_csv(path, "range_m,doppler_hz,mag_db",
               [np.broadcast_to(rd.range_axis_m[:, None], shape),
                np.broadcast_to(rd.doppler_axis_hz, shape), rd.magnitude_db])


def run_receive_pipeline(stream: IqStream, scn: Scenario, outdir: Path,
                         payload: PayloadBits | None = None,
                         tx_symbols: np.ndarray | None = None) -> dict:
    """Sync -> comm -> radar on a sample stream; writes all RX artifacts
    into the existing directory ``outdir``.

    The known transmit side, when given, sets the references of the error
    rates (``payload``'s info and coded bits) and of the EVM (the data
    symbols ``tx_symbols``). Returns a summary dict (also written as
    comm_metrics.json).

    Each stream- or grid-sized array is let go after its last reader: the
    stream once synchronized, the payload samples once demodulated, the CFR
    once equalized, the noise variances once decoded, the equalized symbols
    once binned, each sensing CFR once its detections (and, with
    ``write_map_csv``, its map) are made, each map once written. The callers
    in this module pass the stream straight from the call that makes it,
    keeping no reference, so its memory is free for the stages after sync.
    """
    cfg = scn.frame

    with _stage("sync"):
        payload_samples, report = synchronize(stream, cfg, correct_sfo=scn.correct_sfo)
    del stream

    with _stage("comm.estimation"):
        grid = demodulate_frame(payload_samples, cfg)
        del payload_samples
        doppler_hz, grid = estimate_main_doppler(grid, cfg)
        est = estimate_cfr(grid, cfg)
        if scn.residual_sfo_compensation:
            grid, est = compensate_residual_sfo(grid, est, cfg)
        delays, mag_db = cir_evolution(grid, cfg)

    _write_csv(outdir / "cir_evolution.csv",
               "pilot_symbol_index,delay_samples,delay_ns,mag_db",
               [frame_tables(cfg).m_pil.astype(float), delays,
                delays / cfg.bandwidth_hz * 1e9, mag_db])

    with _stage("comm.decode"):
        s_hat, noise_vars, _ = equalize(grid, est.cfr, cfg)
        delay_slope, slope_fit_warning = est.delay_slope, est.slope_fit_warning
        del est
        info_len = info_length(scn)
        info_hat, metrics = demap_decode(
            s_hat, noise_vars, cfg, codeword_count(info_len), info_len,
            tx_info_bits=payload.info_bits if payload else None,
            tx_coded_bits=payload.coded_bits if payload else None)
        del noise_vars
        metrics.evm_rms_percent = evm_rms_percent(s_hat, tx_symbols)
        metrics.slope_fit_warning = slope_fit_warning

    density, edges = constellation_density(s_hat)
    del s_hat
    centers = 0.5 * (edges[:-1] + edges[1:])
    re_c, im_c = np.meshgrid(centers, centers, indexing="ij")
    keep = density.reshape(-1) > 0
    _write_csv(outdir / "constellation.csv", "re,im,density",
               [re_c.reshape(-1)[keep], im_c.reshape(-1)[keep],
                density.reshape(-1)[keep]])

    detections_rows: list[tuple] = []
    for mode in scn.sensing_modes:
        with _stage(f"radar.{mode.value}"):
            cfr_s = radar_mod.cfr_for_sensing(grid, cfg, mode, decoded_info_bits=info_hat)
            dets = radar_mod.detect(cfr_s, cfg, mode, scn.window, scn.zero_pad,
                                    scn.peak_threshold_db, scn.max_peaks)
            rd = (radar_mod.range_doppler(cfr_s, cfg, mode, window_kind=scn.window,
                                          zero_pad=scn.zero_pad)
                  if scn.write_map_csv else None)
        del cfr_s
        if rd is not None:
            _write_map_csv(outdir / f"rd_map_{mode.value}.csv", rd)
            del rd
        for d in dets:
            detections_rows.append((mode.value, d.rel_bistatic_range_m,
                                    d.doppler_shift_hz, d.magnitude_db))

    with open(outdir / "detections.csv", "w") as f:
        f.write("mode,rel_bistatic_range_m,doppler_hz,mag_db\n")
        for row in detections_rows:
            f.write(f"{row[0]},{row[1]:.9g},{row[2]:.9g},{row[3]:.9g}\n")

    _write_json(outdir / "sync_report.json", asdict(report))
    summary = asdict(metrics)
    summary["main_doppler_hz"] = float(doppler_hz)
    summary["residual_delay_slope_s_per_symbol"] = float(delay_slope)
    summary["info_bits_decoded"] = int(info_hat.size)
    _write_json(outdir / "comm_metrics.json", summary)
    return summary


def _make_outdir(outdir: str | Path) -> Path:
    """Create the output directory; one that cannot be made is an input error."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create output directory {outdir}: {exc.strerror}"]) from exc
    return outdir


def run_scenario(scn: Scenario, outdir: str | Path) -> dict:
    """Full simulation: TX frame, channel, receive pipeline, artifacts. A
    scenario without a channel is rejected before any work."""
    if scn.channel is None:
        raise ConfigError(["channel: missing section, which run needs"])
    outdir = _make_outdir(outdir)
    with _stage("tx"):
        grid, payload, tx_stream = build_tx_frame(scn.frame, generate_info_bits(scn))
    # the data symbols are the EVM reference; the grid is released before
    # the channel runs
    tx_symbols = symbols_from_grid(grid, scn.frame)
    del grid

    def channel_output() -> IqStream:
        """The received stream. Its TX stream is released once it is made
        (and written, with ``write_iq``): a closure, so that this drops
        run_scenario's own reference. The receiver gets the result as a
        temporary, so it holds the only reference and drops it after sync."""
        nonlocal tx_stream
        with _stage("channel"):
            rx_stream = run_channel(tx_stream, scn.channel)
        if scn.write_iq:
            from .iqfile import write_iq
            write_iq(outdir / "tx.iq", tx_stream, metadata={"scenario": scn.name})
            write_iq(outdir / "rx.iq", rx_stream, metadata={"scenario": scn.name})
        del tx_stream
        return rx_stream

    return run_receive_pipeline(channel_output(), scn, outdir, payload, tx_symbols)


def _read_capture(iq_path: str | Path, scn: Scenario) -> IqStream:
    """The capture's samples; its sample rate must be the frame's
    ``bandwidth_hz``."""
    from .iqfile import read_iq
    stream = read_iq(iq_path)
    if stream.nominal_rate != scn.frame.bandwidth_hz:
        raise ConfigError([f"capture sample_rate_hz {stream.nominal_rate:g} differs from "
                           f"frame.bandwidth_hz {scn.frame.bandwidth_hz:g}"])
    return stream


def process_capture(iq_path: str | Path, scn: Scenario, outdir: str | Path) -> dict:
    """Receive pipeline on externally captured samples.

    The capture's sample rate must be the frame's ``bandwidth_hz``. When
    the scenario marks the payload as known (seeded), transmit-side
    references are regenerated so BER/EVM are measured against truth. The
    capture, then the output directory, are checked before the receiver runs.
    """
    payload = tx_symbols = None
    if scn.info_known:
        # the references need the data symbols, not the modulated samples
        with _stage("tx"):
            payload, tx_symbols = map_payload(generate_info_bits(scn), scn.frame)
    return run_receive_pipeline(_read_capture(iq_path, scn), scn, _make_outdir(outdir),
                                payload, tx_symbols)
