"""Command-line interface: scenario runs, captures and parameter reports."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bistatic_radcom import dsp, ldpc, radar, scenario
from bistatic_radcom.channel import apply_paths_and_cfo, run_channel
from bistatic_radcom.cli import EXIT_INPUT, EXIT_OK, EXIT_PIPELINE, main
from bistatic_radcom.commrx import demodulate_frame
from bistatic_radcom.iqfile import read_iq, write_iq
from bistatic_radcom.params import ConfigError, SensingMode
from bistatic_radcom.scenario import channel_from_scenario, generate_info_bits, load_scenario
from bistatic_radcom.txframe import IqStream, build_tx_frame

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def desk_scenario(**over):
    doc = {
        "name": "desk",
        "frame": {"n_subcarriers": 256, "cp_len": 64, "m_payload": 128},
        "info_bits": {"seed": 3},
        "channel": {
            "paths": [
                {"gain_db": 0.0, "delay_ns": 0.0, "is_main": True},
                {"gain_db": -20.0, "delay_ns": 12.0, "doppler_hz": 40e3},
            ],
            "impairments": {"sto_samples": 700, "cfo_hz": 5e6, "cpo_rad": 0.4,
                            "sfo_norm": 0.0, "snr_db": 20.0, "noise_seed": 9},
        },
        "receiver": {"correct_sfo": False},
        "sensing": {"modes": ["pilot_only"], "zero_pad": 4,
                    "peak_threshold_db": -35.0, "max_peaks": 4},
        "outputs": {"write_iq": False},
    }
    doc.update(over)
    return doc


def write_scn(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_params_reports_design_figures(tmp_path, capsys):
    p = write_scn(tmp_path, {"name": "full", "frame": {}})
    assert main(["params", str(p)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "processing_gain_full_db = 69.24" in out
    assert "processing_gain_pilot_db = 60.21" in out
    assert "range_resolution_m = 0.2998" in out
    assert "max_unamb_range_full_m = 614.0" in out
    assert "max_unamb_range_pilot_m = 307.0" in out
    assert "max_isi_free_range_m = 153.5" in out
    assert "doppler_resolution_hz = 95.37" in out
    assert "max_unamb_doppler_full_khz = 195.31" in out
    assert "max_unamb_doppler_pilot_khz = 48.83" in out
    assert "max_ici_free_doppler_khz = 48.83" in out
    assert "data_rate_gbit_s = 0.93" in out


def test_params_short_payload_doppler_resolution(tmp_path, capsys):
    p = write_scn(tmp_path, {"name": "short", "frame": {"m_payload": 512}})
    assert main(["params", str(p)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "doppler_resolution_hz = 762.94" in out
    assert "data_rate_gbit_s = 0.91" in out


def test_run_desk_scenario_produces_artifacts(tmp_path, capsys):
    scn = write_scn(tmp_path, desk_scenario())
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_OK
    for name in ("comm_metrics.json", "sync_report.json", "cir_evolution.csv",
                 "constellation.csv", "detections.csv", "rd_map_pilot_only.csv"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "comm_metrics.json").read_text())
    assert metrics["post_fec_ber"] == 0.0
    rep = json.loads((out / "sync_report.json").read_text())
    assert abs(rep["fine_start"] - 700) <= 1
    # detections: main path near zero relative range, echo near 12 ns
    rows = (out / "detections.csv").read_text().strip().splitlines()[1:]
    ranges = sorted(float(r.split(",")[1]) for r in rows)
    assert abs(ranges[0]) < 0.2
    assert any(abs(r - 12e-9 * 299792458.0) < 0.2 for r in ranges)


def ten_subcarrier_scenario():
    """The desk scenario on a 10-subcarrier frame with a CFO of 2 subcarrier
    spacings; one path, as the echo would outlast the 2-sample CP."""
    doc = desk_scenario(frame={"n_subcarriers": 10, "cp_len": 2, "m_payload": 64})
    doc["channel"]["paths"] = doc["channel"]["paths"][:1]
    doc["channel"]["impairments"]["cfo_hz"] = 2e8
    return doc


def test_ten_subcarrier_frame_decodes(tmp_path, capsys):
    """The integer-CFO search on a 10-subcarrier frame tests the even shifts
    0 and +-2, so a two-subcarrier CFO decodes without error."""
    scn = write_scn(tmp_path, ten_subcarrier_scenario())
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "comm_metrics.json").read_text())["post_fec_ber"] == 0.0
    rep = json.loads((out / "sync_report.json").read_text())
    assert rep["cfo_hat_hz"] == pytest.approx(2e8, abs=1e7)


def test_missing_required_field_exits_2_without_artifacts(tmp_path, capsys):
    doc = desk_scenario()
    del doc["channel"]["paths"][1]["delay_ns"]
    scn = write_scn(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "channel.paths[1].delay_ns" in err
    assert not out.exists()


DELETE = object()


def edited(doc, edits):
    """``doc`` with each dotted path (``channel.paths[1].delay_ns``) set to
    its value, or removed for DELETE."""
    for path, value in edits.items():
        node = doc
        *parents, last = [int(k) if k.isdigit() else k
                          for k in re.findall(r"[^.\[\]]+", path)]
        for k in parents:
            node = node[k]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc


BUDGET = f"the sample budget of {dsp.MAX_STREAM_SAMPLES}"
MAP_BUDGET = f"the map budget of {radar.MAX_MAP_CELLS} cells"
DB_BOUND = "|value| must be at most 500 dB"
HZ_BOUND = "|value| must be at most 1e15 Hz"
BANDWIDTH = "frame: bandwidth_hz must be between 1 Hz and 1 PHz"
WEAKER = "secondary path must be weaker than the main path in linear gain"

# One malformed edit of the desk scenario per case, with every diagnostic the
# validator reports for it, in order.
DIAGNOSTICS = {
    "unknown_top": ({"bogus": 1}, ["bogus: unknown field"]),
    "unknown_nested": ({"sensing.zero_padding": 4, "channel.paths[0].gain": 1.0},
                       ["channel.paths[0].gain: unknown field",
                        "sensing.zero_padding: unknown field"]),
    "missing_delay": ({"channel.paths[1].delay_ns": DELETE},
                      ["channel.paths[1].delay_ns: missing required field"]),
    "not_numbers": ({"frame.bandwidth_hz": True, "channel.impairments.cfo_hz": "fast",
                     "sensing.peak_threshold_db": None},
                    ["frame.bandwidth_hz: expected a number, got bool",
                     "channel.impairments.cfo_hz: expected a number, got str",
                     "sensing.peak_threshold_db: expected a number, got NoneType"]),
    "not_finite": ({"channel.paths[1].doppler_hz": float("-inf"),
                    "channel.impairments.snr_db": float("inf")},
                   ["channel.paths[1].doppler_hz: expected a finite number",
                    "channel.impairments.snr_db: expected a finite number"]),
    "not_integers": ({"sensing.max_peaks": 2.5, "info_bits.seed": 1.5,
                      "frame.m_payload": 128.0},
                     ["info_bits.seed: expected an integer",
                      "sensing.max_peaks: expected an integer"]),
    "not_bools": ({"receiver.correct_sfo": 1, "outputs.write_iq": "yes",
                   "info_bits.known": None, "channel.paths[0].is_main": True},
                  ["info_bits.known: expected true/false",
                   "receiver.correct_sfo: expected true/false",
                   "outputs.write_iq: expected true/false"]),
    "not_objects": ({"frame": [], "info_bits": 3, "receiver": "x", "sensing": [],
                     "outputs": 1},
                    ["frame: expected an object", "info_bits: expected an object",
                     "receiver: expected an object", "sensing: expected an object",
                     "outputs: expected an object"]),
    "channel_not_object": ({"channel": "x"}, ["channel: expected an object"]),
    "impairments_not_object": ({"channel.impairments": []},
                               ["channel.impairments: expected an object"]),
    "path_not_object": ({"channel.paths[1]": 5}, ["channel.paths[1]: expected an object"]),
    "paths_not_array": ({"channel.paths": {}},
                        ["channel.paths: expected a non-empty array"]),
    "paths_empty": ({"channel.paths": []}, ["channel.paths: expected a non-empty array"]),
    "modes_not_array": ({"sensing.modes": "pilot_only"},
                        ["sensing.modes: expected an array"]),
    "name_not_string": ({"name": 5}, ["name: expected a string"]),
    "delay_ns": ({"channel.paths[1].delay_ns": -1.0},
                 ["channel.paths[1].delay_ns: must be non-negative"]),
    "sto_samples": ({"channel.impairments.sto_samples": -1},
                    ["channel.impairments.sto_samples: must be non-negative"]),
    "sfo_norm": ({"channel.impairments.sfo_norm": -1e-3},
                 ["channel.impairments.sfo_norm: |value| must be below 0.001"]),
    "count": ({"info_bits.count": 0}, ["info_bits.count: must be positive"]),
    "zero_pad": ({"sensing.zero_pad": 0}, ["sensing.zero_pad: must be >= 1"]),
    "window": ({"sensing.window": "hann"},
               ["sensing.window: 'hann' is not one of hamming, rect"]),
    "peak_threshold_db": ({"sensing.peak_threshold_db": 0},
                          ["sensing.peak_threshold_db: must be negative (relative to peak)"]),
    "max_peaks": ({"sensing.max_peaks": 0}, ["sensing.max_peaks: must be >= 1"]),
    "modes": ({"sensing.modes": ["pilot_only", "radar", 3]},
              ["sensing.modes[1]: 'radar' is not one of pilot_only, full_frame",
               "sensing.modes[2]: 3 is not one of pilot_only, full_frame"]),
    "modes_repeated": ({"sensing.modes": ["pilot_only", "full_frame", "pilot_only"]},
                       ["sensing.modes[2]: 'pilot_only' is listed twice"]),
    "two_mains": ({"channel.paths[1].is_main": True},
                  ["channel.paths: exactly one path must set is_main (got 2)"]),
    "no_main": ({"channel.paths[0].is_main": False},
                ["channel.paths: exactly one path must set is_main (got 0)"]),
    "weaker": ({"channel.paths[1].gain_db": 0.0},
               [f"channel.paths[1]: {WEAKER}"]),
    # the frame's and the channel's own rules both report
    "frame_and_paths": ({"frame.m_sfo": 9, "channel.paths[1].is_main": True},
                        ["frame: m_sfo must be even",
                         "channel.paths: exactly one path must set is_main (got 2)"]),
    "frame_config": ({"frame.m_sfo": 9, "frame.cp_len": 300},
                     ["frame: m_sfo must be even",
                      "frame: cp_len must be smaller than n_subcarriers"]),
    # one pilot symbol: no pilot-to-pilot Doppler, drift or noise estimate
    "pilot_grid": ({"frame.m_payload": 4},
                   ["frame: the 128 x 1 pilot grid needs at least 2 pilot subcarriers "
                    "and 2 pilot symbols"]),
    "frame_budget": ({"frame.m_payload": 10 ** 7},
                     [f"frame: a frame of 3200003840 samples exceeds {BUDGET}",
                      "sensing.zero_pad: a pilot_only map of 5120000000 cells at zero_pad 4 "
                      f"exceeds {MAP_BUDGET}"]),
    "delay_budget": ({"channel.paths[1].delay_ns": 1e12},
                     ["channel.paths[1].delay_ns: a delay plus STO of 1e+12 samples makes "
                      f"the channel stream longer than {BUDGET}"]),
    "map_budget": ({"sensing.zero_pad": 1000},
                   ["sensing.zero_pad: a pilot_only map of 4096000000 cells at zero_pad 1000 "
                    f"exceeds {MAP_BUDGET}"]),
    "across_sections": ({"name": 5, "bogus": 1, "frame.m_sc": "b", "info_bits.known": 0,
                         "channel.paths[1].delay_ns": -2.0, "sensing.window": "x",
                         "outputs.write_iq": 1},
                        ["bogus: unknown field", "name: expected a string",
                         "frame.m_sc: expected a number, got str",
                         "info_bits.known: expected true/false",
                         "channel.paths[1].delay_ns: must be non-negative",
                         "sensing.window: 'x' is not one of hamming, rect",
                         "outputs.write_iq: expected true/false"]),
    # reported in schema order, whatever the hash seed
    "frame_fields": ({"frame.n_subcarriers": "a", "frame.cp_len": "b", "frame.m_payload": 1.5,
                      "frame.m_sfo": "c"},
                     ["frame.n_subcarriers: expected a number, got str",
                      "frame.cp_len: expected a number, got str",
                      "frame.m_sfo: expected a number, got str",
                      "frame.m_payload: expected an integer"]),
    # a field that did not parse gets no follow-on cross-field diagnostic
    "frame_follow_on": ({"frame.cp_len": "b"}, ["frame.cp_len: expected a number, got str"]),
    "main_not_bool": ({"channel.paths[0].is_main": "yes"},
                      ["channel.paths[0].is_main: expected true/false"]),
    "gain_missing": ({"channel.paths[1].gain_db": DELETE},
                     ["channel.paths[1].gain_db: missing required field"]),
    "gain_not_number": ({"channel.paths[1].gain_db": "loud"},
                        ["channel.paths[1].gain_db: expected a number, got str"]),
}


@pytest.mark.parametrize("case", DIAGNOSTICS)
def test_diagnostics_are_pinned(tmp_path, case):
    edits, expected = DIAGNOSTICS[case]
    scn = write_scn(tmp_path, edited(desk_scenario(), edits))
    with pytest.raises(ConfigError) as exc:
        load_scenario(scn)
    assert exc.value.violations == expected


def test_diagnostic_order_is_independent_of_hash_seed(tmp_path):
    scn = write_scn(tmp_path, edited(desk_scenario(), DIAGNOSTICS["frame_fields"][0]))
    code = ("import sys\n"
            "from bistatic_radcom.params import ConfigError\n"
            "from bistatic_radcom.scenario import load_scenario\n"
            "try:\n    load_scenario(sys.argv[1])\n"
            "except ConfigError as exc:\n    print(exc.violations)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    orders = set()
    for seed in ("1", "2", "3", "4"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code, str(scn)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        orders.add(out.stdout)
    assert orders == {f"{DIAGNOSTICS['frame_fields'][1]}\n"}


@pytest.mark.parametrize("edits, diagnostic", [
    ({"info_bits.seed": -1}, "info_bits.seed: must be non-negative"),
    ({"channel.impairments.noise_seed": -1},
     "channel.impairments.noise_seed: must be non-negative"),
    ({"frame.pilot_seed": -1}, "frame.pilot_seed: must be non-negative"),
    ({"frame.preamble_seed": -1}, "frame.preamble_seed: must be non-negative"),
    ({"info_bits.count": 38017},
     "info_bits.count: 38017 exceeds the frame capacity of 38016 info bits"),
    ({"frame.n_subcarriers": 8, "frame.cp_len": 1, "frame.m_payload": 8},
     "frame: its 56 data cells carry 112 coded bits, fewer than one codeword of 648"),
    # fine timing's +-cp_len window would reach the half-symbol copy of the
    # first Schmidl-Cox symbol
    ({"frame.n_subcarriers": 4, "frame.cp_len": 1, "frame.m_payload": 8},
     "frame: cp_len must be at most n_subcarriers / 2 - 3"),
    ({"frame.m_payload": 4},
     "frame: the 128 x 1 pilot grid needs at least 2 pilot subcarriers and 2 pilot symbols"),
    ({"frame.n_subcarriers": 255, "frame.pilot_freq_spacing": 3},
     "frame: n_subcarriers must be even"),
    ({"frame.code_rate": 0.5}, "frame.code_rate: unknown field"),
    ({"frame.bits_per_symbol": 2}, "frame.bits_per_symbol: unknown field"),
    ({"channel.paths[1].delay_ns": 10 ** 400},
     "channel.paths[1].delay_ns: expected a finite number"),
    # finite levels that would overflow the channel simulator or leave it a
    # NaN stream
    ({"channel.impairments.snr_db": 3100}, f"channel.impairments.snr_db: {DB_BOUND}"),
    ({"channel.impairments.snr_db": -3100}, f"channel.impairments.snr_db: {DB_BOUND}"),
    ({"channel.paths[0].gain_db": 8000}, f"channel.paths[0].gain_db: {DB_BOUND}"),
    ({"channel.paths[0].gain_db": -8000}, f"channel.paths[0].gain_db: {DB_BOUND}"),
    ({"channel.paths[0].gain_db": 3000}, f"channel.paths[0].gain_db: {DB_BOUND}"),
    ({"channel.paths[1].gain_db": -501}, f"channel.paths[1].gain_db: {DB_BOUND}"),
    # frequencies whose phasor 2*pi*f*n/fs would overflow to a NaN stream
    ({"channel.impairments.cfo_hz": 1e308}, f"channel.impairments.cfo_hz: {HZ_BOUND}"),
    ({"channel.impairments.cfo_hz": -1.001e15}, f"channel.impairments.cfo_hz: {HZ_BOUND}"),
    ({"channel.paths[1].doppler_hz": -1e308}, f"channel.paths[1].doppler_hz: {HZ_BOUND}"),
    # rates whose range and Doppler figures overflow
    ({"frame.bandwidth_hz": 1e-300}, BANDWIDTH),
    ({"frame.bandwidth_hz": 1e300}, BANDWIDTH),
], ids=["info_seed", "noise_seed", "pilot_seed", "preamble_seed", "count",
        "no_codeword", "cp_reaches_half_symbol", "one_pilot_symbol", "odd_subcarriers",
        "code_rate", "bits_per_symbol",
        "beyond_float", "snr_3100", "snr_minus_3100", "gain_8000", "gain_minus_8000",
        "gain_3000", "secondary_gain_minus_501", "cfo_1e308", "cfo_past_bound",
        "doppler_minus_1e308", "bandwidth_1e-300", "bandwidth_1e300"])
def test_unrunnable_input_exits_2_at_load(tmp_path, capsys, edits, diagnostic):
    """Inputs that cannot run are rejected by the validator with one
    diagnostic, before `run` or `capture` does any work."""
    scn = write_scn(tmp_path, edited(desk_scenario(), edits))
    out = tmp_path / "out"
    for argv in (["run", str(scn)], ["capture", str(tmp_path / "rx.iq"), str(scn)]):
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {diagnostic}\n"
    assert not out.exists()


def small_demo(**frame):
    """The demo scenario cut to 64 payload symbols, without map files."""
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"].update(m_payload=64, **frame)
    doc["sensing"]["write_map_csv"] = False
    return doc


@pytest.mark.parametrize("main_phase_deg, echo_gain_db", [(0.0, -1e-17), (20.4, -5e-16)],
                         ids=["echo_rounds_to_unit_gain", "main_phase"])
def test_echo_weaker_only_in_db_exits_2_at_load(tmp_path, capsys, main_phase_deg,
                                                echo_gain_db):
    """An echo below the main path in dB but not in the linear gain the
    channel applies (-1e-17 dB is a gain of exactly 1; a phase of 20.4 deg
    takes one ulp off the main path's 1) is rejected at load, not by the
    channel after the TX frame is built."""
    doc = small_demo()
    doc["channel"]["paths"][0]["phase_deg"] = main_phase_deg
    doc["channel"]["paths"].append({"gain_db": echo_gain_db, "delay_ns": 3.0})
    scn = write_scn(tmp_path, doc)
    out = tmp_path / "out"
    for argv in (["run", str(scn), "--out", str(out)], ["params", str(scn)]):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: channel.paths[1]: {WEAKER}\n"
    assert not out.exists()


def test_frequency_offsets_at_bound_keep_the_channel_finite(tmp_path):
    """At the slowest rate (1 Hz) and the largest CFO and Doppler the loader
    accepts, the channel's phasors stay finite and warn of nothing."""
    doc = small_demo(bandwidth_hz=1.0)
    doc["channel"]["impairments"]["cfo_hz"] = 1e15
    doc["channel"]["paths"].append({"gain_db": -10.0, "delay_ns": 3e9, "doppler_hz": -1e15})
    scn = load_scenario(write_scn(tmp_path, doc))
    _, _, tx = build_tx_frame(scn.frame, generate_info_bits(scn))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rx = run_channel(tx, scn.channel)
    assert np.isfinite(rx.samples).all()


@pytest.mark.parametrize("bandwidth_hz", [1.0, 1e15])
def test_bandwidth_at_bound_runs_with_finite_figures(tmp_path, capsys, bandwidth_hz):
    """At both edges of the bandwidth bound `params` prints finite figures
    and `run` decodes with finite detections, warning of nothing."""
    scn = write_scn(tmp_path, small_demo(bandwidth_hz=bandwidth_hz))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["params", str(scn)]) == EXIT_OK
        figures = capsys.readouterr().out.splitlines()[1:]
        assert main(["run", str(scn), "--out", str(out)]) == EXIT_OK
    assert all(math.isfinite(float(line.split(" = ")[1])) for line in figures)
    assert json.loads((out / "comm_metrics.json").read_text())["post_fec_ber"] == 0.0
    rows = (out / "detections.csv").read_text().strip().splitlines()[1:]
    assert rows and all(math.isfinite(float(v)) for r in rows for v in r.split(",")[1:])


@pytest.mark.parametrize("edits, code", [
    ({"channel.impairments.snr_db": -400.0}, EXIT_PIPELINE),
    ({"channel.paths[0].gain_db": 500.0, "channel.impairments.snr_db": -500.0},
     EXIT_PIPELINE),
    ({"channel.paths[0].gain_db": -490.0, "channel.paths[1].gain_db": -500.0,
      "channel.impairments.snr_db": 500.0}, EXIT_OK),
], ids=["snr_minus_400", "loud_path_under_noise", "faint_path"])
def test_level_within_db_bound_runs(tmp_path, capsys, edits, code):
    """Gains and SNRs up to the bound run: one too noisy to lock fails in
    sync with a tagged error, not in the channel; a faint but clean one
    decodes, as the receiver's gates do not depend on the level."""
    scn = write_scn(tmp_path, edited(desk_scenario(), edits))
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
        metrics = json.loads((tmp_path / "out" / "comm_metrics.json").read_text())
        assert metrics["post_fec_ber"] == 0.0
    else:
        assert err.startswith("pipeline error: [sync.schmidl_cox] ")


def test_unknown_key_is_diagnosed(tmp_path, capsys):
    doc = desk_scenario()
    doc["sensing"]["zero_padding"] = 4
    scn = write_scn(tmp_path, doc)
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "zero_padding" in capsys.readouterr().err


def test_invalid_json_is_diagnosed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["frame.m_payload", "channel.impairments.snr_db"])
def test_non_finite_number_is_diagnosed(tmp_path, capsys, path):
    doc = desk_scenario()
    *parents, key = path.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = float("nan")
    scn = write_scn(tmp_path, doc)
    assert "NaN" in scn.read_text()
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_INPUT
    assert f"{path}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, oversize", [
    ("channel.paths[1].delay_ns", lambda d: d["channel"]["paths"][1].update(delay_ns=1e12)),
    ("channel.impairments.sto_samples",
     lambda d: d["channel"]["impairments"].update(sto_samples=1e12)),
    ("frame", lambda d: d["frame"].update(m_payload=10 ** 7)),
], ids=["delay_ns", "sto_samples", "m_payload"])
def test_stream_past_sample_budget_is_diagnosed(tmp_path, capsys, path, oversize):
    """Sizes past the sample budget are rejected by the validator, before
    anything is allocated (``params`` allocates nothing at any size)."""
    doc = desk_scenario()
    oversize(doc)
    scn = write_scn(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_scenario(scn)
    assert [d for d in exc.value.violations if d.startswith(f"{path}: ")
            and "sample budget" in d]
    assert main(["params", str(scn)]) == EXIT_INPUT
    assert f"{path}: " in capsys.readouterr().err


def test_sample_budget_is_the_channel_stream_length(tmp_path, monkeypatch):
    """The validator prices a scenario at exactly the length of the stream
    the channel makes from it."""
    scn_file = write_scn(tmp_path, desk_scenario())
    scn = load_scenario(scn_file)
    tx = np.zeros(scn.frame.frame_len, dtype=np.complex128)
    n = apply_paths_and_cfo(tx, scn.frame.bandwidth_hz, channel_from_scenario(scn)).size
    monkeypatch.setattr(dsp, "MAX_STREAM_SAMPLES", n)
    load_scenario(scn_file)
    monkeypatch.setattr(dsp, "MAX_STREAM_SAMPLES", n - 1)
    with pytest.raises(ConfigError) as exc:
        load_scenario(scn_file)
    assert exc.value.violations[0].startswith("channel.impairments.sto_samples: ")


def test_read_iq_matches_two_plane_sum(tmp_path):
    """The complex stream filled in place from the float32 planes equals
    the sum of the two widened planes, sample for sample."""
    rng = np.random.default_rng(5)
    inter = (rng.normal(size=2 * 1001) * 10.0 ** rng.integers(-30, 30, 2 * 1001)).astype("<f4")
    iq = tmp_path / "rx.iq"
    iq.write_bytes(inter.tobytes())
    (tmp_path / "rx.iq.json").write_text(json.dumps(
        {"format": "cf32_le", "sample_rate_hz": 1e9, "num_samples": 1001}))
    got = read_iq(iq).samples
    want = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_read_iq_checks_sidecar_before_reading_samples(tmp_path, monkeypatch):
    """Without a sidecar the capture is an input error naming the sidecar,
    and the IQ file's samples are never read."""
    iq = tmp_path / "rx.iq"
    iq.write_bytes(bytes(8 * 100))
    read = []
    for name in ("open", "read_bytes"):
        method = getattr(Path, name)
        monkeypatch.setattr(Path, name, lambda self, *args, _method=method, **kw:
                            read.append(self) or _method(self, *args, **kw))
    with pytest.raises(ConfigError) as exc:
        read_iq(iq)
    assert exc.value.violations == [f"missing sidecar file: {iq}.json"]
    assert iq not in read


def test_capture_past_sample_budget_exits_2(tmp_path, capsys, monkeypatch):
    doc = desk_scenario()
    del doc["channel"]  # a capture ignores it; the frame alone fits the budget
    scn = write_scn(tmp_path, doc)
    budget = load_scenario(scn).frame.frame_len
    iq = tmp_path / "rx.iq"
    write_iq(iq, IqStream(samples=np.zeros(budget + 1, dtype=np.complex128),
                          nominal_rate=1e9))
    monkeypatch.setattr(dsp, "MAX_STREAM_SAMPLES", budget)
    assert main(["capture", str(iq), str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert f"more than the sample budget of {budget}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, zero_pad, modes", [
    ("long_payload_reference.json", 1000, ["pilot_only"]),
    ("short_payload_reference.json", 9, ["full_frame"]),
])
def test_map_past_cell_budget_exits_2(tmp_path, capsys, scenario, zero_pad, modes):
    """A zero padding whose map would pass the cell budget is rejected with
    one diagnostic per mode that does not fit, and nothing is allocated. At
    zero_pad 9 the short reference's pilot-only map still fits."""
    doc = json.loads((SCENARIOS / scenario).read_text())
    doc["sensing"]["zero_pad"] = zero_pad
    scn = write_scn(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_scenario(scn)
    assert [d.split(" map of ")[0] for d in exc.value.violations] == [
        f"sensing.zero_pad: a {m}" for m in modes]
    assert main(["params", str(scn)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: sensing.zero_pad: a {modes[0]} map of " in err
    assert f"map budget of {radar.MAX_MAP_CELLS} cells" in err


def test_map_budget_is_the_map_size(tmp_path, monkeypatch):
    """The validator prices each mode at exactly the cells of the map that
    `range_doppler` makes from the sensing CFR."""
    scn_file = write_scn(tmp_path, desk_scenario(sensing={
        "modes": ["pilot_only", "full_frame"], "zero_pad": 3}))
    scn = load_scenario(scn_file)
    cfg, info = scn.frame, generate_info_bits(scn)
    _, payload, tx = build_tx_frame(cfg, info)
    rg = demodulate_frame(tx.samples[cfg.m_preamble * cfg.symbol_len:].copy(), cfg)
    sizes = []
    for mode in scn.sensing_modes:
        cfr = radar.cfr_for_sensing(rg, cfg, mode, coded_bits=payload.coded_bits)
        rd = radar.range_doppler(cfr, cfg, mode, zero_pad=scn.zero_pad)
        assert radar.map_cells(cfg, mode, scn.zero_pad) == rd.magnitude_db.size
        sizes.append(rd.magnitude_db.size)
    monkeypatch.setattr(radar, "MAX_MAP_CELLS", max(sizes))
    load_scenario(scn_file)
    monkeypatch.setattr(radar, "MAX_MAP_CELLS", max(sizes) - 1)
    with pytest.raises(ConfigError) as exc:
        load_scenario(scn_file)
    assert exc.value.violations == [
        f"sensing.zero_pad: a full_frame map of {max(sizes)} cells at zero_pad 3 "
        f"exceeds the map budget of {max(sizes) - 1} cells"]


def _whole_map_csv(path, rd):
    """The map CSV as one meshgrid + column_stack + savetxt of the whole map."""
    rr, dd = np.meshgrid(rd.range_axis_m, rd.doppler_axis_hz, indexing="ij")
    np.savetxt(path, np.column_stack([rr.reshape(-1), dd.reshape(-1),
                                      rd.magnitude_db.reshape(-1)]),
               fmt="%.9g", delimiter=",", header="range_m,doppler_hz,mag_db", comments="")


@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (13, 17)])
@pytest.mark.parametrize("block_cells", [7, 40, scenario._CSV_CELLS])
def test_map_csv_written_in_blocks_matches_whole_map(tmp_path, monkeypatch, shape,
                                                     block_cells):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    mag = np.minimum(rng.normal(-30.0, 20.0, shape), 0.0)
    mag.flat[:4] = [np.nan, -np.inf, -0.0, 1e-310][:mag.size]
    rd = radar.RangeDopplerMap(
        magnitude_db=mag,
        range_axis_m=np.arange(shape[0]) * 0.3 - 2.0,
        doppler_axis_hz=(np.arange(shape[1]) - shape[1] // 2) * 123.456789,
        mode=SensingMode.PILOT_ONLY)
    monkeypatch.setattr(scenario, "_CSV_CELLS", block_cells)
    scenario._write_map_csv(tmp_path / "blocks.csv", rd)
    _whole_map_csv(tmp_path / "whole.csv", rd)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # one-dimensional columns, as for cir_evolution.csv and constellation.csv;
    # the last repeats values that compare equal or unequal to themselves
    # but print apart, within a block and across blocks
    special = np.resize([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.0, np.nan], shape[1])
    cols = [rd.doppler_axis_hz, rd.magnitude_db[0], special]
    scenario._write_csv(tmp_path / "cols.csv", "a,b,c", cols)
    np.savetxt(tmp_path / "cols_whole.csv", np.column_stack(cols), fmt="%.9g",
               delimiter=",", header="a,b,c", comments="")
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "cols_whole.csv").read_bytes()


def test_run_without_map_csv_makes_no_map(tmp_path, monkeypatch):
    """A run that writes no map gets its detections from `radar.detect` and
    never calls `range_doppler`; its detections are those of the same run
    with the map written."""
    sensing = {"modes": ["pilot_only", "full_frame"], "zero_pad": 4,
               "peak_threshold_db": -35.0, "max_peaks": 4}
    with_map = write_scn(tmp_path, desk_scenario(sensing={**sensing, "write_map_csv": True}),
                         "map.json")
    assert main(["run", str(with_map), "--out", str(tmp_path / "map")]) == EXIT_OK

    def no_map(*args, **kwargs):
        raise AssertionError("range_doppler called on a run that writes no map")

    monkeypatch.setattr(radar, "range_doppler", no_map)
    no_csv = write_scn(tmp_path, desk_scenario(sensing={**sensing, "write_map_csv": False}),
                       "no_map.json")
    assert main(["run", str(no_csv), "--out", str(tmp_path / "no_map")]) == EXIT_OK
    assert not list((tmp_path / "no_map").glob("rd_map_*"))
    assert sorted(p.name for p in (tmp_path / "map").glob("rd_map_*")) == [
        "rd_map_full_frame.csv", "rd_map_pilot_only.csv"]
    detections = (tmp_path / "no_map" / "detections.csv").read_text()
    assert detections == (tmp_path / "map" / "detections.csv").read_text()
    assert {row.split(",")[0] for row in detections.splitlines()[1:]} == {
        "pilot_only", "full_frame"}


def test_receiver_lets_go_of_grid_sized_arrays(tmp_path, monkeypatch):
    """The receive pipeline drops each grid-sized array after its last
    reader: the CFR before decoding starts, the equalized symbols and their
    noise variances before sensing starts, and the first sensing mode's CFR
    and map before the second mode starts (demo, 64 payload symbols, both
    modes). Each is watched through a weak reference."""
    equalize, demap_decode = scenario.equalize, scenario.demap_decode
    cfr_for_sensing, range_doppler = radar.cfr_for_sensing, radar.range_doppler
    refs, dead_at = {}, {}

    def gone(*names):
        return all(refs[name]() is None for name in names)

    def watch_equalize(grid, cfr, cfg):
        s_hat, noise_vars, erased = equalize(grid, cfr, cfg)
        refs.update(cfr=weakref.ref(cfr), s_hat=weakref.ref(s_hat),
                    noise_vars=weakref.ref(noise_vars))
        return s_hat, noise_vars, erased

    def watch_decode(*args, **kwargs):
        dead_at["decode"] = gone("cfr")
        return demap_decode(*args, **kwargs)

    def watch_cfr_for_sensing(*args, **kwargs):
        if "first map" in refs:
            dead_at["second mode"] = gone("first cfr", "first map")
        else:
            dead_at["first mode"] = gone("s_hat", "noise_vars")
        cfr_s = cfr_for_sensing(*args, **kwargs)
        refs.setdefault("first cfr", weakref.ref(cfr_s))
        return cfr_s

    def watch_range_doppler(*args, **kwargs):
        rd = range_doppler(*args, **kwargs)
        refs.setdefault("first map", weakref.ref(rd.magnitude_db))
        return rd

    monkeypatch.setattr(scenario, "equalize", watch_equalize)
    monkeypatch.setattr(scenario, "demap_decode", watch_decode)
    monkeypatch.setattr(radar, "cfr_for_sensing", watch_cfr_for_sensing)
    monkeypatch.setattr(radar, "range_doppler", watch_range_doppler)
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"]["m_payload"] = 64
    doc["sensing"]["modes"] = ["pilot_only", "full_frame"]
    summary = scenario.run_scenario(load_scenario(write_scn(tmp_path, doc)), tmp_path / "out")
    assert summary["post_fec_ber"] == 0.0
    assert dead_at == {"decode": True, "first mode": True, "second mode": True}


def test_run_encodes_once_and_senses_on_decoded_codewords(tmp_path, monkeypatch):
    """A run with both sensing modes encodes its frame once, on the TX side:
    full-frame sensing divides by the codewords that `demap_decode` returns,
    passed as they are, not by a re-encoding of the decoded info bits."""
    encode, demap_decode = ldpc.LdpcCode.encode, scenario.demap_decode
    cfr_for_sensing = radar.cfr_for_sensing
    encoded, decoded, sensed = [], [], []

    def spy_encode(self, info):
        encoded.append(info.shape)
        return encode(self, info)

    def spy_decode(*args, **kwargs):
        decoded.append(demap_decode(*args, **kwargs))
        return decoded[-1]

    def spy_cfr_for_sensing(grid, cfg, mode, coded_bits=None):
        sensed.append((mode, coded_bits))
        return cfr_for_sensing(grid, cfg, mode, coded_bits=coded_bits)

    monkeypatch.setattr(ldpc.LdpcCode, "encode", spy_encode)
    monkeypatch.setattr(scenario, "demap_decode", spy_decode)
    monkeypatch.setattr(radar, "cfr_for_sensing", spy_cfr_for_sensing)
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"]["m_payload"] = 64
    doc["sensing"]["modes"] = ["pilot_only", "full_frame"]
    scn = load_scenario(write_scn(tmp_path, doc))
    summary = scenario.run_scenario(scn, tmp_path / "out")
    assert summary["post_fec_ber"] == 0.0
    n_cw = scenario.codeword_count(scenario.info_length(scn))
    assert encoded == [(n_cw, ldpc.default_code().k)]
    ((payload, _),) = decoded
    assert [mode for mode, _ in sensed] == [SensingMode.PILOT_ONLY, SensingMode.FULL_FRAME]
    assert sensed[1][1] is payload.coded_bits


def test_capture_round_trip_matches_simulation(tmp_path, capsys):
    doc = desk_scenario(outputs={"write_iq": True})
    scn = write_scn(tmp_path, doc)
    out1 = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out1)]) == EXIT_OK
    # sidecars written by earlier versions carry an origin_index field
    side = out1 / "rx.iq.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "origin_index": 0}))
    out2 = tmp_path / "cap"
    assert main(["capture", str(out1 / "rx.iq"), str(scn),
                 "--out", str(out2)]) == EXIT_OK
    # the IQ file stores float32 samples, so allow quantization-level slack
    m1 = json.loads((out1 / "comm_metrics.json").read_text())
    m2 = json.loads((out2 / "comm_metrics.json").read_text())
    assert set(m1) == set(m2)
    for key, val in m1.items():
        if isinstance(val, float):
            assert m2[key] == pytest.approx(val, rel=1e-5, abs=1e-12), key
        else:
            assert m2[key] == val, key
    d1 = np.loadtxt(out1 / "detections.csv", delimiter=",", skiprows=1,
                    usecols=(1, 2, 3))
    d2 = np.loadtxt(out2 / "detections.csv", delimiter=",", skiprows=1,
                    usecols=(1, 2, 3))
    assert np.allclose(d1, d2, rtol=1e-4, atol=1e-3)


def test_truncated_capture_file_exits_2(tmp_path, capsys):
    doc = desk_scenario(outputs={"write_iq": True})
    scn = write_scn(tmp_path, doc)
    out1 = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out1)]) == EXIT_OK
    iq = out1 / "rx.iq"
    data = iq.read_bytes()
    iq.write_bytes(data[:len(data) // 2 + 3])  # not a multiple of 8 bytes
    assert main(["capture", str(iq), str(scn),
                 "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [2e9, 5e8, float("nan"), float("inf")])
def test_capture_at_another_sample_rate_exits_2(tmp_path, capsys, rate):
    """The receiver runs at frame.bandwidth_hz; a sidecar declaring any other
    rate, or a non-finite one, is an input error before any artifact."""
    scn = write_scn(tmp_path, desk_scenario(outputs={"write_iq": True}))
    out1 = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out1)]) == EXIT_OK
    side = out1 / "rx.iq.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "sample_rate_hz": rate}))
    out2 = tmp_path / "cap"
    assert main(["capture", str(out1 / "rx.iq"), str(scn),
                 "--out", str(out2)]) == EXIT_INPUT
    assert "sample_rate_hz" in capsys.readouterr().err
    assert not out2.exists()


def test_blind_capture_writes_strict_json(tmp_path, capsys):
    """Without known info bits the BERs are unmeasured: JSON null, not NaN."""
    doc = desk_scenario(outputs={"write_iq": True})
    scn = write_scn(tmp_path, doc)
    out1 = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out1)]) == EXIT_OK
    blind = write_scn(tmp_path, {**doc, "info_bits": {"seed": 3, "known": False}}, "blind.json")
    out2 = tmp_path / "cap"
    assert main(["capture", str(out1 / "rx.iq"), str(blind), "--out", str(out2)]) == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
            for p in sorted(out2.glob("*.json"))}
    assert docs["comm_metrics.json"]["pre_fec_ber"] is None
    assert docs["comm_metrics.json"]["post_fec_ber"] is None
    assert isinstance(docs["comm_metrics.json"]["evm_rms_percent"], float)
    assert "sync_report.json" in docs


def test_noise_only_capture_exits_3(tmp_path, capsys):
    doc = desk_scenario(outputs={"write_iq": True})
    scn = write_scn(tmp_path, doc)
    out1 = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out1)]) == EXIT_OK
    # overwrite the payload with pure noise, keeping the sidecar
    iq = out1 / "rx.iq"
    n = len(iq.read_bytes()) // 8
    rng = np.random.default_rng(0)
    noise = rng.normal(size=2 * n).astype(np.float32)
    iq.write_bytes(noise.tobytes())
    assert main(["capture", str(iq), str(scn),
                 "--out", str(tmp_path / "o")]) == EXIT_PIPELINE
    assert "pipeline error" in capsys.readouterr().err


def desk_capture(tmp_path, capsys, **over):
    """The scenario file of a desk run and the rx.iq it wrote, with the
    run's stdout and stderr consumed."""
    scn = write_scn(tmp_path, desk_scenario(outputs={"write_iq": True}, **over))
    out = tmp_path / "sim"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return scn, out / "rx.iq"


def test_zeroed_capture_names_its_stage_once(tmp_path, capsys):
    scn, iq = desk_capture(tmp_path, capsys)
    iq.write_bytes(bytes(iq.stat().st_size))
    assert main(["capture", str(iq), str(scn),
                 "--out", str(tmp_path / "o")]) == EXIT_PIPELINE
    assert capsys.readouterr().err == ("pipeline error: [sync.schmidl_cox] timing metric "
                                       "peak 0.000 below lock threshold\n")


@pytest.mark.parametrize("correct_sfo", [False, True])
def test_capture_without_clock_tracking_energy_exits_3(tmp_path, capsys, correct_sfo):
    """Zeroed clock-tracking symbols leave no pair to estimate the clock
    offset from: a tagged sync failure, whether or not the stream would be
    resampled, and no NaN estimate."""
    scn, iq = desk_capture(tmp_path, capsys, receiver={"correct_sfo": correct_sfo})
    cfg = load_scenario(scn).frame
    start = json.loads((tmp_path / "sim" / "sync_report.json").read_text())["fine_start"]
    first = start + cfg.m_sc * cfg.symbol_len
    samples = np.fromfile(iq, dtype=np.complex64)
    samples[first:first + cfg.m_sfo * cfg.symbol_len] = 0
    samples.tofile(iq)
    assert main(["capture", str(iq), str(scn),
                 "--out", str(tmp_path / "o")]) == EXIT_PIPELINE
    assert capsys.readouterr().err == ("pipeline error: [sync.estimate_sfo_tsai] "
                                       "clock-tracking symbol pair 0 carries no energy\n")


def test_run_without_channel_exits_2_before_any_work(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    del doc["channel"]
    scn = write_scn(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: channel: missing section, which run needs\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "capture"])
def test_unusable_outdir_exits_2_without_traceback(tmp_path, capsys, verb):
    """An --out below a regular file cannot be created: one input error,
    before the receiver runs, on both verbs."""
    scn, iq = desk_capture(tmp_path, capsys)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    argv = ["run", str(scn)] if verb == "run" else ["capture", str(iq), str(scn)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bistatic_radcom.cli", *argv,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == f"error: cannot create output directory {out}: Not a directory\n"
    assert proc.stdout == ""


def _demo_capture(tmp, **frame):
    """The clock-drift demo's scenario file (no map CSV, ``frame`` fields
    replaced), the rx.iq samples of its run and its frame start."""
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"].update(frame)
    doc["outputs"]["write_iq"] = True
    doc["sensing"]["write_map_csv"] = False
    scn = write_scn(tmp, doc)
    assert main(["run", str(scn), "--out", str(tmp / "sim")]) == EXIT_OK
    start = json.loads((tmp / "sim" / "sync_report.json").read_text())["fine_start"]
    return scn, read_iq(tmp / "sim" / "rx.iq").samples, start


@pytest.fixture(scope="module")
def demo_capture(tmp_path_factory):
    """The demo's capture, made once for the degenerate-capture table."""
    return _demo_capture(tmp_path_factory.mktemp("demo"))


@pytest.fixture(scope="module")
def small_demo_capture(tmp_path_factory):
    """The demo's capture cut to 64 payload symbols, made once for the
    damaged-capture suite."""
    return _demo_capture(tmp_path_factory.mktemp("small_demo"), m_payload=64)


SYM = 320  # samples per symbol of the clock-drift demo: 256 + CP 64
CLOCK = 2 * SYM  # first clock-tracking sample, from the frame start
PAYLOAD = 12 * SYM  # first payload sample, from the frame start


def _clipped(x, start):
    a = 0.5 * np.sqrt(np.mean(np.abs(x) ** 2) / 2)
    return np.clip(x.real, -a, a) + 1j * np.clip(x.imag, -a, a)


# Degenerate captures made from the demo's rx.iq (x, with the frame starting
# at sample `start`): each gives the exit code and stage tag seen, None for a
# capture that decodes.
DEGENERATE = {
    "zero_payload": (lambda x, start: np.concatenate([x[:start + PAYLOAD],
                                                      np.zeros(x.size - start - PAYLOAD)]),
                     EXIT_PIPELINE, "comm.estimation"),
    "dc": (lambda x, start: np.ones(x.size), EXIT_PIPELINE, "sync.fine_timing"),
    "noise": (lambda x, start: np.random.default_rng(0).normal(size=(x.size, 2)) @ [1, 1j],
              EXIT_PIPELINE, "sync.schmidl_cox"),
    "clipped": (_clipped, EXIT_OK, None),
    "cut_in_preamble": (lambda x, start: x[:start + SYM + 100], EXIT_PIPELINE,
                        "sync.schmidl_cox"),
    "cut_in_clock_tracking": (lambda x, start: x[:start + CLOCK + 3 * SYM], EXIT_PIPELINE,
                              "sync.estimate_sfo_tsai"),
    "cut_in_payload": (lambda x, start: x[:start + PAYLOAD + 100 * SYM], EXIT_PIPELINE,
                       "sync.synchronize"),
    "empty": (lambda x, start: x[:0], EXIT_PIPELINE, "sync.schmidl_cox"),
    "ten_samples": (lambda x, start: x[:10], EXIT_PIPELINE, "sync.schmidl_cox"),
    "scaled_up": (lambda x, start: x * 1e30, EXIT_OK, None),
    "scaled_down": (lambda x, start: x * 1e-30, EXIT_OK, None),
}


@pytest.mark.parametrize("case", DEGENERATE)
def test_degenerate_capture_decodes_or_names_one_stage(tmp_path, capsys, demo_capture, case):
    """A degenerate capture either decodes, writing strict JSON with no
    null estimate, or fails in one tagged stage; never with a traceback."""
    scn, x, start = demo_capture
    make, code, stage = DEGENERATE[case]
    iq = tmp_path / "rx.iq"
    write_iq(iq, IqStream(samples=make(x, start), nominal_rate=1e9))
    out = tmp_path / "out"
    assert main(["capture", str(iq), str(scn), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for name in ("sync_report.json", "comm_metrics.json"):
            doc = json.loads((out / name).read_text(), parse_constant=reject)
            assert None not in doc.values(), name
        assert err == ""
    else:
        assert re.fullmatch(r"pipeline error: \[[a-z_.]+\] [^\[\]\n]+\n", err), err
        assert err.startswith(f"pipeline error: [{stage}] ")


def _damaged(x, start, kind, at, length, symbol):
    """``x`` with one kind of damage: a span zeroed or held at a constant
    (DC), a truncation, or one preamble or clock-tracking symbol zeroed.
    ``at`` and ``length`` are fractions of the capture."""
    y = x.copy()
    lo = int(at * x.size)
    hi = min(x.size, lo + 1 + int(length * x.size))
    if kind == "zero_span":
        y[lo:hi] = 0
    elif kind == "dc_span":
        y[lo:hi] = np.sqrt(np.mean(np.abs(x) ** 2))
    elif kind == "truncation":
        y = y[:lo]
    else:
        first = max(start + symbol * SYM, 0)
        y[first:first + SYM] = 0
    return y


@given(kind=st.sampled_from(["zero_span", "dc_span", "truncation", "zero_symbol"]),
       at=st.floats(0.0, 1.0, exclude_max=True), length=st.floats(0.0, 0.5),
       symbol=st.integers(0, 11))
@settings(max_examples=40, deadline=None)
@example(kind="zero_span", at=0.515, length=0.143, symbol=0)  # flat CIR peaks
def test_damaged_capture_decodes_or_names_one_stage(small_demo_capture, kind, at, length,
                                                    symbol):
    """A capture with a span zeroed or held at DC, cut short, or with a
    preamble or clock-tracking symbol zeroed, anywhere: exit 0 with strict
    JSON and no null estimate, exit 3 with one stage tag, or exit 2 with one
    input error. A traceback or a runtime warning fails the example (pytest
    records warnings, so they never reach the redirected stderr)."""
    scn, x, start = small_demo_capture
    with tempfile.TemporaryDirectory() as tmp:
        iq, out = Path(tmp) / "rx.iq", Path(tmp) / "out"
        write_iq(iq, IqStream(samples=_damaged(x, start, kind, at, length, symbol),
                              nominal_rate=1e9))
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(["capture", str(iq), str(scn), "--out", str(out)])
        err = err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]
        if code == EXIT_OK:
            def reject(token):
                raise ValueError(f"non-standard JSON constant {token}")

            for path in sorted(out.glob("*.json")):
                doc = json.loads(path.read_text(), parse_constant=reject)
                assert None not in doc.values(), path.name
            assert err == ""
        elif code == EXIT_PIPELINE:
            assert re.fullmatch(r"pipeline error: \[[a-z_.]+\] [^\[\]\n]+\n", err), err
        else:
            assert code == EXIT_INPUT
            assert re.fullmatch(r"error: [^\n]+\n", err), err


@pytest.mark.parametrize("gain_db", [-300.0, 300.0])
def test_noiseless_run_at_extreme_main_path_gain(tmp_path, capsys, gain_db):
    """A noiseless run of the demo (64 payload symbols) with its main path at
    -300 or +300 dB decodes every bit, or names the stage that failed; the
    receiver's gates do not depend on the absolute signal level."""
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"]["m_payload"] = 64
    doc["sensing"]["write_map_csv"] = False
    doc["channel"]["paths"][0]["gain_db"] = gain_db
    code = main(["run", str(write_scn(tmp_path, doc)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if code == EXIT_OK:
        metrics = json.loads((tmp_path / "out" / "comm_metrics.json").read_text())
        assert metrics["post_fec_ber"] == 0.0
        assert metrics["evm_rms_percent"] < 1.0
    else:
        assert code == EXIT_PIPELINE
        assert re.fullmatch(r"pipeline error: \[[a-z_.]+\] [^\[\]\n]+\n", err), err


def _noiseless_demo_run(tmp, gain_db):
    """Exit code, sync report and comm metrics of a noiseless run of the
    demo (64 payload symbols) with its main path at ``gain_db``."""
    doc = json.loads((SCENARIOS / "clock_drift_demo.json").read_text())
    doc["frame"]["m_payload"] = 64
    doc["sensing"]["write_map_csv"] = False
    doc["channel"]["paths"][0]["gain_db"] = gain_db
    out = tmp / f"out_{gain_db:g}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(write_scn(tmp, doc, f"scn_{gain_db:g}.json")),
                     "--out", str(out)])
    if code != EXIT_OK:
        return code, None, None
    return (code, json.loads((out / "sync_report.json").read_text()),
            json.loads((out / "comm_metrics.json").read_text()))


@pytest.mark.parametrize("gain_db", [-400.0, -450.0, -500.0])
def test_noiseless_run_far_below_unit_gain_matches_the_unit_gain_run(tmp_path, gain_db):
    """A noiseless run with the main path at -400 dB or below, which the
    +-500 dB bound accepts, locks, decodes and estimates the clock offset as
    the 0 dB run does: no gate or estimator has an absolute floor."""
    _, ref, _ = _noiseless_demo_run(tmp_path, 0.0)
    code, rep, metrics = _noiseless_demo_run(tmp_path, gain_db)
    assert code == EXIT_OK
    assert metrics["post_fec_ber"] == 0.0
    assert rep["fine_start"] == ref["fine_start"]
    assert rep["sfo_hat"] == pytest.approx(ref["sfo_hat"], rel=1e-9)


def _cir_delays(out):
    """The delay column of a run's ``cir_evolution.csv``, in samples."""
    return np.loadtxt(out / "cir_evolution.csv", delimiter=",", skiprows=1)[:, 1]


@pytest.fixture(scope="module")
def small_demo_reference(small_demo_capture, tmp_path_factory):
    """Sync report and CIR delays of the unscaled 64-symbol demo capture."""
    scn, x, _ = small_demo_capture
    tmp = tmp_path_factory.mktemp("small_demo_reference")
    write_iq(tmp / "rx.iq", IqStream(samples=x, nominal_rate=1e9))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["capture", str(tmp / "rx.iq"), str(scn), "--out", str(tmp / "out")]) \
            == EXIT_OK
    return json.loads((tmp / "out" / "sync_report.json").read_text()), _cir_delays(tmp / "out")


@given(k=st.integers(-37, 37))
@example(k=-37)
@example(k=37)
@settings(max_examples=20, deadline=None)
def test_capture_level_does_not_change_its_decode(small_demo_capture, small_demo_reference, k):
    """The noiseless demo capture scaled by 10^k, anywhere in the float32
    range, decodes every bit at the same frame start with the same clock
    offset and CIR profile: the receiver's gates and estimators are
    relative to the capture's own level."""
    scn, x, start = small_demo_capture
    ref, ref_delays = small_demo_reference
    with tempfile.TemporaryDirectory() as tmp:
        iq, out = Path(tmp) / "rx.iq", Path(tmp) / "out"
        write_iq(iq, IqStream(samples=x * 10.0 ** k, nominal_rate=1e9))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["capture", str(iq), str(scn), "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "sync_report.json").read_text())
        metrics = json.loads((out / "comm_metrics.json").read_text())
        delays = _cir_delays(out)
    assert metrics["post_fec_ber"] == 0.0
    assert rep["fine_start"] == start
    assert rep["sfo_hat"] == pytest.approx(ref["sfo_hat"], rel=1e-5)
    np.testing.assert_allclose(delays, ref_delays, rtol=0, atol=1e-6)


def test_traced_benchmark_names_resolve(tmp_path):
    """perfbench's tracer wraps package functions by name; a traced run of
    the desk scenario must nest cleanly and count the LDPC codewords, with
    its echo at 12 ns and at 12.25 ns, a fractional number of samples
    late, which the path stage delays by `fractional_delay`."""
    code = ("import json, sys\n"
            "from tracer import Tracer, install, selfcheck\n"
            "from bistatic_radcom import scenario\n"
            "tracer = Tracer(run_id='test')\n"
            "install(tracer)\n"
            "scenario.run_scenario(scenario.load_scenario(sys.argv[1]), sys.argv[2])\n"
            "print(json.dumps({'violations': selfcheck(tracer.spans),\n"
            "                  'spans': tracer.spans}))\n")
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    for delay_ns in (12.0, 12.25):
        doc = desk_scenario()
        doc["channel"]["paths"][1]["delay_ns"] = delay_ns
        scn = write_scn(tmp_path, doc, f"scn_{delay_ns:g}.json")
        out = subprocess.run([sys.executable, "-c", code, str(scn),
                              str(tmp_path / f"out_{delay_ns:g}")],
                             env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                             text=True, check=True, timeout=300)
        result = json.loads(out.stdout)
        spans = result["spans"]
        assert result["violations"] == [], delay_ns
        for name in ("ldpc.encode", "ldpc.check", "ldpc.decode"):
            named = [s for s in spans if s["name"] == name]
            assert named and all(s["codewords"] > 0 for s in named), (delay_ns, name)
        delays = [s for s in spans if s["name"] == "dsp.fractional_delay"]
        assert delays or delay_ns % 1 == 0, delay_ns
        assert all(spans[s["parent"]]["name"] == "channel.apply_paths_and_cfo" for s in delays)


def test_tracer_wraps_package_functions():
    """Every name perfbench's tracer wraps resolves to a function of the
    package, which install replaces by its span wrapper."""
    code = ("import json\n"
            "import bistatic_radcom.cli\n"
            "from tracer import Tracer, install\n"
            "wrapped, wrap = [], Tracer.wrap\n"
            "def record(self, owner, attr, *args, **kwargs):\n"
            "    fn = getattr(owner, attr)\n"
            "    wrap(self, owner, attr, *args, **kwargs)\n"
            "    wrapped.append([owner.__name__, attr, fn.__module__,\n"
            "                    getattr(owner, attr).__wrapped__ is fn])\n"
            "Tracer.wrap = record\n"
            "install(Tracer('t'))\n"
            "print(json.dumps(wrapped))\n")
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), str(root / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    wrapped = json.loads(out.stdout)
    assert ["bistatic_radcom.scenario", "run_channel", "bistatic_radcom.channel", True] \
        in wrapped
    assert all(module.startswith("bistatic_radcom.") and ok
               for _, _, module, ok in wrapped), wrapped


def test_runs_are_byte_identical(tmp_path):
    scn = write_scn(tmp_path, desk_scenario())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scn), "--out", str(a)]) == EXIT_OK
    assert main(["run", str(scn), "--out", str(b)]) == EXIT_OK
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_outdir_env_variable(tmp_path, monkeypatch, capsys):
    scn = write_scn(tmp_path, desk_scenario())
    out = tmp_path / "envout"
    monkeypatch.setenv("BISTATIC_RADCOM_OUT", str(out))
    assert main(["run", str(scn)]) == EXIT_OK
    assert (out / "comm_metrics.json").exists()


def test_bundled_migration_scenario(tmp_path, capsys):
    """Uncorrected clock offset: main-tap delay drifts linearly across the
    frame at the negative of the clock ratio times the symbol length."""
    assert main(["run", str(SCENARIOS / "clock_drift_demo.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    rows = np.loadtxt(tmp_path / "cir_evolution.csv", delimiter=",", skiprows=1)
    slope = np.polyfit(rows[:, 0], rows[:, 1], 1)[0]
    assert slope == pytest.approx(-2e-6 * 320, rel=0.1)


def test_bundled_short_payload_scenario(tmp_path, capsys):
    """Full-scale short-payload frame: decode, then sense in both modes."""
    assert main(["run", str(SCENARIOS / "short_payload_reference.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    metrics = json.loads((tmp_path / "comm_metrics.json").read_text())
    assert metrics["post_fec_ber"] == 0.0
    rows = (tmp_path / "detections.csv").read_text().strip().splitlines()[1:]
    by_mode = {}
    for r in rows:
        mode, rng_m, fd, mag = r.split(",")
        by_mode.setdefault(mode, []).append((float(rng_m), float(fd), float(mag)))
    for mode in ("pilot_only", "full_frame"):
        hits = [d for d in by_mode.get(mode, [])
                if abs(d[0] - 2.17) < 0.3 and abs(d[1] - 2000.0) < 400.0]
        assert hits, f"echo not detected in {mode} mode"


def test_bundled_long_payload_scenario(tmp_path, capsys):
    """Full-scale long-payload frame end to end (the slowest test: one
    gigasample-scale frame through the whole chain)."""
    assert main(["run", str(SCENARIOS / "long_payload_reference.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    metrics = json.loads((tmp_path / "comm_metrics.json").read_text())
    assert metrics["post_fec_ber"] == 0.0
    assert metrics["pre_fec_ber"] < 0.01
    rows = (tmp_path / "detections.csv").read_text().strip().splitlines()[1:]
    dets = [tuple(map(float, r.split(",")[1:])) for r in rows]
    assert any(abs(d[0] - 2.17) < 0.3 and abs(d[1] - 2000.0) < 100.0
               for d in dets)
