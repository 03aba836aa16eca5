"""Workload definitions: which bundled scenario each workload starts from,
what it changes, and how the workload seed becomes scenario seeds.

Every workload is closed-loop: one client, one pipeline call at a time, each
call in a fresh process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
# The bundled reference scenarios use info_bits.seed 1 and noise_seed 7, so
# the default workload seed reproduces them exactly.
NOISE_SEED_OFFSET = 6
# input k of a run with workload seed s uses scenario seed s + k * INPUT_STRIDE
INPUT_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                   # "run" or "capture", as on the command line
    base: str                   # bundled scenario the workload starts from
    overrides: dict = field(default_factory=dict)  # dotted path -> value
    expected_peak_mb: float = 0.0  # pipeline child peak RSS, for the pre-flight
    # distinct seeded inputs per run; calls cycle through them. Quality
    # metrics are deterministic per input, so where they vary widely between
    # inputs the run reports their median over several.
    inputs: int = 1
    why: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="run_short",
            verb="run",
            base="short_payload_reference",
            expected_peak_mb=1130.0,
            why="run on the short reference (1.34 M samples, both sensing "
                "modes, zero_pad 4): the only workload where radar does a "
                "large share of the work"),
        Workload(
            name="run_long",
            verb="run",
            base="long_payload_reference",
            overrides={"frame.m_payload": 1024},
            expected_peak_mb=1450.0,
            why="run on the long reference geometry cut to 1024 payload "
                "symbols (2.6 M samples, pilot_only, zero_pad 1): the "
                "channel/dsp/sync sample path dominates"),
        Workload(
            name="capture_low_snr",
            verb="capture",
            base="short_payload_reference",
            overrides={"frame.m_payload": 64,
                       "channel.impairments.snr_db": 6.0,
                       "sensing.modes": ["pilot_only"],
                       "outputs.write_iq": True},
            expected_peak_mb=400.0,
            inputs=3,
            why="capture of a generated 6 dB rx.iq (64 payload symbols): no "
                "codeword is valid on entry, LDPC decode runs all 50 "
                "iterations and dominates; channel does no work"),
    )
}


def input_seeds(workload: Workload, seed: int) -> list[int]:
    """Scenario seeds of the inputs of one run."""
    return [seed + k * INPUT_STRIDE for k in range(workload.inputs)]


def scenario_doc(root: Path, workload: Workload, seed: int) -> dict:
    """The scenario JSON for one workload and scenario seed."""
    doc = json.loads((root / "scenarios" / f"{workload.base}.json").read_text())
    for dotted, value in workload.overrides.items():
        *parents, leaf = dotted.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
    doc["name"] = f"{workload.name}_seed{seed}"
    doc["info_bits"]["seed"] = seed
    doc["channel"]["impairments"]["noise_seed"] = seed + NOISE_SEED_OFFSET
    return doc


def echo_path(doc: dict) -> tuple[float, float]:
    """Relative bistatic range (m) and Doppler (Hz) of the weakest path,
    which the sensing output must detect."""
    paths = doc["channel"]["paths"]
    main = next(p for p in paths if p.get("is_main"))
    echo = min(paths, key=lambda p: p["gain_db"])
    c = 299_792_458.0
    rel_range = (echo["delay_ns"] - main["delay_ns"]) * 1e-9 * c
    return rel_range, echo.get("doppler_hz", 0.0) - main.get("doppler_hz", 0.0)
