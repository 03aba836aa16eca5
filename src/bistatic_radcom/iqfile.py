"""Binary IQ sample file I/O.

Format: little-endian interleaved 32-bit floats (I, Q, I, Q, ...) plus a
JSON sidecar ``<file>.json`` carrying the sample rate and free-form
metadata. This matches the common SDR interchange convention.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import dsp
from .params import ConfigError
from .txframe import IqStream


def sidecar_path(iq_path: str | Path) -> Path:
    return Path(str(iq_path) + ".json")


def write_iq(path: str | Path, stream: IqStream, metadata: dict | None = None) -> None:
    """Write samples as interleaved float32 LE with a JSON sidecar. The
    samples are cast and written ``dsp._BLOCK`` at a time, so no cast copy
    of the whole stream exists."""
    path = Path(path)
    s = np.asarray(stream.samples, dtype=np.complex128)
    dsp.require_finite(s, "stream to write")
    # "<c8" is a little-endian float32 pair: the interleaved I, Q layout
    with path.open("wb") as f:
        for start in range(0, s.size, dsp._BLOCK):
            s[start:start + dsp._BLOCK].astype("<c8").tofile(f)
    side = {
        "format": "cf32_le",
        "sample_rate_hz": float(stream.nominal_rate),
        "num_samples": int(s.size),
    }
    if metadata:
        side["metadata"] = metadata
    sidecar_path(path).write_text(json.dumps(side, indent=2, sort_keys=True) + "\n")


def read_iq(path: str | Path) -> IqStream:
    """Read an interleaved float32 LE IQ file and its JSON sidecar. The file's
    size and the sidecar are checked before any sample is read."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"IQ file not found: {path}"])
    size = path.stat().st_size
    n_samples = size // 8
    if n_samples > dsp.MAX_STREAM_SAMPLES:
        raise ConfigError([f"IQ file holds {n_samples} samples, more than the sample "
                           f"budget of {dsp.MAX_STREAM_SAMPLES}"])
    if size % 8 != 0:
        raise ConfigError([f"truncated IQ file (size {size} is not a whole "
                           "number of complex float32 samples)"])
    side_file = sidecar_path(path)
    if not side_file.is_file():
        raise ConfigError([f"missing sidecar file: {side_file}"])
    try:
        side = json.loads(side_file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed sidecar JSON: {exc}"]) from exc
    if side.get("format") != "cf32_le":
        raise ConfigError([f"unsupported IQ format: {side.get('format')!r}"])
    rate = side.get("sample_rate_hz")
    if not isinstance(rate, (int, float)) or not 0 < rate < float("inf"):
        raise ConfigError(["sidecar must declare a finite, positive sample_rate_hz"])
    declared = side.get("num_samples")
    if declared is not None and declared != n_samples:
        raise ConfigError([f"sidecar declares {declared} samples, file holds {n_samples}"])
    # read in blocks straight into the stream: no stream-sized temporary
    samples = np.empty(n_samples, dtype=np.complex128)
    with path.open("rb") as f:
        for start in range(0, n_samples, dsp._BLOCK):
            stop = min(start + dsp._BLOCK, n_samples)
            samples[start:stop] = np.fromfile(f, dtype="<c8", count=stop - start)
    dsp.require_finite(samples, "IQ file")
    return IqStream(samples=samples, nominal_rate=float(rate))
