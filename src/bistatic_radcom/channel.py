"""Bistatic propagation and impairment model.

The receive signal is the sum of a main path and weaker secondary paths,
each with its own complex gain, delay and Doppler shift. On top of that the
receiver experiences a sample-time offset, carrier frequency/phase offsets,
a normalized sampling frequency offset (clock ratio mismatch) and AWGN.
Time origin for all phasors is n*T_s counted from the first transmitted
sample; the receiver only learns this origin through synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .dsp import fractional_delay, require_finite, resample_arbitrary, run_blocks
from .params import SFO_BOUND, ConfigError
from .txframe import IqStream


@dataclass(frozen=True)
class PropagationPath:
    gain: complex
    delay_s: float
    doppler_hz: float
    is_main: bool = False


@dataclass(frozen=True)
class ImpairmentSet:
    sto_s: float = 0.0
    cfo_hz: float = 0.0
    cpo_rad: float = 0.0
    sfo_norm: float = 0.0
    snr_db: float | None = None  # None = noiseless
    noise_seed: int = 0

    def __post_init__(self):
        if abs(self.sfo_norm) >= SFO_BOUND:
            raise ConfigError([f"|sfo_norm| must be below {SFO_BOUND}"])


@dataclass(frozen=True)
class ChannelScenario:
    paths: tuple[PropagationPath, ...]
    impairments: ImpairmentSet = field(default_factory=ImpairmentSet)

    def __post_init__(self):
        """One main path, every other path weaker in linear gain."""
        mains = [abs(p.gain) for p in self.paths if p.is_main]
        v = []
        if not self.paths:
            v.append("paths: at least one path is needed")
        elif len(mains) != 1:
            v.append(f"paths: exactly one path must set is_main (got {len(mains)})")
        for i, p in enumerate(self.paths):
            if p.delay_s < 0:
                v.append(f"paths[{i}]: delay must be non-negative")
            if len(mains) == 1 and not p.is_main and abs(p.gain) >= mains[0]:
                v.append(f"paths[{i}]: secondary path must be weaker than the main path "
                         "in linear gain")
        if v:
            raise ConfigError(v)

    @property
    def main_path(self) -> PropagationPath:
        return next(p for p in self.paths if p.is_main)


def max_delay_samples(scenario: ChannelScenario, fs: float) -> float:
    """The largest path delay plus STO, in samples at rate ``fs``: how far
    the channel output reaches past the transmitted stream."""
    return (max(p.delay_s for p in scenario.paths)
            + max(scenario.impairments.sto_s, 0.0)) * fs


def stream_len(n_tx: int, max_delay: float) -> int:
    """Samples in the channel output for ``n_tx`` transmitted samples: room
    for the largest path delay plus STO, and a margin for the delay filter."""
    return n_tx + int(np.ceil(max_delay)) + 64


def apply_paths_and_cfo(x: np.ndarray, fs: float, scenario: ChannelScenario) -> np.ndarray:
    """Multipath sum with per-path delay/Doppler, then common CFO/CPO phasor,
    on samples ``x`` at rate ``fs``.

    The phasors and the path sum run block by block (`run_blocks`). A path
    delayed by a whole number of samples adds its shifted slice of ``x``
    block by block. A fractional delay is filtered a span at a time, a
    block for each thread, from the overlap-add step before the span
    (`dsp.fractional_delay_origin`), so no whole delayed stream exists."""
    require_finite(x, "transmit stream")
    imp = scenario.impairments
    ts = 1.0 / fs

    out_len = stream_len(x.size, max_delay_samples(scenario, fs))
    y = np.zeros(out_len, dtype=np.complex128)
    # a fractional delay's span: 16 blocks, and at least one per thread, so
    # that its filter design and thread start-up cost little next to its
    # work, while it stays small next to the stream
    frac_span = max(16, dsp._workers()) * dsp.block_items()
    for p in scenario.paths:
        delay = (p.delay_s + imp.sto_s) * fs
        whole = float(delay).is_integer()
        span = out_len if whole else frac_span
        for first in range(0, out_len, span):
            last = min(first + span, out_len)
            # the delayed stream, zero outside it, from y[shift] on
            if whole:
                shift, delayed = int(delay), x
            else:
                origin = dsp.fractional_delay_origin(x.size, delay, first, last)
                if origin is None:  # the span is all zeros
                    continue
                k, d = origin
                shift, delayed = first, fractional_delay(x[k:], delay - d,
                                                         last - k - d)[first - k - d:]

            def add_path(start: int, stop: int) -> None:
                # the block of the delayed stream; a block of zeros adds
                # nothing to y, so it is skipped
                start, stop = first + start, first + stop
                lo, hi = max(start, shift), min(stop, shift + delayed.size)
                if lo >= hi:
                    return
                seg = np.zeros(stop - start, dtype=np.complex128)
                seg[lo - start:hi - start] = delayed[lo - shift:hi - shift]
                if p.doppler_hz != 0.0:
                    seg *= np.exp(2j * np.pi * p.doppler_hz * np.arange(start, stop) * ts)
                y[start:stop] += p.gain * seg

            run_blocks(add_path, last - first)
            del delayed
    if imp.cfo_hz != 0.0 or imp.cpo_rad != 0.0:
        def rotate(start: int, stop: int) -> None:
            n = np.arange(start, stop)
            y[start:stop] *= np.exp(1j * (2.0 * np.pi * imp.cfo_hz * n * ts + imp.cpo_rad))

        run_blocks(rotate, out_len)
    return y


def apply_sfo(x: np.ndarray, sfo_norm: float) -> np.ndarray:
    """Receiver sampling at instants n*T_s*(1+delta) of the incoming signal."""
    return resample_arbitrary(x, 1.0 + sfo_norm, x.size)


def add_awgn(x: np.ndarray, snr_db: float, ref_power: float, seed: int) -> np.ndarray:
    """Circularly-symmetric complex AWGN at the given SNR vs ``ref_power``,
    added to a copy of ``x``; ``x`` is left as it was (`_add_awgn` adds it
    in place)."""
    y = np.array(x, dtype=np.complex128)
    _add_awgn(y, snr_db, ref_power, seed)
    return y


def _add_awgn(y: np.ndarray, snr_db: float, ref_power: float, seed: int) -> None:
    """`add_awgn` in place on the complex128 stream ``y``.

    The noise is drawn in order, ``dsp._BLOCK`` (I, Q) rows at a time: the
    generator's stream and the sums are those of one whole-stream draw."""
    if ref_power <= 0:
        raise ConfigError(["ref_power must be positive"])
    noise_var = ref_power / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    for start in range(0, y.size, dsp._BLOCK):
        stop = min(start + dsp._BLOCK, y.size)
        noise = rng.normal(0.0, np.sqrt(noise_var / 2.0), (stop - start, 2))
        y.real[start:stop] += noise[:, 0]
        y.imag[start:stop] += noise[:, 1]


def main_path_rx_power(x: np.ndarray, scenario: ChannelScenario) -> float:
    """Receive power of the main-path contribution, the SNR reference: the
    main path's power gain times the mean power of the nonzero samples.

    The mean has the bits of ``np.mean`` over the nonzero samples, though
    only a block of them exists at a time: they are counted block by block,
    and `dsp.pairwise_sum` gathers each run of them that it sums."""
    size = dsp._BLOCK
    # first[i]: how many nonzero samples precede block i
    first = np.cumsum([0] + [np.count_nonzero(np.abs(x[s:s + size]) > 0)
                             for s in range(0, x.size, size)])

    def power(a: int, b: int) -> np.ndarray:
        parts = []
        for i in range(np.searchsorted(first, a, "right") - 1,
                       np.searchsorted(first, b, "left")):
            seg = x[i * size:(i + 1) * size]
            parts.append(seg[np.abs(seg) > 0][max(a - first[i], 0):b - first[i]])
        return np.abs(np.concatenate(parts)) ** 2

    count = int(first[-1])
    mean_pwr = dsp.pairwise_sum(power, count) / count if count else 0.0
    return abs(scenario.main_path.gain) ** 2 * mean_pwr


def run_channel(x: IqStream, scenario: ChannelScenario) -> IqStream:
    """Full impairment chain: paths + CFO/CPO, then SFO resampling, then AWGN.

    The SNR reference is measured before any channel stream exists, and a
    stage with nothing to do is skipped rather than run as a copy. ``x`` is
    left as it was. The function drops its own reference to ``x`` after the
    path sum, so a caller that passes the only reference frees the TX stream
    before the clock resampler, which then holds two streams; the noise is
    added in place to the channel's own stream."""
    imp = scenario.impairments
    rate = x.nominal_rate
    ref_power = main_path_rx_power(x.samples, scenario)
    y = apply_paths_and_cfo(x.samples, rate, scenario)
    del x
    if imp.sfo_norm != 0.0:
        y = apply_sfo(y, imp.sfo_norm)
    if imp.snr_db is not None:
        _add_awgn(y, imp.snr_db, ref_power, imp.noise_seed)
    return IqStream(samples=y, nominal_rate=rate)
