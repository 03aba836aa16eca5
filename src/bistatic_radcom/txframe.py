"""Discrete-frequency OFDM frame construction and baseband modulation.

Frame layout (columns): M_sc Schmidl-Cox symbols, M_sfo pairwise-identical
clock-tracking symbols, then the payload region carrying a comb-block pilot
grid and LDPC-coded QPSK data. The DFT convention is unitary in both
directions so time- and frequency-domain powers agree.

This module is the sole owner of that layout: the pilot comb
``[::dN, ::dM]``, the seeded pilot and preamble symbols, and the
column-major order of the data cells. :func:`frame_tables` builds it, one
cached, read-only table set per ``FrameConfig``, and is the only way to
reach it. :func:`payload_columns` is the one writer of payload cells: from a
frame's coded bits it gives any span of payload symbols, the pilots plus the
data cells, for the TX grid and for the full-frame sensing reference alike.
:func:`symbols_from_grid` and :func:`pilot_cfr` read the payload region
through the same tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dsp import run_blocks
from .ldpc import default_code
from .params import QPSK_BITS, ConfigError, FrameConfig


@dataclass
class PayloadBits:
    info_bits: np.ndarray
    coded_bits: np.ndarray
    codeword_count: int


@dataclass
class IqStream:
    samples: np.ndarray
    nominal_rate: float


@dataclass(frozen=True)
class FrameTables:
    """Frame layout of one ``FrameConfig``; every array is read-only."""
    preamble: np.ndarray      # complex, N x M_pb
    pilots: np.ndarray        # complex, N/dN x M_pl/dM, on the comb [::dN, ::dM]
    data_mask: np.ndarray     # bool, N x M_pl, True at data cells
    k_pil: np.ndarray         # pilot subcarrier indices
    m_pil: np.ndarray         # pilot payload-symbol indices


def _seeded_qpsk(rng: np.random.Generator, n: int) -> np.ndarray:
    bits = rng.integers(0, 2, 2 * n)
    return map_qpsk(bits)


# The four QPSK symbols, indexed by 2 * b1 + b0
_B1, _B0 = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
_QPSK = ((1.0 - 2.0 * _B1) + 1j * (1.0 - 2.0 * _B0)) / np.sqrt(2.0)


def map_qpsk(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped QPSK, unit average power: (b1, b0) -> ((1-2b1)+j(1-2b0))/sqrt2."""
    bits = np.asarray(bits)
    if bits.size % 2 != 0:
        raise ValueError("QPSK mapping requires an even number of bits")
    b = bits.reshape(-1, 2)
    # the output is allocated before the index: in the other order glibc's
    # heap left the short reference run's peak RSS 16 MB higher
    symbols = np.empty(b.shape[0], dtype=np.complex128)
    index = 2 * b[:, 0]
    index += b[:, 1]
    # the index is 0 to 3, so "clip" never clips; unlike the default
    # "raise", it writes straight into ``out`` without a buffer of its size
    return np.take(_QPSK, index, out=symbols, mode="clip")


@functools.lru_cache(maxsize=8)
def frame_tables(cfg: FrameConfig) -> FrameTables:
    """The layout tables of ``cfg``, built on first use and then shared.

    The first S&C symbol occupies only even subcarriers (boosted by sqrt(2)
    to keep unit symbol power), which yields two identical time-domain
    halves. The second is a full QPSK symbol whose even subcarriers are
    differentially related to the first, enabling integer CFO resolution.
    The remaining M_sfo symbols are adjacent identical pairs. The pilots are
    a seeded unit-power QPSK grid on the comb; every other payload cell
    carries data.
    """
    rng = np.random.default_rng(cfg.preamble_seed)
    n = cfg.n_subcarriers
    preamble = np.zeros((n, cfg.m_preamble), dtype=np.complex128)
    even = np.arange(0, n, 2)
    preamble[even, 0] = np.sqrt(2.0) * _seeded_qpsk(rng, even.size)
    preamble[:, 1] = _seeded_qpsk(rng, n)
    pairs = _seeded_qpsk(rng, n * (cfg.m_sfo // 2)).reshape(-1, n).T
    preamble[:, cfg.m_sc:] = np.repeat(pairs, 2, axis=1)

    rng = np.random.default_rng(cfg.pilot_seed)
    pilots = _seeded_qpsk(rng, cfg.n_pilot_rows * cfg.n_pilot_cols).reshape(
        cfg.n_pilot_rows, cfg.n_pilot_cols)
    pilot = np.zeros((n, cfg.m_payload), dtype=bool)
    pilot[::cfg.pilot_freq_spacing, ::cfg.pilot_time_spacing] = True

    tables = FrameTables(
        preamble=preamble,
        pilots=pilots,
        data_mask=~pilot,
        k_pil=np.arange(0, n, cfg.pilot_freq_spacing),
        m_pil=np.arange(0, cfg.m_payload, cfg.pilot_time_spacing),
    )
    for arr in vars(tables).values():
        arr.flags.writeable = False
    return tables


def pilot_cfr(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Least-squares channel estimates at the pilots of an N x M_pl payload
    grid, shape (N/dN, M_pl/dM)."""
    y_p = grid[::cfg.pilot_freq_spacing, ::cfg.pilot_time_spacing]
    return y_p / frame_tables(cfg).pilots


def frame_capacity_bits(cfg: FrameConfig) -> tuple[int, int]:
    """(max info bits, codeword count) that fit in one frame."""
    code = default_code()
    coded_capacity = cfg.n_data_elements * QPSK_BITS
    n_cw = coded_capacity // code.n
    return n_cw * code.k, n_cw


def codeword_count(info_len: int) -> int:
    """Codewords carrying ``info_len`` info bits; at least one."""
    return max(1, -(-info_len // default_code().k))


def symbols_from_grid(grid: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Data symbols of an N x M frame grid, in the column-major order that
    :func:`payload_columns` fills."""
    return grid[:, cfg.m_preamble:].T[frame_tables(cfg).data_mask.T]


def modulate(grid: np.ndarray, cfg: FrameConfig) -> IqStream:
    """Per-column unitary IDFT, CP prepend, P/S concatenation.

    Blocks of columns are transformed at a time, each straight into its rows
    of one (M, N + CP) output array, so no transform of the whole grid is
    ever held."""
    cp = cfg.cp_len
    out = np.empty((grid.shape[1], grid.shape[0] + cp), dtype=np.complex128)

    def block(start: int, stop: int) -> None:
        time_syms = np.fft.ifft(grid[:, start:stop], axis=0, norm="ortho").T
        out[start:stop, cp:] = time_syms
        out[start:stop, :cp] = time_syms[:, -cp:]

    run_blocks(block, grid.shape[1], width=grid.shape[0])
    return IqStream(samples=out.reshape(-1), nominal_rate=cfg.bandwidth_hz)


def encode_payload(info_bits: np.ndarray, cfg: FrameConfig) -> PayloadBits:
    """Systematic LDPC encoding of the info bits of one frame; a short final
    block is zero-padded."""
    code = default_code()
    info_bits = np.asarray(info_bits, dtype=np.uint8).ravel()
    max_info, max_cw = frame_capacity_bits(cfg)
    if info_bits.size > max_info:
        raise ConfigError(
            [f"payload of {info_bits.size} bits exceeds frame capacity of {max_info} info bits"])
    n_cw = codeword_count(info_bits.size)
    if n_cw > max_cw:
        raise ConfigError([f"frame fits at most {max_cw} codewords"])
    padded = np.zeros(n_cw * code.k, dtype=np.uint8)
    padded[:info_bits.size] = info_bits
    coded = code.encode(padded.reshape(n_cw, code.k)).reshape(-1)
    return PayloadBits(info_bits=info_bits, coded_bits=coded, codeword_count=n_cw)


def map_coded_bits(coded_bits: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Data symbols ``start:stop`` of a frame carrying ``coded_bits``; the
    cells beyond them carry zero bits."""
    bits = np.zeros(QPSK_BITS * (stop - start), dtype=np.uint8)
    part = coded_bits[QPSK_BITS * start:QPSK_BITS * stop]
    bits[:part.size] = part
    return map_qpsk(bits)


def payload_columns(cfg: FrameConfig, coded_bits: np.ndarray, start: int,
                    stop: int) -> np.ndarray:
    """Payload symbols ``start:stop`` (N x (stop - start)) of a frame
    carrying ``coded_bits``: the pilots on the comb, and the data cells, one
    contiguous run of the data order, mapped by `map_coded_bits`."""
    tables = frame_tables(cfg)
    dn, dm = cfg.pilot_freq_spacing, cfg.pilot_time_spacing

    def first(m: int) -> int:
        """Data cells in the payload symbols before symbol ``m``."""
        return m * cfg.n_subcarriers - -(-m // dm) * cfg.n_pilot_rows

    cols = np.zeros((cfg.n_subcarriers, stop - start), dtype=np.complex128)
    cols[::dn, -start % dm::dm] = tables.pilots[:, -(-start // dm):-(-stop // dm)]
    cols.T[tables.data_mask[:, start:stop].T] = map_coded_bits(coded_bits, first(start),
                                                               first(stop))
    return cols


def build_tx_frame(cfg: FrameConfig, info_bits: np.ndarray) -> tuple[np.ndarray, PayloadBits, IqStream]:
    """Convenience TX chain: encode, place the preamble and the payload
    columns of the coded bits on the N x M grid, modulate. Returns the frame
    grid, the payload bits and the sample stream."""
    payload = encode_payload(info_bits, cfg)
    # the payload columns are made before the grid and let go once copied
    # into it: written into a grid that already exists, the writer's symbols
    # and their index lift the long reference's TX peak from 401 to 529 MB
    grid = np.concatenate([frame_tables(cfg).preamble,
                           payload_columns(cfg, payload.coded_bits, 0, cfg.m_payload)], axis=1)
    return grid, payload, modulate(grid, cfg)
