"""Frame construction, mapping and modulation round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bistatic_radcom import dsp, sync, txframe
from bistatic_radcom.params import ConfigError, FrameConfig
from bistatic_radcom.txframe import (
    build_tx_frame,
    frame_capacity_bits,
    frame_tables,
    map_payload,
    map_qpsk,
    modulate,
    payload_grid,
    pilot_cfr,
    symbols_from_grid,
)


def small_cfg(**kw):
    return FrameConfig(n_subcarriers=64, cp_len=16, m_payload=32, **kw)


def fresh_tables(cfg):
    """The tables of ``cfg`` built anew, past the cache."""
    return frame_tables.__wrapped__(cfg)


def hard_bits(symbols):
    """Sign decisions inverting map_qpsk: bit 1 where the component is negative."""
    return np.column_stack([symbols.real < 0, symbols.imag < 0]).astype(np.uint8).ravel()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 512))
@settings(max_examples=100, deadline=None)
def test_qpsk_round_trip(seed, nsym):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, 2 * nsym, dtype=np.uint8)
    s = map_qpsk(bits)
    assert np.allclose(np.abs(s), 1.0)
    assert np.array_equal(hard_bits(s), bits)


def test_qpsk_unit_average_power():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    s = map_qpsk(bits)
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0)
    assert len(set(np.round(s, 9))) == 4


def qpsk_formula(bits):
    """The QPSK symbols by their closed form, on float64 bit pairs."""
    b = np.asarray(bits).reshape(-1, 2).astype(np.float64)
    return ((1.0 - 2.0 * b[:, 0]) + 1j * (1.0 - 2.0 * b[:, 1])) / np.sqrt(2.0)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_qpsk_table_has_the_formula_bits(dtype):
    """The table lookup gives the closed form's bits on all four pairs and on
    a seeded stream, for the bit dtypes the callers pass."""
    pairs = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=dtype)
    stream = np.random.default_rng(7).integers(0, 2, 2 * 100_003).astype(dtype)
    for bits in (pairs, stream):
        got, want = map_qpsk(bits), qpsk_formula(bits)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_qpsk_rejects_odd_bit_count():
    with pytest.raises(ValueError, match="even number of bits"):
        map_qpsk(np.zeros(7, dtype=np.uint8))


def test_preamble_structure():
    cfg = small_cfg()
    pre = frame_tables(cfg).preamble
    assert pre.shape == (64, 12)
    # first symbol occupies even subcarriers only -> half-repeated in time
    assert np.all(pre[1::2, 0] == 0)
    t = np.fft.ifft(pre[:, 0], norm="ortho")
    assert np.allclose(t[:32], t[32:], atol=1e-12)
    # clock-tracking symbols come in identical adjacent pairs
    for p in range(cfg.m_sfo // 2):
        a, b = pre[:, 2 + 2 * p], pre[:, 3 + 2 * p]
        assert np.array_equal(a, b)


def test_sc_differential_matches_preamble():
    """The differential c2[k] * conj(c1[k]) of the two S&C symbols on the even
    subcarriers, read off the modulated preamble, is the table's; the
    integer CFO search of sync finds a shift of it by an even number of
    subcarriers."""
    cfg = small_cfg()
    pre = frame_tables(cfg).preamble
    _, _, tx = build_tx_frame(cfg, np.array([1, 0], dtype=np.uint8))
    n, ncp, sym = cfg.n_subcarriers, cfg.cp_len, cfg.symbol_len
    y1 = np.fft.fft(tx.samples[ncp:ncp + n], norm="ortho")
    y2 = np.fft.fft(tx.samples[sym + ncp:sym + ncp + n], norm="ortho")
    even = np.arange(0, n, 2)
    assert np.allclose(y2[even] * np.conj(y1[even]), pre[even, 1] * np.conj(pre[even, 0]))
    ts = 1.0 / cfg.bandwidth_hz
    k = np.arange(tx.samples.size)
    for shift in (-4, 0, 2):
        s = tx.samples * np.exp(2j * np.pi * shift * cfg.subcarrier_spacing * k * ts)
        assert sync._integer_cfo(s, cfg, 0, 0.0) == shift


@pytest.mark.parametrize("m_sfo", [2, 10])
@pytest.mark.parametrize("m_sc", [1, 2, 3])
def test_preamble_matches_per_pair_draws(m_sc, m_sfo):
    """The clock-tracking pairs, drawn at once, are the symbols of one draw
    per pair from the same generator, after the two S&C symbols (with one
    S&C column the second symbol is drawn and then overwritten; with three
    the third column stays zero)."""
    cfg = small_cfg(m_sc=m_sc, m_sfo=m_sfo)
    n = cfg.n_subcarriers
    rng = np.random.default_rng(cfg.preamble_seed)
    want = np.zeros((n, cfg.m_preamble), dtype=np.complex128)
    want[0::2, 0] = np.sqrt(2.0) * txframe._seeded_qpsk(rng, n // 2)
    want[:, 1] = txframe._seeded_qpsk(rng, n)
    for i in range(m_sfo // 2):
        want[:, m_sc + 2 * i] = want[:, m_sc + 2 * i + 1] = txframe._seeded_qpsk(rng, n)
    got = fresh_tables(cfg).preamble
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_preamble_deterministic_per_seed():
    a = fresh_tables(small_cfg()).preamble
    b = fresh_tables(small_cfg()).preamble
    c = fresh_tables(small_cfg(preamble_seed=99)).preamble
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pilot_grid_placement():
    """Pilots sit on the comb [::dN, ::dM], every other payload cell carries
    data, and the payload grid puts the table's pilots there."""
    cfg = small_cfg()
    tables = frame_tables(cfg)
    pilot_mask = ~tables.data_mask
    assert pilot_mask.sum() == cfg.n_pilot_rows * cfg.n_pilot_cols
    assert pilot_mask[0, 0]
    assert pilot_mask[cfg.pilot_freq_spacing, cfg.pilot_time_spacing]
    assert not pilot_mask[1, 0]
    region = payload_grid(cfg, np.zeros(cfg.n_data_elements, dtype=complex))
    assert np.array_equal(region[::cfg.pilot_freq_spacing, ::cfg.pilot_time_spacing],
                          tables.pilots)
    assert np.array_equal(region != 0, pilot_mask)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_frame_data_round_trip(seed):
    """Bits placed on the grid come back in the same order."""
    cfg = small_cfg()
    rng = np.random.default_rng(seed)
    nbits = rng.integers(1, frame_capacity_bits(cfg)[0] + 1)
    info = rng.integers(0, 2, nbits, dtype=np.uint8)
    frame, payload, stream = build_tx_frame(cfg, info)
    got = symbols_from_grid(frame, cfg)
    coded = payload.coded_bits
    assert np.array_equal(hard_bits(got)[:coded.size], coded)
    # the layout functions invert each other and read pilots as a unit channel
    region = payload_grid(cfg, got)
    assert np.array_equal(region, frame[:, cfg.m_preamble:])
    assert np.array_equal(pilot_cfr(region, cfg),
                          np.ones((cfg.n_pilot_rows, cfg.n_pilot_cols)))


def test_masks_cover_frame_regions():
    """The tables split the frame into preamble columns and a payload region
    whose cells are pilots (the index comb) or data (the data mask)."""
    cfg = small_cfg()
    tables = frame_tables(cfg)
    assert tables.preamble.shape == (cfg.n_subcarriers, cfg.m_sc + cfg.m_sfo)
    assert tables.data_mask.shape == (cfg.n_subcarriers, cfg.m_payload)
    pilot_cells = np.zeros_like(tables.data_mask)
    pilot_cells[np.ix_(tables.k_pil, tables.m_pil)] = True
    assert np.array_equal(tables.data_mask, ~pilot_cells)
    assert tables.data_mask.sum() == cfg.n_data_elements
    frame, _, _ = build_tx_frame(cfg, np.array([1, 0, 1], dtype=np.uint8))
    assert frame.shape == (cfg.n_subcarriers, cfg.m_preamble + cfg.m_payload)


def test_modulate_demodulate_identity():
    """CP prepend + unitary IDFT inverts exactly per column."""
    cfg = small_cfg()
    frame, _, stream = build_tx_frame(cfg, np.array([1, 1, 0, 1], dtype=np.uint8))
    sym = cfg.symbol_len
    blocks = stream.samples.reshape(cfg.m_total, sym).T
    # CP is the tail copy
    assert np.allclose(blocks[:cfg.cp_len], blocks[-cfg.cp_len:])
    rebuilt = np.fft.fft(blocks[cfg.cp_len:], axis=0, norm="ortho")
    assert np.allclose(rebuilt, frame, atol=1e-12)


def test_modulate_preserves_power():
    cfg = small_cfg()
    frame, _, stream = build_tx_frame(cfg, np.array([0, 1], dtype=np.uint8))
    grid_pwr = np.sum(np.abs(frame) ** 2)
    useful = stream.samples.reshape(cfg.m_total, cfg.symbol_len)[:, cfg.cp_len:]
    assert np.sum(np.abs(useful) ** 2) == pytest.approx(grid_pwr)


def modulate_one_shot(grid, cfg):
    """The modulator as one transform of the whole grid."""
    time_syms = np.fft.ifft(grid, axis=0, norm="ortho")
    with_cp = np.concatenate([time_syms[-cfg.cp_len:, :], time_syms], axis=0)
    return with_cp.T.reshape(-1)


@pytest.mark.parametrize("columns, workers", [(1, 1), (3, 3), (7, 2), (64, 2)])
def test_blocked_modulate_matches_one_shot(monkeypatch, columns, workers):
    """Blocks of columns on 1 to 3 threads, their edges inside the frame or
    past it, return the bits of one whole-grid transform."""
    cfg = small_cfg()
    rng = np.random.default_rng(columns)
    shape = (cfg.n_subcarriers, cfg.m_total)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    monkeypatch.setattr(dsp, "_BLOCK", columns * cfg.n_subcarriers)
    monkeypatch.setattr(dsp, "_workers", lambda: workers)
    got = modulate(grid, cfg).samples
    want = modulate_one_shot(grid, cfg)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_capacity_overflow_raises():
    cfg = small_cfg()
    max_info, _ = frame_capacity_bits(cfg)
    with pytest.raises(ConfigError) as exc:
        map_payload(np.zeros(max_info + 1, dtype=np.uint8), cfg)
    assert exc.value.violations == [f"payload of {max_info + 1} bits exceeds frame "
                                    f"capacity of {max_info} info bits"]


def test_wrong_symbol_count_raises():
    cfg = small_cfg()
    with pytest.raises(ValueError, match=f"expected {cfg.n_data_elements} payload symbols "
                                         "for this config, got 17"):
        payload_grid(cfg, np.zeros(17, dtype=complex))
    with pytest.raises(ValueError, match=f"got {cfg.n_data_elements + 1}$"):
        payload_grid(cfg, np.zeros(cfg.n_data_elements + 1, dtype=complex))


def test_pilot_values_deterministic():
    cfg = small_cfg()
    pilots = fresh_tables(cfg).pilots
    assert np.array_equal(pilots, fresh_tables(cfg).pilots)
    assert pilots.shape == (cfg.n_pilot_rows, cfg.n_pilot_cols)
    assert not np.array_equal(pilots, fresh_tables(small_cfg(pilot_seed=7)).pilots)


def test_frame_tables_cached_and_read_only():
    cfg = small_cfg()
    tables = frame_tables(cfg)
    assert frame_tables(small_cfg()) is tables
    assert frame_tables(small_cfg(pilot_seed=7)) is not tables
    for name, arr in vars(fresh_tables(cfg)).items():
        assert np.array_equal(getattr(tables, name), arr), name
    assert np.array_equal(tables.k_pil, np.arange(0, 64, cfg.pilot_freq_spacing))
    assert np.array_equal(tables.m_pil, np.arange(0, 32, cfg.pilot_time_spacing))
    for name, arr in vars(tables).items():
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
        assert not arr.flags.writeable, name
