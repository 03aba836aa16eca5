"""Channel code: encoder/decoder invariants and noise performance."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bistatic_radcom.ldpc import _BASE_MATRIX, _check_to_var, default_code


@pytest.fixture(scope="module")
def code():
    return default_code()


@pytest.fixture(scope="module")
def h():
    """Dense parity-check matrix expanded from the base matrix: each shift s
    is a 27x27 identity with its columns rolled left by s."""
    z = 27
    dense = np.zeros((len(_BASE_MATRIX) * z, len(_BASE_MATRIX[0]) * z), dtype=np.uint8)
    eye = np.eye(z, dtype=np.uint8)
    for i, row in enumerate(_BASE_MATRIX):
        for j, shift in enumerate(row):
            if shift >= 0:
                dense[i * z:(i + 1) * z, j * z:(j + 1) * z] = np.roll(eye, -shift, axis=1)
    return dense


def test_dimensions(code, h):
    assert code.n == 648
    assert code.k == 432
    assert h.shape == (216, 648)


def test_parity_matrix_is_sparse_binary(h):
    assert set(np.unique(h)) <= {0, 1}
    # row weight of a QC-LDPC prototype stays small
    assert h.sum(axis=1).max() <= 12


def test_decoder_edges_walk_h_row_by_row(code, h):
    # the circulant edge table the decoder reads, in check order
    assert np.array_equal(code._edges.transpose(0, 2, 1).reshape(-1), np.nonzero(h)[1])
    assert code._edges.shape[1] == 11


def test_encode_matches_recorded_digest(code):
    # sha256 of this batch as encoded by the dense GF(2)-inverse generator
    info = np.random.default_rng(2024).integers(0, 2, (64, code.k), dtype=np.uint8)
    cw = code.encode(info)
    assert cw.dtype == np.uint8 and cw.shape == (64, code.n)
    assert hashlib.sha256(cw.tobytes()).hexdigest() == (
        "2ef032e044e761e5fccfc12c73a9a48835f8b4040712a16492b2b7ac28d58eb3")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_every_codeword_satisfies_parity(code, seed):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (4, code.k), dtype=np.uint8)
    cw = code.encode(info)
    assert code.check(cw).all()
    # systematic prefix
    assert np.array_equal(cw[:, :code.k], info)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_decode_recovers_lightly_corrupted_codewords(code, seed):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (2, code.k), dtype=np.uint8)
    cw = code.encode(info)
    llrs = (1.0 - 2.0 * cw.astype(float)) * 8.0
    # flip a handful of bits per codeword
    for row in llrs:
        idx = rng.choice(code.n, size=6, replace=False)
        row[idx] *= -1.0
    bits, ok = code.decode(llrs)
    assert ok.all()
    assert np.array_equal(bits[:, :code.k], info)


def test_decode_awgn_waterfall(code):
    """Soft decoding at a moderate Es/N0 yields error-free blocks."""
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, (30, code.k), dtype=np.uint8)
    cw = code.encode(info)
    x = 1.0 - 2.0 * cw.astype(float)  # BPSK
    es_n0 = 10 ** (3.0 / 10.0)
    sigma = np.sqrt(1.0 / (2.0 * es_n0))
    y = x + rng.normal(0.0, sigma, x.shape)
    llrs = 2.0 * y / sigma ** 2
    bits, ok = code.decode(llrs)
    assert np.array_equal(bits[:, :code.k], info)
    assert ok.all()


def test_all_zero_llrs_do_not_crash(code):
    bits, ok = code.decode(np.zeros((1, code.n)))
    assert bits.shape == (1, code.n)


def test_decoder_flags_unconvergence_on_garbage(code):
    rng = np.random.default_rng(0)
    llrs = rng.normal(0.0, 1.0, (4, code.n))
    bits, ok = code.decode(llrs, max_iter=10)
    # random LLRs are overwhelmingly unlikely to satisfy all 216 checks
    assert not ok.all()


def _check_to_var_reference(v2c, scale):
    """Min-sum messages edge by edge: min |.| and sign product over the others."""
    checks, degree, batch = v2c.shape
    out = np.empty_like(v2c)
    for c in range(checks):
        for e in range(degree):
            others = np.delete(v2c[c], e, axis=0)
            sign = np.where(np.sum(others < 0, axis=0) % 2 == 1,
                            np.float32(-1.0), np.float32(1.0))
            out[c, e] = np.float32(scale) * sign * np.abs(others).min(axis=0)
    return out


def test_check_node_tied_minima_both_get_min1():
    mags = np.array([1.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                    dtype=np.float32)
    c2v = _check_to_var(mags.reshape(1, 11, 1), 0.8)[0, :, 0]
    assert np.all(c2v == np.float32(0.8) * np.float32(1.0))


def test_check_node_unique_minimum_gets_min2():
    v2c = np.array([-1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                   dtype=np.float32).reshape(1, 11, 1)
    c2v = _check_to_var(v2c, 0.8)[0, :, 0]
    assert c2v[0] == np.float32(0.8) * np.float32(2.0)
    assert np.all(c2v[1:] == -np.float32(0.8) * np.float32(1.0))


def test_check_node_matches_edge_by_edge_reference():
    rng = np.random.default_rng(3)
    # few distinct magnitudes, zeros included: ties at every level
    v2c = rng.choice(np.float32([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), (6, 11, 5))
    assert np.array_equal(_check_to_var(v2c, 0.8), _check_to_var_reference(v2c, 0.8))
    v2c = rng.normal(0.0, 3.0, (6, 11, 5)).astype(np.float32)
    assert np.array_equal(_check_to_var(v2c, 0.8), _check_to_var_reference(v2c, 0.8))


@given(st.integers(0, 2 ** 32 - 1), st.floats(1.5, 2.5), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_decode_flags_match_bits_and_rows_decode_alone(code, seed, es_n0_db, max_iter):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (5, code.k), dtype=np.uint8)
    x = 1.0 - 2.0 * code.encode(info).astype(float)  # BPSK
    sigma = np.sqrt(1.0 / (2.0 * 10 ** (es_n0_db / 10.0)))
    y = x + rng.normal(0.0, sigma, x.shape)
    y[0] = x[0]  # one codeword valid before any iteration
    llrs = 2.0 * y / sigma ** 2
    bits, ok = code.decode(llrs, max_iter=max_iter)
    assert np.array_equal(ok, code.check(bits))
    for i, row in enumerate(llrs):
        bits_i, ok_i = code.decode(row[None, :], max_iter=max_iter)
        assert np.array_equal(bits_i[0], bits[i])
        assert ok_i[0] == ok[i]


def _layered_decode_reference(h, llrs, max_iter, scale=0.8):
    """Layered min-sum on the dense H, one codeword at a time: each iteration
    updates the block rows of 27 checks in order, every check's variables
    read off its row of H."""
    z = 27
    block_rows = [np.array([np.nonzero(row)[0] for row in h[i:i + z]])
                  for i in range(0, len(h), z)]
    llrs = np.clip(np.atleast_2d(np.asarray(llrs, dtype=np.float32)), -40.0, 40.0)
    out_bits = (llrs < 0).astype(np.uint8)
    out_ok = _integer_check(h, out_bits)
    for b in np.nonzero(~out_ok)[0]:
        total = llrs[b].copy()
        c2v = [np.zeros(cols.shape, dtype=np.float32) for cols in block_rows]
        for _ in range(max_iter):
            for cols, msgs in zip(block_rows, c2v):
                v2c = total[cols] - msgs
                msgs[...] = _check_to_var(v2c[:, :, None], scale)[:, :, 0]
                total[cols] = v2c + msgs
            out_bits[b] = total < 0
            if _integer_check(h, out_bits[b]):
                out_ok[b] = True
                break
    return out_bits, out_ok


@pytest.mark.parametrize("max_iter", [1, 3, 50])
def test_decode_matches_dense_layered_reference(code, h, max_iter):
    rng = np.random.default_rng(100 + max_iter)
    for es_n0_db in (1.0, 1.5, 2.0, 2.5):
        info = rng.integers(0, 2, (8, code.k), dtype=np.uint8)
        x = 1.0 - 2.0 * code.encode(info).astype(float)  # BPSK
        sigma = np.sqrt(1.0 / (2.0 * 10 ** (es_n0_db / 10.0)))
        llrs = 2.0 * (x + rng.normal(0.0, sigma, x.shape)) / sigma ** 2
        llrs[0] = 2.0 * x[0] / sigma ** 2  # valid before any iteration
        bits, ok = code.decode(llrs, max_iter=max_iter)
        want_bits, want_ok = _layered_decode_reference(h, llrs, max_iter)
        assert np.array_equal(bits, want_bits)
        assert np.array_equal(ok, want_ok)


def _integer_check(h, cw):
    return ~np.any((cw.astype(np.int64) @ h.T.astype(np.int64)) % 2, axis=-1)


def test_check_matches_integer_syndrome(code, h):
    # every row of H has weight 11, so the all-ones word fails every check
    assert np.all(h.sum(axis=1) == 11)
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2, (200, code.n), dtype=np.uint8)
    cw = code.encode(rng.integers(0, 2, (3, code.k), dtype=np.uint8))
    ones = np.ones((1, code.n), dtype=np.uint8)  # every syndrome entry is 11
    single_errors = np.repeat(cw[:1], code.n, axis=0)
    single_errors[np.arange(code.n), np.arange(code.n)] ^= 1
    for batch in (words, cw, ones, single_errors):
        assert np.array_equal(code.check(batch), _integer_check(h, batch))
    # the syndrome itself, check i*27 + r at block row i, row r
    syndrome = (words.astype(np.int64) @ h.T.astype(np.int64)) % 2
    assert np.array_equal(code._syndrome(words).reshape(len(words), -1), syndrome)
    assert code.check(cw).all()
    assert not code.check(ones)[0]
    assert not code.check(single_errors).any()
