"""Rate-2/3 quasi-cyclic LDPC code (IEEE 802.11n, n = 648, Z = 27).

H is kept as one table of circulant edges, the variable index of every edge
read off the base matrix. From it come systematic encoding by
back-substitution over the dual-diagonal parity part (Richardson & Urbanke,
IEEE Trans. Inf. Theory 2001), the parity check as a gather and XOR, and
decoding with a batched normalized min-sum decoder (Chen & Fossorier, IEEE
Trans. Commun. 2002) on the layered schedule, one block row after another
(Hocevar, SiPS 2004). The decoder iterates only the codewords whose hard
decision still fails the parity check: a codeword leaves this active set,
with its bits, at the first iteration it passes. A converged flag therefore
always means that the returned bits satisfy H c = 0.
"""

from __future__ import annotations

import functools

import numpy as np

# Prototype matrix for the 648-bit rate-2/3 WLAN code: entries are circulant
# shifts of a 27x27 identity block, -1 marks an all-zero block.
_BASE_MATRIX = [
    [25, 26, 14, -1, 20, -1,  2, -1,  4, -1, -1,  8, -1, 16, -1, 18,  1,  0, -1, -1, -1, -1, -1, -1],
    [10,  9, 15, 11, -1,  0, -1,  1, -1, -1, 18, -1,  8, -1, 10, -1, -1,  0,  0, -1, -1, -1, -1, -1],
    [16,  2, 20, 26, 21, -1,  6, -1,  1, 26, -1,  7, -1, -1, -1, -1, -1, -1,  0,  0, -1, -1, -1, -1],
    [10, 13,  5,  0, -1,  3, -1,  7, -1, -1, 26, -1, -1, 13, -1, 16, -1, -1, -1,  0,  0, -1, -1, -1],
    [23, 14, 24, -1, 12, -1, 19, -1, 17, -1, -1, -1, 20, -1, 21, -1,  0, -1, -1, -1,  0,  0, -1, -1],
    [ 6, 22,  9, 20, -1, 25, -1, 17, -1,  8, -1, 14, -1, 18, -1, -1, -1, -1, -1, -1, -1,  0,  0, -1],
    [14, 23, 21, 11, 20, -1, 24, -1, 18, -1, 19, -1, -1, -1, -1, 22, -1, -1, -1, -1, -1, -1,  0,  0],
    [17, 11, 11, 20, -1, 21, -1, 26, -1,  3, -1, -1, 18, -1, 26, -1,  1, -1, -1, -1, -1, -1, -1,  0],
]
_Z = 27
_MIN_SUM_SCALE = 0.8  # normalization of the min-sum check-node messages


def _circulant_edges() -> np.ndarray:
    """Variable index of every edge of H as (block rows, 11, Z).

    Row r of block row i checks, in each nonzero block (i, j) with shift s,
    variable j*Z + (r - s) % Z. Every block row has 11 nonzero blocks, in
    column order along axis 1.
    """
    r = np.arange(_Z)
    return np.array([[j * _Z + (r - shift) % _Z for j, shift in enumerate(row) if shift >= 0]
                     for row in _BASE_MATRIX])


class LdpcCode:
    """Fixed rate-2/3 (648, 432) LDPC code with batch encode/decode."""

    def __init__(self) -> None:
        self._edges = _circulant_edges()
        self.n = len(_BASE_MATRIX[0]) * _Z
        self.n_parity = len(_BASE_MATRIX) * _Z
        self.k = self.n - self.n_parity

    def _syndrome(self, codewords: np.ndarray) -> np.ndarray:
        """H c over GF(2), shape (..., block rows, Z): check i*Z + r at [i, r]."""
        return np.bitwise_xor.reduce(codewords[..., self._edges], axis=-2)

    # -- encoding -----------------------------------------------------------

    def encode(self, info: np.ndarray) -> np.ndarray:
        """Encode info bits, shape (..., k) -> codewords (..., n).

        Back-substitution over the dual-diagonal parity part of H: with s_i
        the syndrome of the info bits alone at block row i, parity block
        p0 = sum of all s_i, then p1 = s_0 + P^1 p0 and p_(i+1) = s_i + p_i,
        where block row 4 also holds p0 (its column of shifts is 1, 0, 1 at
        block rows 0, 4, 7).
        """
        info = np.asarray(info, dtype=np.uint8)
        if info.shape[-1] != self.k:
            raise ValueError(f"info block length must be {self.k}, got {info.shape[-1]}")
        blocks = np.zeros(info.shape[:-1] + (self.n // _Z, _Z), dtype=np.uint8)
        codewords = blocks.reshape(info.shape[:-1] + (self.n,))
        codewords[..., :self.k] = info
        s = self._syndrome(codewords)
        parity = blocks[..., self.k // _Z:, :]
        parity[..., 0, :] = np.bitwise_xor.reduce(s, axis=-2)
        s[..., 0, :] ^= np.roll(parity[..., 0, :], 1, axis=-1)
        s[..., 4, :] ^= parity[..., 0, :]
        np.bitwise_xor.accumulate(s[..., :-1, :], axis=-2, out=parity[..., 1:, :])
        return codewords

    def check(self, codewords: np.ndarray) -> np.ndarray:
        """True for each codeword satisfying H c = 0."""
        syndrome = self._syndrome(np.asarray(codewords, dtype=np.uint8))
        return ~np.any(syndrome, axis=(-2, -1))

    # -- decoding -----------------------------------------------------------

    def decode(self, llrs: np.ndarray, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
        """Normalized min-sum decoding of a batch of codewords.

        ``llrs`` has shape (batch, n) with positive values favoring bit 0.
        Returns (hard bits (batch, n), converged flags (batch,)).

        Layered schedule: one iteration updates the block rows of H in
        order, each against the posterior LLRs its predecessors left. Each
        variable appears at most once in a block row, so a block row's
        checks update in one batch. The iterations run over an active set:
        the codewords whose hard decision fails the parity check. A codeword
        leaves the set at the first iteration its hard decision passes; its
        bits from that iteration are returned and flagged converged.
        Codewords still active after ``max_iter`` iterations return their
        last hard decision, flagged unconverged. So a codeword is flagged
        converged exactly when its returned bits satisfy ``check``.
        """
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float32))
        llrs = np.clip(llrs, -40.0, 40.0)
        out_bits = (llrs < 0).astype(np.uint8)
        out_ok = self.check(out_bits)
        active = np.nonzero(~out_ok)[0]
        if active.size == 0:
            return out_bits, out_ok

        rows = self._edges.transpose(0, 2, 1)   # (block rows, Z checks, 11)
        total = llrs[active].T.copy()           # (n, b) posterior LLRs
        c2v = np.zeros(rows.shape + (active.size,), dtype=np.float32)
        for _ in range(max_iter):
            for edges, row_c2v in zip(rows, c2v):
                v2c = total[edges] - row_c2v
                row_c2v[...] = _check_to_var(v2c, _MIN_SUM_SCALE)
                total[edges] = v2c + row_c2v
            bits = (total < 0).astype(np.uint8)
            now_ok = self.check(bits.T)
            if now_ok.any():
                out_bits[active[now_ok]] = bits[:, now_ok].T
                out_ok[active[now_ok]] = True
                keep = ~now_ok
                active = active[keep]
                if active.size == 0:
                    return out_bits, out_ok
                total, c2v = total[:, keep], c2v[..., keep]
        out_bits[active] = (total < 0).T
        return out_bits, out_ok


def _check_to_var(v2c: np.ndarray, scale: float) -> np.ndarray:
    """Normalized min-sum check-node update.

    ``v2c`` holds the variable-to-check messages as (checks, degree, batch).
    Each edge gets the smallest magnitude among the other edges of its
    check, signed by the parity of their signs and scaled by ``scale``. So
    the one edge holding the minimum gets the second smallest magnitude,
    and when the minimum is tied every edge gets the minimum.
    """
    mag = np.abs(v2c)
    min1 = mag.min(axis=1, keepdims=True)
    at_min = mag == min1
    tied = at_min.sum(axis=1, keepdims=True, dtype=np.int8) > 1
    min2 = np.where(tied, min1,
                    np.where(at_min, np.float32(np.inf), mag).min(axis=1, keepdims=True))
    # min2 >= min1: edges at the minimum get min2, all others min1
    ext_mag = np.maximum(min1, min2 * at_min)
    neg = v2c < 0
    parity = np.logical_xor.reduce(neg, axis=1, keepdims=True)
    sign = np.float32(1.0) - np.float32(2.0) * (neg ^ parity)
    return np.float32(scale) * sign * ext_mag


@functools.cache
def default_code() -> LdpcCode:
    """Shared code instance."""
    return LdpcCode()
