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

The decoder gathers a block row's messages degree first, as the edge table
is stored: (11 edges, Z checks, codewords). Each check-node reduction (the
minimum, the second minimum, the tie count and the sign parity) then runs
over the leading axis, one elementwise pass over contiguous rows, which
costs a few microseconds per call however few codewords are left.
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
LLR_CLIP = 40.0  # the decoder clips its input LLRs to +-LLR_CLIP
_SYNDROME_ROWS = 1024  # codewords per block of the syndrome's gather
_MAGNITUDE_BITS = np.uint32(0x7FFFFFFF)  # all bits of a float32 but its sign


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
        """H c over GF(2), shape (..., block rows, Z): check i*Z + r at [i, r].

        The edges of ``_SYNDROME_ROWS`` codewords are gathered at a time,
        each block reduced into its rows of a preallocated syndrome, so the
        gather (11 bytes per check) never exists whole."""
        words = codewords.reshape(-1, self.n)
        checks = (self.n_parity // _Z, _Z)
        syndrome = np.empty(codewords.shape[:-1] + checks, dtype=codewords.dtype)
        rows = syndrome.reshape((len(words),) + checks)
        for start in range(0, len(words), _SYNDROME_ROWS):
            # assigned, not reduced with ``out=``: the gather is laid out
            # codeword-fastest, and a C-ordered ``out`` makes the reduction
            # about 20 times slower
            stop = start + _SYNDROME_ROWS
            rows[start:stop] = np.bitwise_xor.reduce(words[start:stop, self._edges], axis=-2)
        return syndrome

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
        # clipped into a copy, unless already clipped: the caller's LLRs are
        # not changed, and float32 LLRs within the bounds are not copied
        if llrs.size and not (llrs.min() >= -LLR_CLIP and llrs.max() <= LLR_CLIP):
            llrs = np.clip(llrs, -LLR_CLIP, LLR_CLIP)
        out_bits = (llrs < 0).astype(np.uint8)
        out_ok = self.check(out_bits)
        active = np.nonzero(~out_ok)[0]
        if active.size == 0:
            return out_bits, out_ok

        total = llrs[active].T.copy()  # (n, b) posterior LLRs
        c2v = np.zeros(self._edges.shape + (active.size,), dtype=np.float32)
        for _ in range(max_iter):
            for edges, row_c2v in zip(self._edges, c2v):
                v2c = total[edges]  # (11, Z, b), written in place
                v2c -= row_c2v
                _check_to_var(v2c, _MIN_SUM_SCALE, out=row_c2v)
                v2c += row_c2v
                total[edges] = v2c
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


def _check_to_var(v2c: np.ndarray, scale: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Normalized min-sum check-node update, into ``out`` when given.

    ``v2c`` holds the float32 variable-to-check messages as (degree, checks,
    batch). Each edge gets the smallest magnitude among the other edges of
    its check, signed by the parity of their signs (``v2c < 0``, so -0.0
    counts as non-negative) and scaled by ``scale``. So the one edge holding
    the minimum gets the second smallest magnitude, and when the minimum is
    tied every edge gets the minimum.

    The magnitudes are compared as the bits of |v2c|, which order as the
    values do. Subtracting the minimum plus one wraps the edges at the
    minimum to the top of uint32 and leaves every other edge below 2**31:
    one more minimum then gives the second magnitude, and the sign bit
    marks the edges at the minimum. The chosen magnitude, with the parity
    as its sign bit, is scaled by one float32 product, which has the bits
    of (scale * sign) * magnitude: IEEE products commute and round the
    same for either sign.
    """
    mag = np.bitwise_and(v2c.view(np.uint32), _MAGNITUDE_BITS)
    min1 = np.minimum.reduce(mag, axis=0)
    mag -= min1 + np.uint32(1)
    delta = np.minimum.reduce(mag, axis=0) + np.uint32(1)  # the second magnitude less min1
    at_min = np.right_shift(mag.view(np.int32), 31, out=mag.view(np.int32))  # -1 or 0
    np.copyto(delta, 0, where=np.add.reduce(at_min, axis=0, dtype=np.int32) < -1)  # tied
    ext = np.bitwise_and(mag, delta, out=mag)
    ext += min1
    neg = v2c < 0
    np.logical_xor(neg, np.logical_xor.reduce(neg, axis=0), out=neg)
    ext |= np.left_shift(neg.view(np.uint8), 31, dtype=np.uint32)
    return np.multiply(ext.view(np.float32), np.float32(scale), out=out)


@functools.cache
def default_code() -> LdpcCode:
    """Shared code instance."""
    return LdpcCode()
