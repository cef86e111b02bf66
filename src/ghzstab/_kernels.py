"""Numeric kernels in plain numpy: signed angle sums over sign patterns,
parity-split product sums, group character sums, and sequential-collapse
measurement rounds."""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# signed sums theta_1 + sum_{l>=2} (-1)^{bit_l(m)} theta_l over all
# m in [0, 2^{n-1}); bit of party l sits at position n - l.

def _signed_sums(vals: np.ndarray) -> np.ndarray:
    out = vals[:1].copy()
    for l in range(1, vals.size):
        nxt = np.empty(out.size * 2, dtype=vals.dtype)
        nxt[0::2] = out + vals[l]
        nxt[1::2] = out - vals[l]
        out = nxt
    return out


def signed_sums_f8(vals) -> np.ndarray:
    return _signed_sums(np.asarray(vals, dtype=np.float64))


def signed_sums_i8(vals) -> np.ndarray:
    return _signed_sums(np.asarray(vals, dtype=np.int64))


# ---------------------------------------------------------------------------
# direct enumeration of sum_j prod_l cos^{1-j_l} (-i sin)^{j_l}
# split by the parity of j, over all j in Z_2^n

def parity_product_sums(cos_t: np.ndarray, msin_t: np.ndarray):
    n = cos_t.size
    terms = np.ones(1, dtype=np.complex128)
    for l in range(n):
        nxt = np.empty(terms.size * 2, dtype=np.complex128)
        nxt[0::2] = terms * cos_t[l]
        nxt[1::2] = terms * msin_t[l]
        terms = nxt
    par = np.bitwise_count(np.arange(terms.size, dtype=np.uint64)) & 1
    even = terms[par == 0].sum()
    odd = terms[par == 1].sum()
    return even, odd


# ---------------------------------------------------------------------------
# group character sums sum_m (-1)^{m . v}; only v mod 2 matters

def character_sums(vbits: np.ndarray, n: int) -> np.ndarray:
    m = np.arange(1 << n, dtype=np.uint64)
    out = np.empty(vbits.size, dtype=np.int64)
    for k in range(vbits.size):
        par = np.bitwise_count(m & np.uint64(vbits[k])) & 1
        out[k] = (1 << n) - 2 * int(par.sum())
    return out


# ---------------------------------------------------------------------------
# sequential-collapse measurement rounds
# basis_up/basis_down: (n, 2) complex eigenvectors per party
# uniforms: (shots, n) in [0, 1); returns outcome bits (shots, n) int8
# (0 means +1, 1 means -1)

def collapse_rounds(amps, basis_up, basis_down, uniforms):
    shots, n = uniforms.shape
    out = np.zeros((shots, n), dtype=np.int8)
    for s in range(shots):
        psi = amps.copy()
        for l in range(n):
            pos = n - 1 - l
            step = 1 << pos
            psi3 = psi.reshape(-1, 2, step) if step > 1 else psi.reshape(-1, 2)
            if step > 1:
                a0 = psi3[:, 0, :]
                a1 = psi3[:, 1, :]
            else:
                a0 = psi3[:, 0]
                a1 = psi3[:, 1]
            cu = np.conj(basis_up[l, 0]) * a0 + np.conj(basis_up[l, 1]) * a1
            p_up = float(np.sum(np.abs(cu) ** 2))
            if uniforms[s, l] < p_up:
                b0, b1 = basis_up[l, 0], basis_up[l, 1]
                c = cu
            else:
                b0, b1 = basis_down[l, 0], basis_down[l, 1]
                c = np.conj(b0) * a0 + np.conj(b1) * a1
                out[s, l] = 1
            norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
            if step > 1:
                psi3[:, 0, :] = b0 * c / norm
                psi3[:, 1, :] = b1 * c / norm
            else:
                psi3[:, 0] = b0 * c / norm
                psi3[:, 1] = b1 * c / norm
    return out
