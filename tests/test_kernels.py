"""Each numpy kernel against a direct loop or its closed form."""

import numpy as np
import pytest

from ghzstab import _kernels as k


def _reference_signed_sums(vals):
    n = len(vals)
    out = np.empty(1 << (n - 1), dtype=np.asarray(vals).dtype)
    for m in range(out.size):
        acc = vals[0]
        for l in range(1, n):
            acc = acc - vals[l] if (m >> (n - 1 - l)) & 1 else acc + vals[l]
        out[m] = acc
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_signed_sums_numpy_reference(rng, n):
    vals = rng.normal(size=n)
    assert np.allclose(k.signed_sums_f8(vals), _reference_signed_sums(vals))
    ints = rng.integers(-100, 100, size=n).astype(np.int64)
    assert np.array_equal(k.signed_sums_i8(ints), _reference_signed_sums(ints))


def test_parity_product_sums_reference(rng):
    n = 5
    c = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex128)
    ms = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex128)
    even, odd = k.parity_product_sums(c, ms)
    ref_even = ref_odd = 0.0
    for j in range(1 << n):
        term = 1.0 + 0j
        for l in range(n):
            term *= ms[l] if (j >> (n - 1 - l)) & 1 else c[l]
        if bin(j).count("1") % 2 == 0:
            ref_even += term
        else:
            ref_odd += term
    assert abs(even - ref_even) <= 1e-12 * max(1.0, abs(ref_even))
    assert abs(odd - ref_odd) <= 1e-12 * max(1.0, abs(ref_odd))


@pytest.mark.parametrize("n", [1, 6, 12])
def test_character_sums_closed_form(rng, n):
    vbits = rng.integers(0, 1 << n, size=30).astype(np.int64)
    sums = k.character_sums(vbits, n)
    expected = np.where(vbits == 0, 1 << n, 0)
    assert np.array_equal(sums, expected)
