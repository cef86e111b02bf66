import numpy as np
import pytest

from ghzstab import DirectionList
from ghzstab.bitstrings import bit_labels, even_indices, parity_of
from reference import signed_angle_sum
from ghzstab.errors import SizeError


def test_party_one_is_most_significant():
    assert bit_labels(np.array([0b100]), 3) == ["100"]
    # pattern index 0b100 negates theta_1 alone, 0b001 theta_3 alone
    d = DirectionList.from_rationals([(1, 2), (1, 3), (1, 6)])
    assert signed_angle_sum(d, 0b100).pi_multiple == 0
    assert signed_angle_sum(d, 0b001).pi_multiple * 3 == 2


def test_complement_and_parity():
    assert parity_of(np.array([0b0110, 0b0111])).tolist() == [0, 1]
    # complementing all n bits flips the parity exactly when n is odd
    for n in (3, 4):
        values = np.arange(1 << n)
        flipped = parity_of(values ^ ((1 << n) - 1))
        assert np.array_equal(flipped, parity_of(values) ^ (n & 1))


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_bit_labels_match_format(rng, n):
    values = np.sort(rng.integers(0, 1 << n, size=50))
    values[0], values[-1] = 0, (1 << n) - 1
    assert bit_labels(values, n) == [format(int(v), f"0{n}b") for v in values]
    assert bit_labels(values[:1], n) == ["0" * n]
    assert bit_labels(np.zeros(0, dtype=np.int64), n) == []


def test_parity_classes_small():
    assert even_indices(2).tolist() == [0b00, 0b11]
    assert even_indices(3).tolist() == [0b000, 0b011, 0b101, 0b110]
    assert even_indices(1).tolist() == [0]


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_parity_classes_sizes_and_order(n):
    # the even class is half of all indices, ascending, and its complement
    # is the odd class
    even = even_indices(n)
    assert even.dtype == np.int64 and even.size == 1 << (n - 1)
    assert np.all(np.diff(even) > 0)
    odd = np.setdiff1d(np.arange(1 << n), even)
    assert np.all(parity_of(even) == 0) and np.all(parity_of(odd) == 1)


def test_parity_classes_range_check():
    with pytest.raises(SizeError):
        even_indices(0)
    with pytest.raises(SizeError):
        even_indices(25)
