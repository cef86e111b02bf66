import numpy as np
import pytest

from ghzstab import BitString, parity_classes
from ghzstab.bitstrings import bit_labels
from ghzstab.errors import DomainError, SizeError


def test_party_one_is_most_significant():
    b = BitString(3, 0b100)
    assert b.bit(1) == 1 and b.bit(2) == 0 and b.bit(3) == 0
    assert str(b) == "100"


def test_complement_and_parity():
    b = BitString(4, 0b0110)
    assert b.parity == 0
    assert b.complement().bits == 0b1001
    assert b.complement().complement() == b


def test_from_string_roundtrip():
    for text in ["0", "1", "0101", "111000"]:
        assert str(BitString.from_string(text)) == text
    with pytest.raises(DomainError):
        BitString.from_string("01x")


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_bit_labels_match_format(rng, n):
    values = np.sort(rng.integers(0, 1 << n, size=50))
    values[0], values[-1] = 0, (1 << n) - 1
    assert bit_labels(values, n) == [format(int(v), f"0{n}b") for v in values]
    assert bit_labels(values[:1], n) == [str(BitString(n, 0))]
    assert bit_labels(np.zeros(0, dtype=np.int64), n) == []


def test_parity_classes_small():
    pc = parity_classes(2)
    assert pc.s0.tolist() == [0b00, 0b11]
    assert pc.s1.tolist() == [0b01, 0b10]
    pc3 = parity_classes(3)
    assert pc3.s0.tolist() == [0b000, 0b011, 0b101, 0b110]
    pc1 = parity_classes(1)
    assert pc1.s0.tolist() == [0] and pc1.s1.tolist() == [1]


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_parity_classes_sizes_and_order(n):
    pc = parity_classes(n)
    assert pc.s0.size == pc.s1.size == 1 << (n - 1)
    assert np.all(np.diff(pc.s0) > 0) and np.all(np.diff(pc.s1) > 0)
    both = np.concatenate([pc.s0, pc.s1])
    assert np.array_equal(np.sort(both), np.arange(1 << n))


def test_parity_classes_range_check():
    with pytest.raises(SizeError):
        parity_classes(0)
    with pytest.raises(SizeError):
        parity_classes(25)
