import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzstab import DirectionList
from ghzstab.bitstrings import (
    LABEL_CHUNK,
    bit_labels,
    bit_labels_json,
    even_indices,
    parity_of,
)
from ghzstab.linalg import MAX_PARTIES
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


@st.composite
def _label_values(draw):
    n = draw(st.integers(1, MAX_PARTIES))
    top = (1 << n) - 1
    values = draw(
        st.lists(st.integers(0, top) | st.sampled_from([0, top]), max_size=40)
    )
    return np.array(values, dtype=np.int64), n


@settings(max_examples=200, deadline=None)
@given(_label_values())
def test_bit_labels_json_is_json_dumps_of_the_labels(case):
    values, n = case
    assert "".join(bit_labels_json(values, n)) == json.dumps(bit_labels(values, n))


@pytest.mark.parametrize("n", [1, 17, 24, 32])
@pytest.mark.parametrize(
    "k", [0, 1, LABEL_CHUNK - 1, LABEL_CHUNK, LABEL_CHUNK + 1, 2 * LABEL_CHUNK + 3]
)
def test_bit_labels_json_pieces_join_across_chunks(rng, k, n):
    # the first piece opens the list, the last closes it, and the separators
    # between pieces fall inside them
    values = np.sort(rng.integers(0, 1 << n, size=k))
    pieces = list(bit_labels_json(values, n))
    assert len(pieces) == max(1, -(-k // LABEL_CHUNK))
    assert "".join(pieces) == json.dumps(bit_labels(values, n))


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
