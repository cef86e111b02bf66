"""Seeded inputs for the benchmark, generated without calling the program.

The direction-list kinds follow the sampler design of ``ghzstab/sampling.py``
but are re-implemented here, so a change to the program cannot change the
inputs it is measured on:

- ``uniform``: radian thetas and phis, rejected and redrawn while any signed
  sum (of the list or of its sector transform) comes within ``UNIFORM_GAP`` of
  an even multiple of pi, so they have no vanishing pattern;
- ``resonant``: rationals ``p*pi/q`` with one planted vanishing pattern;
- ``degenerate``: rationals with one decoupled party (theta 0 or pi) and the
  zero pattern forced to vanish, so at least two patterns vanish.

A resonant list is written either exactly (``pi_num``/``pi_den``) or in
radians (``resonant-rad``), which sends it down the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
UNIFORM_GAP = 1e-6
PRODUCT_LIMIT = 0.9  # a product state's <A> or <Z^N> is at most this
KINDS = ("uniform", "resonant", "resonant-rad", "degenerate")


@dataclass(frozen=True)
class Directions:
    """One generated direction list and what the benchmark knows about it.

    ``nums``/``q`` are set for the rational kinds (theta_l = nums[l]*pi/q);
    ``planted`` is the planted pattern of a resonant list.
    """

    kind: str
    thetas: tuple[float, ...]
    phis: tuple[float, ...]
    nums: tuple[int, ...] | None = None
    q: int = 0
    planted: str | None = None

    @property
    def n(self) -> int:
        return len(self.thetas)

    @property
    def exact(self) -> bool:
        return self.kind in ("resonant", "degenerate")

    def angle_file(self) -> dict:
        angles = []
        for l in range(self.n):
            if self.exact:
                theta = {"pi_num": self.nums[l], "pi_den": self.q}
            else:
                theta = {"rad": self.thetas[l]}
            angles.append({"theta": theta, "phi": {"rad": self.phis[l]}})
        return {"n": self.n, "angles": angles, "tol": TOL}


def _phis(n: int, rng) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=n))


def float_signed_sums(thetas) -> np.ndarray:
    """theta_1 + sum_{l>=2} (-1)^{m_l} theta_l over m in [0, 2^{n-1}), party l
    at bit n - l, as the program indexes patterns."""
    out = np.asarray(thetas[:1], dtype=np.float64)
    for t in thetas[1:]:
        out = np.stack([out + t, out - t], axis=1).reshape(-1)
    return out


def uniform(n: int, rng) -> Directions:
    while True:
        thetas = [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=n)]
        phis = _phis(n, rng)
        gaps = [
            np.min(np.abs(np.sin(float_signed_sums(ts) / 2.0)))
            for ts in (thetas, [math.pi - thetas[0]] + thetas[1:])
        ]
        if min(gaps) >= UNIFORM_GAP:
            return Directions("uniform", tuple(thetas), phis)


def _rational(kind: str, nums, q: int, phis, planted=None) -> Directions:
    thetas = tuple(p * math.pi / q for p in nums)
    return Directions(kind, thetas, phis, tuple(nums), q, planted)


def resonant(n: int, rng, q: int, radians: bool = False) -> Directions:
    """Rationals over q with the last numerator solved so that one random
    pattern (m_1 = 0) has signed sum an even multiple of pi."""
    bits = [0] + [int(b) for b in rng.integers(0, 2, size=n - 1)]
    nums = [int(v) for v in rng.integers(0, 2 * q, size=n)]
    partial = sum((-1) ** bits[l] * nums[l] for l in range(n - 1))
    nums[n - 1] = (-((-1) ** bits[n - 1]) * partial) % (2 * q)
    kind = "resonant-rad" if radians else "resonant"
    return _rational(kind, nums, q, _phis(n, rng), "".join(map(str, bits)))


def degenerate(n: int, rng, q: int) -> Directions:
    """Rationals over q with one decoupled party and the zero pattern
    vanishing, so at least two patterns vanish."""
    nums = [int(v) for v in rng.integers(0, 2 * q, size=n)]
    free = int(rng.integers(0, n - 1))
    nums[free] = 0 if rng.integers(0, 2) == 0 else q
    nums[n - 1] = (-sum(nums[:-1])) % (2 * q)
    return _rational("degenerate", nums, q, _phis(n, rng))


def directions(kind: str, n: int, rng, q: int) -> Directions:
    if kind == "uniform":
        return uniform(n, rng)
    if kind == "resonant":
        return resonant(n, rng, q)
    if kind == "resonant-rad":
        return resonant(n, rng, q, radians=True)
    if kind == "degenerate":
        return degenerate(n, rng, q)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# states and local operators, built from the paper's formulas


def even_indices(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    return idx[np.bitwise_count(idx.astype(np.uint64)) % 2 == 0]


def ghz_class_state(d: Directions, pattern: str) -> np.ndarray:
    """The GHZ-class state of a vanishing pattern m: amplitude at even-parity
    j is the product of i (-1)^{m_l} e^{i phi_l} over the set bits of j,
    divided by sqrt(2^{n-1})."""
    n = d.n
    even = even_indices(n)
    vals = np.ones(even.size, dtype=np.complex128)
    for l in range(n):
        phase = 1j * (-1) ** int(pattern[l]) * complex(
            math.cos(d.phis[l]), math.sin(d.phis[l])
        )
        vals = vals * np.where((even >> (n - 1 - l)) & 1, phase, 1.0)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[even] = vals / math.sqrt(even.size)
    return amps


def local_observable(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, s * e.conjugate()], [s * e, -c]], dtype=np.complex128)


def apply_locals(mats, amps: np.ndarray) -> np.ndarray:
    """Apply a tensor product of 2x2 matrices (party 1 most significant)."""
    n = len(mats)
    t = amps.reshape((2,) * n)
    for l, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [l])), 0, l)
    return t.reshape(-1)


@dataclass(frozen=True)
class ProductState:
    amplitudes: np.ndarray
    expect_a: float  # <A> for the direction list it was drawn against
    expect_b: float  # <Z...Z>


def product_state(d: Directions, rng) -> ProductState:
    """A random product state whose expectation of A or of Z^N is at most
    PRODUCT_LIMIT, so it is not stabilized by the pair."""
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    while True:
        g = rng.normal(size=(d.n, 2)) + 1j * rng.normal(size=(d.n, 2))
        qubits = g / np.linalg.norm(g, axis=1, keepdims=True)
        ea = eb = 1.0
        for l in range(d.n):
            v = qubits[l]
            ea *= float(np.real(np.vdot(v, local_observable(d.thetas[l], d.phis[l]) @ v)))
            eb *= float(np.real(np.vdot(v, z @ v)))
        if min(ea, eb) <= PRODUCT_LIMIT:
            break
    amps = qubits[0]
    for v in qubits[1:]:
        amps = np.kron(amps, v)
    return ProductState(amps, ea, eb)


def haar_unitaries(n: int, rng) -> list[np.ndarray]:
    mats = []
    for _ in range(n):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        qm, r = np.linalg.qr(g)
        mats.append(qm * (np.diag(r) / np.abs(np.diag(r))))
    return mats


def ghz(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return amps


def state_file(amps: np.ndarray) -> dict:
    n = int(amps.size).bit_length() - 1
    idx = np.nonzero(amps)[0]
    return {
        "n": n,
        "amplitudes": [
            {"index": int(i), "re": float(amps[i].real), "im": float(amps[i].imag)}
            for i in idx
        ],
    }


def unitaries_file(mats) -> dict:
    return {
        "n": len(mats),
        "unitaries": [
            [[[float(c.real), float(c.imag)] for c in row] for row in m] for m in mats
        ],
    }
