"""Measurement angles, exact rational multiples of pi or floating radians.

Exact angles are kept as Fractions (in units of pi) so that degeneracy
conditions, which are statements about integer multiples of pi, can be
decided without any floating-point tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ShapeError, shown


@dataclass(frozen=True)
class Angle:
    """An angle stored either as (num/den)*pi exactly or as raw radians."""

    pi_multiple: Fraction | None
    raw_radians: float = 0.0

    @classmethod
    def exact(cls, num: int, den: int = 1) -> "Angle":
        """Angle equal to (num/den)*pi; stored in lowest terms, den > 0."""
        return cls(pi_multiple=Fraction(num, den))

    @classmethod
    def radians(cls, value: float) -> "Angle":
        rad = float(value)
        if not math.isfinite(rad):
            raise DomainError(f"angle must be finite, got {rad!r} rad")
        return cls(pi_multiple=None, raw_radians=rad)

    @property
    def is_exact(self) -> bool:
        return self.pi_multiple is not None

    def to_radians(self) -> float:
        if self.pi_multiple is not None:
            return float(self.pi_multiple) * math.pi
        return self.raw_radians

    def __add__(self, other: "Angle") -> "Angle":
        if self.pi_multiple is not None and other.pi_multiple is not None:
            return Angle(pi_multiple=self.pi_multiple + other.pi_multiple)
        return Angle.radians(self.to_radians() + other.to_radians())

    def __sub__(self, other: "Angle") -> "Angle":
        return self + (-other)

    def __neg__(self) -> "Angle":
        if self.pi_multiple is not None:
            return Angle(pi_multiple=-self.pi_multiple)
        return Angle.radians(-self.raw_radians)

    def __repr__(self) -> str:
        if self.pi_multiple is not None:
            return f"Angle({self.pi_multiple}*pi)"
        return f"Angle({self.raw_radians} rad)"


PI = Angle.exact(1)
ZERO_ANGLE = Angle.exact(0)


@dataclass(frozen=True)
class DirectionList:
    """Per-party measurement directions (theta_l, phi_l), party 1 first."""

    n_parties: int
    thetas: tuple[Angle, ...]
    phis: tuple[Angle, ...]

    def __post_init__(self):
        if self.n_parties < 1:
            raise DomainError(f"n_parties must be >= 1, got {self.n_parties}")
        if len(self.thetas) != self.n_parties or len(self.phis) != self.n_parties:
            raise ShapeError(
                f"expected {self.n_parties} thetas and phis, "
                f"got {len(self.thetas)} and {len(self.phis)}"
            )

    @classmethod
    def of(cls, thetas, phis=None) -> "DirectionList":
        """Build from sequences of Angle; phis default to exact zero."""
        thetas = tuple(thetas)
        if phis is None:
            phis = tuple(ZERO_ANGLE for _ in thetas)
        return cls(n_parties=len(thetas), thetas=thetas, phis=tuple(phis))

    @property
    def all_exact(self) -> bool:
        """True when every theta is an exact rational multiple of pi."""
        return all(t.is_exact for t in self.thetas)

    def in_mode(self, mode: str | None) -> "DirectionList":
        """The list as analysed in mode "exact" (every theta must be exact),
        "approx" (thetas become radians, decided with a tolerance) or None
        (exact exactly when every theta is)."""
        if mode not in (None, "exact", "approx"):
            raise DomainError(f"mode must be exact or approx, got {shown(mode)}")
        if mode == "exact" and not self.all_exact:
            raise DomainError("exact mode requires all thetas rational multiples of pi")
        if mode == "approx" and self.all_exact:
            return DirectionList.of(
                [Angle.radians(t.to_radians()) for t in self.thetas], self.phis
            )
        return self

    def theta_radians(self):
        return [t.to_radians() for t in self.thetas]

    def phi_radians(self):
        return [p.to_radians() for p in self.phis]
