"""Results of cutoff-limited homological searches.

A search that walks degree by degree (dominant dimension, first
non-vanishing self-extension, ...) either resolves to an exact value or
exhausts its cutoff.  ``BoundedValue`` keeps the two outcomes apart so a
truncated search can never masquerade as a finite answer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoundedValue:
    kind: str  # "finite" | "at_least"
    value: int  # the exact value, or the search cutoff that was exhausted

    def __post_init__(self):
        if self.kind not in ("finite", "at_least"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("negative value")

    @staticmethod
    def finite(v: int) -> "BoundedValue":
        return BoundedValue("finite", v)

    @staticmethod
    def at_least(bound: int) -> "BoundedValue":
        return BoundedValue("at_least", bound)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __repr__(self):
        return f"{self.kind}({self.value})"

    def to_json(self):
        if self.is_finite:
            return {"kind": "finite", "value": self.value}
        return {"kind": "at_least", "bound": self.value}
