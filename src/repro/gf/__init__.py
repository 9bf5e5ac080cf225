"""Galois-field substrate: GF(2^w) scalar, vector and region arithmetic.

Public surface:

- :class:`~repro.gf.field.GF` — interned field objects for w in {4, 8, 16, 32}.
- :class:`~repro.gf.region.RegionOps` / :class:`~repro.gf.region.OpCounter`
  — the ``mult_XORs`` primitive and its exact operation accounting.
- :mod:`~repro.gf.polynomials` — GF(2) polynomial tools and verified
  default defining polynomials.
"""

from __future__ import annotations

from .field import GF
from .polynomials import DEFAULT_POLYNOMIALS, default_polynomial, is_irreducible, is_primitive
from .region import OpCounter, RegionOps
from .split import mul_region_split, split_tables
from .tables import build_logexp, build_mul8, dtype_for

__all__ = [
    "GF",
    "DEFAULT_POLYNOMIALS",
    "default_polynomial",
    "is_irreducible",
    "is_primitive",
    "OpCounter",
    "RegionOps",
    "mul_region_split",
    "split_tables",
    "build_logexp",
    "build_mul8",
    "dtype_for",
]
