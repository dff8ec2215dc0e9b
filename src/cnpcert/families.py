"""Named symbol families shipped with the gallery and CLI: the one registry.

Each family is a rational self-map of the disk given by one or two
constants, built as a ``series.Rational`` and so evaluated exactly:

  affine           (z + A) / B, inside the unit ball iff |A| + 1 <= |B|.
  moebius_over     A z / (z + B); |A| >= 1 keeps the inverse holomorphic.
  scaled_identity  z / R.
  power            z^k; invertible only for k = 1.
  blaschke         finite Blaschke product with the given zeros.

The truncation order reaches only maps of degree >= 2, through their
coefficient view.

``FAMILIES`` declares each family once: how its parameters are read from
JSON, and its map. Everything else looks it up.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .series import DEFAULT_ORDER, Rational


def complex_from_json(v) -> complex:
    pair = [v, 0.0] if isinstance(v, (int, float)) else v
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            return complex(float(pair[0]), float(pair[1]))
        except (TypeError, OverflowError) as exc:   # OverflowError: an integer past the float range
            raise ValueError(f"expected a number or [re, im] pair of floats, got {v!r}") from exc
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def complex_list_from_json(v) -> list:
    """A JSON array of complex_from_json values; anything else is a ValueError."""
    if not isinstance(v, list):
        raise ValueError(f"expected an array of numbers or [re, im] pairs, got {v!r}")
    return [complex_from_json(c) for c in v]


def real_from_json(v) -> float:
    """A JSON number; a boolean, string, array or object is a ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:   # an integer past the float range
        raise ValueError(f"expected a real number in the float range, got {v!r}") from None


def integer_from_json(v) -> int:
    """An integral JSON number (2 or 2.0); anything else is a ValueError
    rather than silently truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not real_from_json(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _power(k: int):
    if k < 1:
        raise ValueError("power family requires exponent k >= 1")
    return [0.0] * k + [1.0], [1.0]


def _blaschke(zeros):
    """prod_k (z - z_k) / (1 - conj(z_k) z); every zero strictly inside the disk."""
    num = den = np.ones(1, dtype=complex)
    for z0 in map(complex, zeros):
        if abs(z0) >= 1.0:
            raise ValueError("Blaschke zeros must lie strictly inside the unit disk")
        num, den = np.convolve(num, [-z0, 1.0]), np.convolve(den, [1.0, -np.conj(z0)])
    return num, den


class Family(NamedTuple):
    """One named family: ``readers`` maps each parameter, in argument order, to
    its JSON reader; ``parts(*params)`` is the map's numerator and denominator."""

    readers: dict
    parts: Callable


_AB = {"A": complex_from_json, "B": complex_from_json}
FAMILIES = {
    "affine": Family(_AB, lambda A, B: ([A, 1.0], [B])),
    "moebius_over": Family(_AB, lambda A, B: ([0.0, A], [B, 1.0])),
    "scaled_identity": Family({"R": complex_from_json}, lambda R: ([0.0, 1.0], [R])),
    "power": Family({"k": integer_from_json}, _power),
    "blaschke": Family({"zeros": complex_list_from_json}, _blaschke),
}


def _family(name: str) -> Family:
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ValueError(f"unknown symbol family {name!r}")
    return family


def params_from_json(spec: dict) -> dict:
    """The parameters of the family ``spec["family"]`` read, in order, from it."""
    return {p: read(spec[p]) for p, read in _family(spec["family"]).readers.items()}


def family_symbol(name: str, params: dict, order: int = DEFAULT_ORDER) -> Rational:
    """The family's map; ``order`` truncates only its coefficient view."""
    family = _family(name)
    return Rational(*family.parts(*(params[p] for p in family.readers)), order)

