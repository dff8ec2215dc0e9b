"""Named symbol families shipped with the gallery and CLI: the one registry.

Each family is a simple rational self-map of the disk given by one or two
constants, together with (where the construction provides one) the
closed-form witness series for the criterion's extension check:

  affine           (z + A) / B, inside the unit ball iff |A| + 1 <= |B|;
                   inverse B z - A, witness the constant 1 / B.
  moebius_over     A z / (z + B), |A| >= 1 keeps the inverse holomorphic;
                   inverse B z / (A - z), witness (A - z) / B.
  scaled_identity  z / R; inverse R z, witness the constant 1 / R.
  power            z^k; invertible only for k = 1 (witness 1).
  blaschke         finite Blaschke product with the given zeros; only the
                   degree-1 case has a witness, 1 + conj(z0) z, and there the
                   modulus inequality holds with equality.

``FAMILIES`` declares each family once: how its parameters are read from
JSON, its truncated series and its witness. Everything else looks it up.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .pickinterp import blaschke_product
from .series import PowerSeries

DEFAULT_ORDER = 64


def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        try:
            return complex(float(v[0]), float(v[1]))
        except TypeError as exc:
            raise ValueError(f"expected a [re, im] pair of numbers, got {v!r}") from exc
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
    return float(v)


def integer_from_json(v) -> int:
    """An integral JSON number (2 or 2.0); anything else is a ValueError
    rather than silently truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not float(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def affine_symbol(A, B, order: int = DEFAULT_ORDER) -> PowerSeries:
    A, B = complex(A), complex(B)
    if B == 0:
        raise ValueError("affine family requires B != 0")
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = A / B
    if order >= 1:
        coeffs[1] = 1.0 / B
    return PowerSeries(coeffs, 0j)


def moebius_over_symbol(A, B, order: int = DEFAULT_ORDER) -> PowerSeries:
    A, B = complex(A), complex(B)
    if B == 0:
        raise ValueError("moebius_over family requires B != 0")
    coeffs = np.zeros(order + 1, dtype=complex)
    if order >= 1:
        n = np.arange(1, order + 1)
        coeffs[1:] = -A * (-1.0 / B) ** n
    return PowerSeries(coeffs, 0j)


def scaled_identity_symbol(R, order: int = DEFAULT_ORDER) -> PowerSeries:
    R = complex(R)
    if R == 0:
        raise ValueError("scaled_identity family requires R != 0")
    coeffs = np.zeros(order + 1, dtype=complex)
    if order >= 1:
        coeffs[1] = 1.0 / R
    return PowerSeries(coeffs, 0j)


def power_symbol(k: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    k = int(k)
    if k < 1:
        raise ValueError("power family requires exponent k >= 1")
    coeffs = np.zeros(max(order, k) + 1, dtype=complex)
    coeffs[k] = 1.0
    return PowerSeries(coeffs, 0j)


blaschke_symbol = blaschke_product


def _blaschke_witness(zeros) -> PowerSeries | None:
    zeros = [complex(z) for z in zeros]
    if len(zeros) == 1:
        return PowerSeries(np.array([1.0, np.conj(zeros[0])]), 0j)
    return None


class Family(NamedTuple):
    """One named family. ``readers`` maps each parameter, in argument order,
    to its JSON reader; ``series(*params, order)`` is the truncated symbol and
    ``witness(*params)`` the closed-form witness, or None where there is none."""

    readers: dict
    series: Callable
    witness: Callable


_AB = {"A": complex_from_json, "B": complex_from_json}
FAMILIES = {
    "affine": Family(_AB, affine_symbol, lambda A, B: PowerSeries.constant(1.0 / complex(B))),
    "moebius_over": Family(
        _AB, moebius_over_symbol,
        lambda A, B: PowerSeries(np.array([complex(A) / complex(B), -1.0 / complex(B)]), 0j),
    ),
    "scaled_identity": Family(
        {"R": complex_from_json}, scaled_identity_symbol,
        lambda R: PowerSeries.constant(1.0 / complex(R)),
    ),
    "power": Family(
        {"k": integer_from_json}, power_symbol,
        lambda k: PowerSeries.constant(1.0) if int(k) == 1 else None,
    ),
    "blaschke": Family(
        {"zeros": complex_list_from_json}, blaschke_symbol, _blaschke_witness
    ),
}


def _family(name: str) -> Family:
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ValueError(f"unknown symbol family {name!r}")
    return family


def params_from_json(spec: dict) -> dict:
    """The parameters of the family ``spec["family"]`` read, in order, from it."""
    return {p: read(spec[p]) for p, read in _family(spec["family"]).readers.items()}


def family_symbol(name: str, params: dict, order: int = DEFAULT_ORDER) -> PowerSeries:
    family = _family(name)
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return family.series(*(params[p] for p in family.readers), order)


def family_witness(name: str, params: dict) -> PowerSeries | None:
    """Closed-form witness series for the family, or None when there is none."""
    family = _family(name)
    return family.witness(*(params[p] for p in family.readers))
