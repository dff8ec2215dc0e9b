"""JSON (de)serialization for complex scalars, series, symbols and kernels.

Complex numbers travel as [re, im] pairs; series literals as coefficient
arrays of such pairs, the polynomial they list; kernels as trees tagged by
``kind``. Every map read here, named or listed, is a ``series.Rational``.
"""

from __future__ import annotations

from . import families
from .dbr import ExtensionWitness, dbr_kernel
from .families import complex_from_json, complex_list_from_json, integer_from_json, real_from_json
from .kernels import (
    Congruence,
    Constant,
    DruryArveson,
    Kernel,
    NormalizedDefect,
    Pullback,
    Sum,
    Szego,
    WeightedHardy,
)
from .series import DEFAULT_ORDER, Rational


def complex_to_json(c: complex):
    c = complex(c)
    return [c.real, c.imag]


def series_from_json(obj: dict, order: int = DEFAULT_ORDER) -> Rational:
    """The polynomial a series literal lists, as a Rational whose coefficient
    view has ``order``; its optional ``center`` may only be 0."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("series literals need a 'coeffs' array of [re, im] pairs")
    if complex_from_json(obj.get("center", 0.0)) != 0:
        raise ValueError("series literals are centered at 0")
    return Rational(complex_list_from_json(obj["coeffs"]), [1.0], order)


def symbol_from_json(spec: dict, order: int = DEFAULT_ORDER) -> Rational:
    """A symbol from either a named family spec or an explicit series; ``order``
    is its coefficient view's."""
    if not isinstance(spec, dict):
        raise ValueError("symbol spec must be a JSON object")
    if "family" in spec:
        return families.family_symbol(spec["family"], families.params_from_json(spec), order)
    if "series" in spec:
        return series_from_json(spec["series"], order)
    raise ValueError("symbol spec needs either 'family' or 'series'")


def witness_from_json(spec, b_spec: dict) -> ExtensionWitness | None:
    """Witness from a spec: None, 'shipped' (family closed form), or a series."""
    if spec is None:
        return None
    if spec == "shipped":
        if "family" not in b_spec:
            raise ValueError("'shipped' witnesses exist only for named families")
        q = families.family_witness(b_spec["family"], families.params_from_json(b_spec))
        if q is None:
            raise ValueError(
                f"family {b_spec['family']!r} with these parameters has no shipped witness"
            )
        return ExtensionWitness(q)
    if isinstance(spec, dict) and "series" in spec:
        return ExtensionWitness(series_from_json(spec["series"]))
    raise ValueError("witness spec must be null, 'shipped', or {'series': ...}")


def kernel_from_json(obj: dict) -> Kernel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("kernel descriptors need a 'kind' tag")
    kind = obj["kind"]
    if kind == "szego":
        return Szego()
    if kind == "drury_arveson":
        return DruryArveson(integer_from_json(obj["dim"]))
    if kind == "weighted_hardy":
        weights = obj["weights"] if isinstance(obj["weights"], list) else [obj["weights"]]
        return WeightedHardy([real_from_json(w) for w in weights])
    if kind == "dbr":
        return dbr_kernel(symbol_from_json(obj["b"]))
    if kind == "constant":
        return Constant(obj["value"])
    if kind == "sum":
        return Sum(kernel_from_json(obj["left"]), kernel_from_json(obj["right"]))
    if kind == "pullback":
        return Pullback(kernel_from_json(obj["inner"]), symbol_from_json(obj["map"]))
    if kind == "congruence":
        return Congruence(kernel_from_json(obj["inner"]), symbol_from_json(obj["factor"]))
    if kind == "normalized_defect":
        inner = kernel_from_json(obj["inner"])
        read_base = complex_list_from_json if inner.dim else complex_from_json
        return NormalizedDefect(inner, read_base(obj["base"]))
    raise ValueError(f"unknown kernel kind {kind!r}")
