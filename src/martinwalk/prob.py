"""Dual-mode probability scalars.

Probabilities are either exact rationals (``fractions.Fraction``, used on all
enumeration and verification paths) or binary floats (used for Monte Carlo
and float inputs).  ``Fraction`` keeps values in lowest terms
and never degrades to float when combined with another exact value, so no
wrapper class is needed; a value's mode is simply its type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ConfigError

Prob = Union[Fraction, int, float]

#: absolute tolerance used whenever at least one operand is a float
FLOAT_TOL = 1e-12


def is_exact(value: Prob) -> bool:
    return isinstance(value, (Fraction, int))


def probs_equal(a: Prob, b: Prob) -> bool:
    """The one equality rule: exact equality for two exact values,
    |a-b| <= FLOAT_TOL otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_TOL


def residual(a: Prob, b: Prob) -> Prob:
    """a - b, exact when both operands are exact."""
    if is_exact(a) and is_exact(b):
        return Fraction(a) - Fraction(b)
    return float(a) - float(b)


def parse_prob(raw, mode: str = "exact") -> Prob:
    """Parse a config-level probability.

    Exact mode accepts integers and "p/q" strings; floats require
    ``mode="float"`` so that exactness is never lost by accident.
    """
    if isinstance(raw, bool):
        raise ConfigError(f"not a probability: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed rational {raw!r}") from exc
    if isinstance(raw, float):
        if mode != "float":
            raise ConfigError(
                f"float value {raw!r} requires mode=\"float\"; "
                "use a \"p/q\" string in exact mode"
            )
        return raw
    raise ConfigError(f"not a probability: {raw!r}")


def format_prob(value: Prob) -> str:
    """Render a probability for a report, "p/q" when exact."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return repr(float(value))


def validate_simplex(coords: Iterable[Prob]) -> tuple[Prob, ...]:
    """Check that coords are non-negative and sum to one, return them as a tuple."""
    pt = tuple(coords)
    if not pt:
        raise ValueError("empty simplex point")
    if any(c < 0 for c in pt):
        raise ValueError(f"negative coordinate in simplex point {pt}")
    total = sum(pt)
    if not probs_equal(total, 1):
        raise ValueError(f"simplex coordinates sum to {total}, expected 1")
    return pt
