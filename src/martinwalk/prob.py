"""Probability scalars: exact rationals, with floats only at the edges.

Every law and every check is exact: ``fractions.Fraction`` (or ``int``),
kept in lowest terms and never degraded to float by another exact value.
Floats appear only at the edges: float configs (``parse_prob`` with
``mode="float"``, checked by ``validate_simplex``), the samplers and their
Monte Carlo results, and float boundary rows, which leave through
``format_prob``.  A value's mode is simply its type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import ConfigError

Prob = Union[Fraction, int, float]

#: how far the coordinates of a float simplex point may sum from one
FLOAT_TOL = 1e-12


def is_exact(value: Prob) -> bool:
    return isinstance(value, (Fraction, int))


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
    """Check that coords are non-negative and sum to one, exactly for exact
    coords and within ``FLOAT_TOL`` once any is a float; return them as a tuple."""
    pt = tuple(coords)
    if not pt:
        raise ValueError("empty simplex point")
    if any(c < 0 for c in pt):
        raise ValueError(f"negative coordinate in simplex point {pt}")
    total = sum(pt)
    if (total != 1) if is_exact(total) else (abs(total - 1) > FLOAT_TOL):
        raise ValueError(f"simplex coordinates sum to {total}, expected 1")
    return pt
