"""Parking functions as a compact code for fission scenarios.

A parking function of length m is an integer sequence whose sorted version
satisfies p'_i <= i.  Listing the bases of a fission scenario on (1..n)
always yields a parking function of length n-1, and the mapping is a
bijection.  Decoding runs the shared kernel of :mod:`dcjsort.fissions` in
O(n log n) time: bases determine partners (largest base values claim the
smallest free partners above them, occurrences left to right), partners
hang each step below the step that introduced its base, and erasing that
tree's edges in step order reads off every top, the end of the
last-partner chain (`chain_top`) of the remaining steps.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidParkingFunctionError, TextFormatError
from .fissions import FissionScenario, decode_bases, is_parking_function, require_valid

ParkingFunction = tuple[int, ...]


def scenario_to_parking(s: FissionScenario) -> ParkingFunction:
    """Encode a valid scenario as its base sequence."""
    require_valid(s)
    return s.bases


def parking_to_scenario(values: Sequence[int]) -> FissionScenario:
    """Decode a parking function back into the unique scenario with those bases."""
    pf = tuple(values)
    if not is_parking_function(pf):
        raise InvalidParkingFunctionError(
            f"{' '.join(map(str, pf)) or '(empty)'} is not a parking function"
        )
    return decode_bases(pf)


def count_parking(m: int) -> int:
    """Number of parking functions of length m, exactly."""
    if m < 0:
        raise ValueError(f"length must be non-negative, got {m}")
    if m == 0:
        return 1
    return (m + 1) ** (m - 1)


def format_parking(pf: Sequence[int]) -> str:
    return " ".join(map(str, pf))


def parse_parking(text: str) -> ParkingFunction:
    """Whitespace-separated integers; empty text is the empty sequence."""
    body = " ".join(ln.split("#", 1)[0] for ln in text.splitlines())
    try:
        return tuple(int(tok) for tok in body.split())
    except ValueError:
        raise TextFormatError(f"parking function must be integers, got {body.strip()!r}") from None
