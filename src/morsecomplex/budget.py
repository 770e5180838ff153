"""The one resource guard shared by every enumeration and search.

It lives apart from the Morse engine so that the isomorphism search and the
forest-complex oracle can run under it without importing ``morse``.  It is
the only module that reads the clock: every deadline is set by
``Budget.deadline`` and checked by ``_check_deadline``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import EnumerationBudgetError, MalformedInputError


@dataclass(frozen=True)
class Budget:
    """Resource guard for enumerations; exceeding raises, never truncates.

    ``max_facets`` caps the listings of the Morse complex that owns the
    budget: the facets ``MorseComplex.facets()`` lists and also the faces
    ``MorseComplex.faces()`` (and so ``as_complex()``) materialises.
    ``max_seconds`` bounds each enumeration and search.
    """

    max_facets: int = 1_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        # a NaN deadline compares False with every clock reading, which
        # would switch every deadline check off
        if math.isnan(self.max_seconds):
            raise MalformedInputError("max_seconds must be a number, not NaN")

    def deadline(self) -> float:
        return time.monotonic() + self.max_seconds


DEFAULT_BUDGET = Budget()


def _check_deadline(deadline: float, what: str, *args):
    """Raise once the clock has passed ``deadline``, naming the phase
    ``what % args``; the message is formatted only then."""
    if time.monotonic() > deadline:
        raise EnumerationBudgetError(f"time budget exceeded while {what % args}")
