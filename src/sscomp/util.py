"""Shared numeric helpers."""

from __future__ import annotations

import numbers

import numpy as np


def check_integer(value, name: str, low: int) -> None:
    """The one owner of the integer-argument rule: ``value`` must be an
    integer (any ``numbers.Integral``, numpy's included, but not a ``bool``)
    of at least ``low``; ``name`` names the argument in the error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def round_half_away_from_zero(value):
    """Round to the nearest integer with halves going away from zero.

    Python's ``round`` and numpy's ``np.round`` round halves to even, which
    varies the result for .5 inputs; this rule is fixed so identical inputs
    give identical integer budgets on every platform. Scalars come back as
    ``int``, arrays as ``int64``.
    """
    arr = np.asarray(value, dtype=np.float64)
    rounded = np.sign(arr) * np.floor(np.abs(arr) + 0.5)
    if arr.ndim == 0:
        return int(rounded)
    return rounded.astype(np.int64)
