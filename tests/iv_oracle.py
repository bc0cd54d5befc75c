"""mpmath's interval arithmetic as a test oracle: the package computes
its enclosures on Python integers, and these helpers turn mpmath's
independent enclosures into the same SignedInterval to compare against."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

from mpmath import iv
from mpmath.libmp import to_rational

from sphertet.cyclotomic import SignedInterval


@contextmanager
def iv_precision(bits: int) -> Iterator[None]:
    """Run a block at mpmath interval precision bits: the one place that
    sets and restores that global state."""
    old, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = old


def _iv_to_signed_interval(x, precision: int) -> SignedInterval:
    return SignedInterval(*(Fraction(*map(int, to_rational(v))) for v in x._mpi_), precision)
