"""Exact rational row-echelon arithmetic for small dense systems.

Everything here works over Fraction.  Rows are dicts {column: value} with
zero entries absent; an Echelon object keeps reduced rows indexed by pivot
column so that membership tests and incremental rank updates stay cheap
inside 2^E subgraph sweeps.
"""

from __future__ import annotations

from fractions import Fraction

Vec = dict[int, Fraction]


def add_entry(d: dict, key, value) -> None:
    """d[key] += value in place, dropping the key when the sum is zero: the
    one accumulation of sparse chains and polynomial terms."""
    new = d.get(key, 0) + value
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def vec_sub_scaled(v: Vec, w: Vec, factor: Fraction) -> Vec:
    """v - factor*w, dropping zeros."""
    out = dict(v)
    for col, val in w.items():
        new = out.get(col, Fraction(0)) - factor * val
        if new:
            out[col] = new
        else:
            out.pop(col, None)
    return out


class Echelon:
    """A growing reduced row-echelon basis.

    insert() returns True when the vector enlarged the span, False when it
    was already a member.  contains() is insert() without mutation.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, Vec] = {}  # pivot column -> row with that pivot = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: Vec) -> Vec:
        v = dict(v)
        while v:
            col = min(v)
            row = self.pivots.get(col)
            if row is None:
                return v
            v = vec_sub_scaled(v, row, v[col])
        return v

    def contains(self, v: Vec) -> bool:
        return not self._reduce(v)

    def insert(self, v: Vec) -> bool:
        v = self._reduce(v)
        if not v:
            return False
        col = min(v)
        inv = Fraction(1) / v[col]
        v = {c: val * inv for c, val in v.items()}
        # back-substitute into existing rows so the basis stays reduced
        for pcol, row in list(self.pivots.items()):
            if col in row:
                self.pivots[pcol] = vec_sub_scaled(row, v, row[col])
        self.pivots[col] = v
        return True

    def copy(self) -> "Echelon":
        dup = Echelon()
        dup.pivots = {c: dict(r) for c, r in self.pivots.items()}
        return dup

