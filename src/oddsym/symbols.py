"""Symbol tables and charts for Grassmann-graded polynomial algebra.

A table fixes, once and for all, the even symbols (coordinates plus any
formal constants), the anticommuting coordinate symbols, the frame odds
used to encode differential forms, and the auxiliary odd constants.  The
global odd order (coordinate odds, then frame odds, then aux odds) is the
canonical monomial order used everywhere else.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from .polys import Ring


# The even symbol a flow generator may depend on as its time.
TIME_SYMBOL = "t"


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1
    MIXED = 2


class SymbolError(ValueError):
    pass


# The longest repr of an input value that an error message quotes in full.
_QUOTED = 60


def quoted(value):
    """repr of an input value, cut to ``_QUOTED`` characters."""
    text = repr(value)
    return text if len(text) <= _QUOTED else text[:_QUOTED - 3] + "..."


class SymbolTable:
    """Immutable registry of even and odd symbol names.

    even_symbols   ordinary commuting symbols; they generate the rational
                   coefficient field; ``ring`` holds their monomials
    coordinate_odds  the theta symbols graded by the theta-degree
    frame_odds     the xi symbols a differential form is written in
    aux_odds       odd constants adjoined to the ground ring
    """

    __slots__ = ("even_symbols", "coordinate_odds", "frame_odds", "aux_odds",
                 "ring", "_even_index", "_odd_index", "odd_names",
                 "int_scalars", "key_merges")

    def __init__(self, even_symbols, coordinate_odds=(), frame_odds=(),
                 aux_odds=()):
        even_symbols = tuple(even_symbols)
        coordinate_odds = tuple(coordinate_odds)
        frame_odds = tuple(frame_odds)
        aux_odds = tuple(aux_odds)
        names = even_symbols + coordinate_odds + frame_odds + aux_odds
        if len(set(names)) != len(names):
            raise SymbolError("duplicate symbol names in table")
        for name in names:
            if not name or not name[0].isalpha() or not name.isalnum():
                raise SymbolError(f"bad symbol name {quoted(name)}")
        object.__setattr__(self, "even_symbols", even_symbols)
        object.__setattr__(self, "coordinate_odds", coordinate_odds)
        object.__setattr__(self, "frame_odds", frame_odds)
        object.__setattr__(self, "aux_odds", aux_odds)
        object.__setattr__(self, "ring", Ring(len(even_symbols)))
        object.__setattr__(self, "_even_index",
                           {n: i for i, n in enumerate(even_symbols)})
        odd_names = coordinate_odds + frame_odds + aux_odds
        object.__setattr__(self, "odd_names", odd_names)
        object.__setattr__(self, "_odd_index",
                           {n: i for i, n in enumerate(odd_names)})
        # Scalar.from_int's cache of small constants and the superexpr
        # kernel's merges of two odd-index keys, freed with the table.
        object.__setattr__(self, "int_scalars", {})
        object.__setattr__(self, "key_merges", {})

    def __setattr__(self, *a):
        raise AttributeError("SymbolTable is immutable")

    # -- lookups ----------------------------------------------------------

    def is_even(self, name: str) -> bool:
        return name in self._even_index

    def is_odd(self, name: str) -> bool:
        return name in self._odd_index

    def even_index(self, name: str) -> int:
        try:
            return self._even_index[name]
        except KeyError:
            raise SymbolError(f"unknown even symbol {quoted(name)}") from None

    def odd_index(self, name: str) -> int:
        try:
            return self._odd_index[name]
        except KeyError:
            raise SymbolError(f"unknown odd symbol {quoted(name)}") from None

    def odd_name(self, index: int) -> str:
        return self.odd_names[index]

    @property
    def n_theta(self) -> int:
        return len(self.coordinate_odds)

    @property
    def odd_weight(self) -> int:
        """The largest odd weight of a monomial: a theta or frame odd
        weighs 1, an aux odd 2.  It bounds the nilpotent series."""
        return len(self.coordinate_odds) + len(self.frame_odds) + \
            2 * len(self.aux_odds)

    # An odd-index key is strictly increasing and the odd order is theta |
    # frame | aux, so each kind of odd symbol is one slice of the key.

    def is_aux_index(self, index: int) -> bool:
        return index >= len(self.coordinate_odds) + len(self.frame_odds)

    def theta_degree(self, key) -> int:
        """How many coordinate odds the key holds."""
        return bisect.bisect_left(key, len(self.coordinate_odds))

    def frame_degree(self, key) -> int:
        """How many frame odds the key holds."""
        nt = len(self.coordinate_odds)
        return bisect.bisect_left(key, nt + len(self.frame_odds)) - \
            bisect.bisect_left(key, nt)

    def __repr__(self):
        return (f"SymbolTable(even={self.even_symbols}, "
                f"theta={self.coordinate_odds}, xi={self.frame_odds}, "
                f"aux={self.aux_odds})")


@dataclass(frozen=True)
class Chart:
    """A slice of a symbol table pairing n even coordinates with n odds.

    The k-th even name and the k-th odd name form a conjugate pair.  Even
    symbols of the table outside ``xs`` behave as constants of the ground
    field (formal time, generic coefficients, ...).
    """

    table: SymbolTable
    xs: tuple
    thetas: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.thetas):
            raise SymbolError("chart needs equally many x and theta symbols")
        for name in self.xs:
            if not self.table.is_even(name):
                raise SymbolError(f"{quoted(name)} is not an even symbol")
        for name in self.thetas:
            if self.table.odd_index(name) >= self.table.n_theta:
                raise SymbolError(f"{quoted(name)} is not a coordinate odd")
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "thetas", tuple(self.thetas))

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def coordinate_names(self) -> tuple:
        return self.xs + self.thetas


def standard_table(n, aux=0, frame=False, extra_even=()):
    """Table with x1..xn, th1..thn, optional xi1..xin and b1..b_aux."""
    return SymbolTable(
        even_symbols=tuple(f"x{i}" for i in range(1, n + 1)) + tuple(extra_even),
        coordinate_odds=tuple(f"th{i}" for i in range(1, n + 1)),
        frame_odds=tuple(f"xi{i}" for i in range(1, n + 1)) if frame else (),
        aux_odds=tuple(f"b{i}" for i in range(1, aux + 1)),
    )


def standard_chart(n, aux=0, frame=False, extra_even=()):
    table = standard_table(n, aux=aux, frame=frame, extra_even=extra_even)
    return Chart(table, table.even_symbols[:n], table.coordinate_odds)
