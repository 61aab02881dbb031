"""Exact Laurent polynomial arithmetic.

One ring implementation:

* LaurentPoly — multivariate, integer coefficients, exponents stored as
  scaled integers (per-variable scale d means a stored exponent n denotes
  the power n/d; the default scale 1 is the ordinary integer case).
* JKPoly — the LaurentPoly ring in (t, z) with scales (4, 1): the
  t-exponent is a quarter-integer stored as 4x its value and the z-exponent
  is a nonnegative integer.  It adds the queries J_K needs and renders
  z first, in ascending (z, t) order.

Both are immutable after construction and hash/compare by value.  Public
construction, parse and from_json validate every term: a plain dict of
int-tuple keys and int values, the shape every caller in the package builds,
is checked whole at C speed (``_plain_terms``), and any other input term by
term.  The ring operations work on raw term dicts and wrap each result once,
unchecked (``_like``), since sums and products of valid terms are valid.
Sums of t-polynomials times powers of the curve binomial
B = -t^(-1/2) - t^(1/2) are built by Horner's rule (``curve_binomial_sum``),
which is how the state sum, a state's weight and the Jones specialization
build their results without ring arithmetic.
Canonical text looks like ``3*V*X^-1 + 6`` and ``-t^-9/2 + 6*z*t^-3``;
JSON is a list of ``{"coeff": c, "exps": [...]}`` objects in the same
canonical term order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import NonMonomialDenominator, ZeroPolynomial

_TERM_SPLIT = re.compile(r"\s([+-])\s")
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(-?\d+(?:/\d+)?))?$")
_INT = re.compile(r"^-?\d+$")


def _exp_str(stored: int, scale: int) -> str:
    if not stored % scale:
        return str(stored // scale)
    q = Fraction(stored, scale)
    return f"{q.numerator}/{q.denominator}"


Terms = dict[tuple[int, ...], int]


def _plain_terms(terms: dict, n: int) -> bool:
    """Whether every key of terms is a tuple of n ints and every value an
    int (bool excluded), checked at C speed, one pass per condition."""
    keys = terms.keys()
    return (
        set(map(type, keys)) <= {tuple}
        and set(map(len, keys)) <= {n}
        and set(map(type, chain.from_iterable(keys))) <= {int}
        and set(map(type, terms.values())) <= {int}
    )


def add_entry(d: dict, key, value) -> None:
    """d[key] += value in place, dropping the key when the sum is zero: the
    one accumulation of polynomial terms and sparse chains."""
    new = d.get(key, 0) + value
    if new:
        d[key] = new
    else:
        d.pop(key, None)


def _product(a: Terms, b: Terms) -> Terms:
    """The terms of the product of two polynomials given by their terms."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            add_entry(out, tuple(map(add, e1, e2)), c1 * c2)
    return out


class LaurentPoly:
    """Multivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("variables", "scales", "terms")
    # variable indices in the order their factors are rendered; None means
    # the order of `variables`
    _factor_order: tuple[int, ...] | None = None

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], int] | None = None,
        scales: Sequence[int] | None = None,
    ) -> None:
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(
            self, "scales", tuple(scales) if scales is not None else (1,) * len(self.variables)
        )
        if len(self.scales) != len(self.variables):
            raise ValueError("scales and variables must align")
        terms = terms or {}
        if type(terms) is dict and _plain_terms(terms, len(self.variables)):
            object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
            return
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(self.variables):
                raise ValueError(f"exponent vector {exps} has wrong length")
            ints = tuple(map(int, exps))
            if ints != tuple(exps) or int(coeff) != coeff:
                raise ValueError(f"term {tuple(exps)}: {coeff} has a non-integer coefficient or exponent")
            if coeff:
                clean[ints] = int(coeff)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("LaurentPoly is immutable")

    def _like(self, terms: Terms) -> "LaurentPoly":
        """A polynomial of this ring and class with the given terms, taken
        as they are: the one constructor the ring operations build their
        results with.  The terms must be clean: tuple exponent vectors of the
        ring's length, nonzero int coefficients and (in JKPoly) z-powers of
        at least 0."""
        poly = object.__new__(type(self))
        object.__setattr__(poly, "variables", self.variables)
        object.__setattr__(poly, "scales", self.scales)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], scales: Sequence[int] | None = None) -> "LaurentPoly":
        return cls(variables, {}, scales)

    @classmethod
    def const(cls, variables: Sequence[str], c: int, scales: Sequence[int] | None = None) -> "LaurentPoly":
        return cls(variables, {(0,) * len(tuple(variables)): c}, scales)

    @classmethod
    def term(
        cls,
        variables: Sequence[str],
        coeff: int,
        exps: Sequence[int],
        scales: Sequence[int] | None = None,
    ) -> "LaurentPoly":
        return cls(variables, {tuple(exps): coeff}, scales)

    @classmethod
    def var(cls, variables: Sequence[str], name: str, scales: Sequence[int] | None = None) -> "LaurentPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = (tuple(scales) if scales else (1,) * len(variables))[
            variables.index(name)
        ]
        return cls(variables, {tuple(exps): 1}, scales)

    # -- ring structure --------------------------------------------------

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.variables != other.variables or self.scales != other.scales:
            raise ValueError("polynomials live in different rings")

    def _constant(self, c: int) -> "LaurentPoly":
        return self._like({(0,) * len(self.variables): int(c)} if c else {})

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = self._constant(other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            add_entry(out, exps, coeff)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = self._constant(other)
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = self._constant(other)
        self._check_compatible(other)
        return self._like(_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        return self._like(self._power(n))

    def _power(self, n: int) -> Terms:
        """The terms of self ** n."""
        base = self._inverse().terms if n < 0 else self.terms
        result = {(0,) * len(self.variables): 1}
        for _ in range(abs(n)):
            result = _product(result, base)
        return result

    def _inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise NonMonomialDenominator(f"cannot invert non-monomial {self.to_text()!r}")
        (exps, coeff), = self.terms.items()
        if coeff not in (1, -1):
            raise NonMonomialDenominator(f"cannot invert coefficient {coeff} over the integers")
        return self._like({tuple(-e for e in exps): coeff})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.variables == other.variables
            and self.scales == other.scales
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.scales, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({'+'.join(self.variables)}: {self.to_text()})"

    # -- queries ----------------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> int:
        """Coefficient of the monomial with the given stored exponents."""
        return self.terms.get(tuple(exps), 0)

    def coefficient_of(self, **powers: int | Fraction) -> int:
        """Coefficient lookup by variable name, e.g. coefficient_of(X=1, V=1);
        0 when an exponent is not representable at its variable's scale."""
        for name in powers:
            if name not in self.variables:
                raise ValueError(f"unknown variable {name!r}")
        exps = []
        for name, scale in zip(self.variables, self.scales):
            stored = powers.get(name, 0) * scale
            if stored != int(stored):
                return 0
            exps.append(int(stored))
        return self.terms.get(tuple(exps), 0)

    def evaluate(self, values: Mapping[str, int | Fraction]) -> Fraction:
        """Exact evaluation; scaled variables take the value of the scaled root
        (a scale-2 variable t evaluates t^(n/2) as values['t']**n).  Int
        values to non-negative powers stay int until the one Fraction of the
        total."""
        total = 0
        for exps, coeff in self.terms.items():
            for name, e in zip(self.variables, exps):
                p = values[name]
                coeff *= p**e if e >= 0 else Fraction(p) ** e
            total += coeff
        return Fraction(total)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # the keys are distinct, so the pairs sort by key alone
        return sorted(self.terms.items(), reverse=True)

    # -- substitution -----------------------------------------------------

    def substitute(self, assignments: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Map each variable to a Laurent polynomial of a common target ring.

        Negative powers require the target to be an invertible monomial
        (single term, coefficient +-1); otherwise NonMonomialDenominator.
        Each power of a target is computed once, on term dicts, and the
        terms' images accumulate in one dict.
        """
        targets = [assignments[name] for name in self.variables]
        ring = targets[0]
        for t in targets[1:]:
            ring._check_compatible(t)
        one = (0,) * len(ring.variables)
        powers: dict[tuple[int, int], Terms] = {}
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            prod = {one: coeff}
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = targets[i]._power(e)
                    prod = _product(prod, powers[i, e])
            for key, value in prod.items():
                add_entry(out, key, value)
        return ring._like(out)

    # -- text / JSON ------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        factors = [
            (i, self.variables[i], self.scales[i])
            for i in self._factor_order or range(len(self.variables))
        ]
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            body = "*".join(
                [
                    name if exps[i] == scale else f"{name}^{_exp_str(exps[i], scale)}"
                    for i, name, scale in factors
                    if exps[i]
                ]
            )
            mag = abs(coeff)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if parts:
                parts.append(("+ " if coeff > 0 else "- ") + body)
            else:
                parts.append(body if coeff > 0 else "-" + body)
        return " ".join(parts)

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "exps": list(e)} for e, c in self.sorted_terms()]

    def to_report_json(self) -> dict:
        """The shape every --json report gives a polynomial: its text and
        its terms."""
        return {"text": self.to_text(), "terms": self.to_json()}

    @classmethod
    def from_json(
        cls,
        data: Iterable[Mapping],
        variables: Sequence[str],
        scales: Sequence[int] | None = None,
    ) -> "LaurentPoly":
        terms: dict[tuple[int, ...], int] = {}
        for row in data:
            terms[tuple(row["exps"])] = terms.get(tuple(row["exps"]), 0) + row["coeff"]
        return cls(variables, terms, scales)

    @classmethod
    def parse(
        cls,
        text: str,
        variables: Sequence[str],
        scales: Sequence[int] | None = None,
    ) -> "LaurentPoly":
        """Parse the canonical rendering (also accepts unspaced +/- between terms)."""
        variables = tuple(variables)
        scales = tuple(scales) if scales is not None else (1,) * len(variables)
        text = text.strip()
        if text == "0" or not text:
            return cls.zero(variables, scales)
        chunks = _TERM_SPLIT.split(text)
        pieces: list[tuple[int, str]] = []
        first = chunks[0].strip()
        sign = 1
        if first.startswith("-"):
            sign, first = -1, first[1:].strip()
        elif first.startswith("+"):
            first = first[1:].strip()
        pieces.append((sign, first))
        for op, chunk in zip(chunks[1::2], chunks[2::2]):
            pieces.append((1 if op == "+" else -1, chunk.strip()))
        terms: dict[tuple[int, ...], int] = {}
        for sign, body in pieces:
            coeff = sign
            exps = [0] * len(variables)
            for factor in body.split("*"):
                factor = factor.strip()
                if _INT.match(factor):
                    coeff *= int(factor)
                    continue
                m = _FACTOR.match(factor)
                if not m:
                    raise ValueError(f"bad factor {factor!r}")
                name, exp = m.group(1), m.group(2)
                if name not in variables:
                    raise ValueError(f"unknown variable {name!r}")
                idx = variables.index(name)
                q = Fraction(exp) if exp is not None else Fraction(1)
                stored = q * scales[idx]
                if stored.denominator != 1:
                    raise ValueError(f"exponent {q} not representable at scale {scales[idx]}")
                exps[idx] += int(stored)
            add_entry(terms, tuple(exps), coeff)
        return cls(variables, terms, scales)


_JK_RING, _JK_SCALES = ("t", "z"), (4, 1)


class JKPoly(LaurentPoly):
    """The LaurentPoly ring in t^(1/4) and z: terms map (t_quarter, z_pow)
    -> coeff.

    t_quarter is 4x the t-exponent; z_pow must be >= 0.  Terms render z
    first, in ascending (z, t) order.
    """

    __slots__ = ()
    _factor_order = (1, 0)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        for _, zp in terms or {}:
            if zp < 0:
                raise ValueError(f"negative z-power {zp}")
        super().__init__(_JK_RING, terms, _JK_SCALES)

    def _inverse(self) -> "JKPoly":
        # the one ring operation that can make a z-power negative
        return JKPoly(super()._inverse().terms)

    # bound on the class itself, so that tools patching JKPoly's own
    # methods find them
    __add__ = __radd__ = LaurentPoly.__add__
    __sub__ = LaurentPoly.__sub__
    __neg__ = LaurentPoly.__neg__
    __mul__ = __rmul__ = LaurentPoly.__mul__
    to_text = LaurentPoly.to_text
    to_json = LaurentPoly.to_json

    @classmethod
    def zero(cls) -> "JKPoly":
        return cls()

    @classmethod
    def term(cls, coeff: int, t_quarter: int, z_pow: int = 0) -> "JKPoly":
        return cls({(t_quarter, z_pow): coeff})

    @classmethod
    def const(cls, c: int) -> "JKPoly":
        return cls.term(c, 0, 0)

    # -- queries ----------------------------------------------------------

    def coefficient(self, t_quarter: int, z_pow: int = 0) -> int:
        return self.terms.get((t_quarter, z_pow), 0)

    def z_collapsed(self) -> dict[int, int]:
        """Coefficients of t^(q/4) after setting z = 1."""
        out: dict[int, int] = {}
        for (tq, _), coeff in self.terms.items():
            add_entry(out, tq, coeff)
        return out

    def t_span(self) -> Fraction:
        """Span of t-exponents of the z=1 slice."""
        collapsed = self.z_collapsed()
        if not collapsed:
            raise ZeroPolynomial("span of the zero polynomial is undefined")
        return Fraction(max(collapsed) - min(collapsed), 4)

    def has_z_terms(self) -> bool:
        return any(zp for (_, zp) in self.terms)

    def jones_specialization(self) -> LaurentPoly:
        """Set z = -t^(-1/2) - t^(1/2); returns a Laurent polynomial in t
        (scale 4, so quarter-exponents remain representable).  The terms are
        grouped by z-power, and curve_binomial_sum adds up each group times
        CURVE_BINOMIAL to that power by Horner's rule; the constructor drops
        the terms that cancel."""
        by_power: dict[int, dict[int, int]] = {}
        for (tq, zp), coeff in self.terms.items():
            by_power.setdefault(zp, {})[tq] = coeff
        terms = {(tq,): coeff for tq, coeff in curve_binomial_sum(by_power).items()}
        return LaurentPoly(("t",), terms, (4,))

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    # -- conversions ------------------------------------------------------

    @classmethod
    def from_laurent(cls, poly: LaurentPoly) -> "JKPoly":
        """Convert from the ring (t scale 4, z scale 1)."""
        if poly.variables != _JK_RING or poly.scales != _JK_SCALES:
            raise ValueError("expected a polynomial in t (scale 4) and z (scale 1)")
        return cls(poly.terms)

    def to_laurent(self) -> LaurentPoly:
        return LaurentPoly(self.variables, self.terms, self.scales)

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "JKPoly":
        return cls.from_laurent(LaurentPoly.from_json(data, _JK_RING, _JK_SCALES))

    @classmethod
    def parse(cls, text: str) -> "JKPoly":
        return cls.from_laurent(LaurentPoly.parse(text, _JK_RING, _JK_SCALES))


# -t^(-1/2) - t^(1/2): a state's weight carries it to the power k(s) - 1,
# and the Jones specialization sets z to it
CURVE_BINOMIAL = JKPoly({(-2, 0): -1, (2, 0): -1})


def curve_binomial_sum(polys: Mapping[int, Mapping[int, int]]) -> dict[int, int]:
    """The terms {t_quarter: coeff} of the sum over e of polys[e] times
    CURVE_BINOMIAL ** e, where each polys[e] (e >= 0) is a polynomial in t
    given as {t_quarter: coeff}, by Horner's rule from the highest e down:
    multiplying by the binomial sends each term to quarter-exponents 2 below
    and 2 above, negated.  Terms that cancel stay, with coefficient 0."""
    acc: dict[int, int] = {}
    for e in range(max(polys, default=-1), -1, -1):
        stepped: dict[int, int] = {}
        get = stepped.get
        for tq, coeff in acc.items():
            stepped[tq - 2] = get(tq - 2, 0) - coeff
            stepped[tq + 2] = get(tq + 2, 0) - coeff
        for tq, coeff in polys.get(e, {}).items():
            stepped[tq] = get(tq, 0) + coeff
        acc = stepped
    return acc
