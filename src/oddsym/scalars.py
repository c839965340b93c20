"""Exact rational-function coefficients over the integers.

A Scalar is a quotient ``numer / denom`` of multivariate integer
polynomials in the even symbols of its table, each a plain ``dict`` from
exponent tuples to nonzero ints.  ``denom`` is either a positive int
coprime to the content of ``numer``, or a nonconstant polynomial coprime
to ``numer`` with leading coefficient positive under graded-lex order;
zero is {}/1.  Every operation returns that canonical form, so equal
Scalars have equal numerators and denominators.  ``Scalar.f`` is a view
that builds the equal sympy ``FracElement``; the arithmetic never does.

The arithmetic takes one of two paths, chosen by the operands alone:

* polynomial-first: when every denominator involved is an integer (almost
  all coefficients are polynomials), the numerators are combined as
  polynomials over the common integer denominator and only the integer
  content is cancelled, with ``math.gcd``;
* field: otherwise the operands are combined as quotients of
  polynomials (an int denominator as a constant one), cancelling across
  before multiplying out (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1).
  Both operands are already in lowest terms, so no factor can cancel
  except between a numerator and the other operand's denominator (a
  product), or between the sum and the gcd of the two denominators (a
  sum).  Those gcds are of the smaller factors, not of the whole product,
  and a gcd with a constant side takes only integers.

The dicts are multiplied here, through the ring's generated
``monomial_mul``; sympy sees them, as ``PolyElement``s, only in ``sqrt``.
Most products in the identities have a constant side, and a
polynomial-first product with one multiplies no polynomials: by 1 it
returns the other operand, by any other c the other numerator scaled by c
over the product of the two integer denominators.  Polynomials are shared
between Scalars, so nothing may change one.

The gcds of the field path are oddsym's own, on the dicts.  Cheap lanes
come first: a constant side takes the integer gcd of its value and the
other side's coefficients; equal sides need no gcd; a one-term side c x^m
gives gcd(c, content of q) times x to the componentwise least exponents;
and sides with no generator in common share only their integer content.
Every other pair, its common integer content taken out, goes to the
heuristic gcd (Char, Geddes and Gonnet 1989): one shared generator x_i
is set to an integer xi at least 2 min(|p|, |q|) + 2 (|.| the largest
coefficient), the gcd of the two images is taken the same way in the
other generators (an integer gcd at the bottom), and the primitive part
of the candidate read back from its symmetric base-xi digits is the gcd
when it divides both sides: the bound on xi makes that so.  That exact
division gives the two cofactors too.  When six growing points give no
such candidate, a primitive PRS takes the gcd instead, so a gcd is never
refused.  Every lane gives the gcd the sign sympy's ``cofactors`` gives.

Both paths give the quotient ``FracField`` itself would give; the
property tests compare them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement


class ScalarError(ArithmeticError):
    pass


# Scalar.from_int keeps the constants in this range, per symbol table.
_CACHED_INTS = range(-16, 17)

# Evaluation points the heuristic gcd tries before it falls back to the
# primitive PRS.
_HEURISTIC_TRIES = 6


class Scalar:
    __slots__ = ("table", "numer", "denom")

    def __init__(self, table, numer, denom):  # canonical, as stated above
        self.table = table
        self.numer = numer
        self.denom = denom

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, table, value):
        value = int(value)
        cached = table.int_scalars.get(value)
        if cached is not None:
            return cached
        out = cls(table, _constant(table, value), 1)
        if value in _CACHED_INTS:
            table.int_scalars[value] = out
        return out

    @classmethod
    def from_fraction(cls, table, value):
        value = Fraction(value)
        return cls(table, _constant(table, value.numerator),
                   value.denominator)

    @classmethod
    def from_poly(cls, table, poly, den=1):
        """poly / den for a polynomial dict (exponent tuple -> nonzero
        int) of the table's generators and an int den > 0."""
        return _reduce(table, poly, den)

    @classmethod
    def symbol(cls, table, name):
        ring = table.field.ring
        return cls(table, {ring.monomial_basis(table.even_index(name)): 1}, 1)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.table is not self.table:
                raise ScalarError("mixed symbol tables")
            return other
        if isinstance(other, int):
            return Scalar.from_int(self.table, other)
        if isinstance(other, Fraction):
            return Scalar.from_fraction(self.table, other)
        return NotImplemented

    @property
    def f(self):
        """The equal sympy ``FracElement``, built on each read."""
        field = self.table.field
        return FracElement(field, field.ring.dtype(self.numer),
                           field.ring.dtype(_denominator(self)))

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(self, other, True)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _add(other, self, True)

    def __mul__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.numer:
            raise ScalarError("division by zero scalar")
        return _div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, exponent):
        # c ** 0 is 1 for every c, 0 included, as for SuperExpr and "0^0"
        if not isinstance(exponent, int):
            return NotImplemented
        base, table = self, self.table
        if exponent < 0:
            if not self.numer:
                raise ScalarError("division by zero scalar")
            base, exponent = _reciprocal(self), -exponent
        if not exponent:
            return Scalar(table, _constant(table, 1), 1)
        q = base.integer_denominator()
        return Scalar(table, _power(table, base.numer, exponent),
                      _power(table, base.denom, exponent) if q is None
                      else q ** exponent)

    def __neg__(self):
        return Scalar(self.table, _scaled(self.numer, -1), self.denom)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self._coerce(other)
        return self.table is other.table and self.numer == other.numer \
            and self.denom == other.denom

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as one
        return hash(self.as_fraction() if self.is_constant() else (
            frozenset(self.numer.items()),
            self.integer_denominator() or frozenset(self.denom.items())))

    def __bool__(self):
        return bool(self.numer)

    @property
    def is_zero(self):
        return not self.numer

    @property
    def is_one(self):
        return self.denom == 1 and self.numer == _constant(self.table, 1)

    # -- structure queries --------------------------------------------------

    @property
    def numer_terms(self):
        """[(exponent tuple, int coeff)] in graded-lex descending order."""
        return _terms(self.table, self.numer)

    @property
    def denom_terms(self):
        return _terms(self.table, _denominator(self))

    def is_constant(self):
        numer, zero = self.numer, self.table.field.ring.zero_monom
        return not isinstance(self.denom, dict) and (
            not numer or _ground(numer, zero) is not None)

    def as_fraction(self):
        if not self.is_constant():
            raise ScalarError("scalar is not a rational constant")
        return Fraction(self.numer.get(self.table.field.ring.zero_monom, 0),
                        self.denom)

    def depends_on(self, name):
        idx = self.table.even_index(name)
        return any(m[idx] for m in self.numer) or \
            any(m[idx] for m in _denominator(self))

    # -- calculus ------------------------------------------------------------

    def diff(self, name):
        idx = self.table.even_index(name)
        if isinstance(self.denom, dict):
            return _diff_quotient(self, idx)
        return _reduce(self.table, divided_derivative(self.numer, idx),
                       self.denom)

    def radial(self, names, k):
        """int_0^1 s^(k-1) c(s x) ds for a polynomial c, with x the even
        symbols ``names`` and k >= 1.

        A monomial of degree m in those symbols is divided by m + k; the
        quotients share one integer denominator.
        """
        if isinstance(self.denom, dict):
            raise ScalarError("radial integral needs a polynomial")
        indices = [self.table.even_index(name) for name in names]
        numer = self.numer
        weights = {mono: sum(mono[i] for i in indices) + k for mono in numer}
        lcm = math.lcm(*weights.values())
        scaled = {mono: c * (lcm // weights[mono])
                  for mono, c in numer.items()}
        return _reduce(self.table, scaled, self.denom * lcm)

    def subs_even(self, images, powers=None):
        """Simultaneous substitution of even symbols by Scalars.

        ``images`` maps even-symbol names to Scalars of the same table;
        unmentioned symbols stay put.  ``powers`` may be a dict that keeps
        the powers of the images between calls with the same ``images``.
        """
        table = self.table
        args = {table.even_index(name): self._coerce(value)
                for name, value in images.items()}
        if powers is None:
            powers = {}
        num = _eval_poly(table, self.numer, args, powers)
        if not isinstance(self.denom, dict):
            return _mul(num, Scalar(table, _constant(table, 1), self.denom))
        den = _eval_poly(table, self.denom, args, powers)
        if not den:
            raise ScalarError("substitution makes the denominator vanish")
        return _div(num, den)

    def integer_denominator(self):
        """The denominator as an int when it is constant, else None."""
        denom = self.denom
        return None if isinstance(denom, dict) else denom

    def sqrt(self):
        """The root with positive leading numerator coefficient.

        Defined only when numerator and denominator are perfect squares in
        the polynomial ring (including the integer content).
        """
        num = _poly_sqrt(self.table, self.numer)
        den = _poly_sqrt(self.table, _denominator(self))
        if num is None or den is None:
            raise ScalarError("scalar is not a perfect square")
        root = _canonical(self.table, num, den)
        if root.leading_sign() < 0:
            root = -root
        return root

    def leading_sign(self):
        numer = self.numer
        lc = numer[self.table.field.ring.leading_expv(numer)] if numer else 0
        return (lc > 0) - (lc < 0)

    def __repr__(self):
        new = self.table.field.ring.dtype
        denom = self.integer_denominator() or new(self.denom)
        return f"Scalar(({new(self.numer)})/({denom}))"


# -- polynomial dicts ---------------------------------------------------------

def _constant(table, value):
    """The polynomial dict of an int."""
    return {table.field.ring.zero_monom: value} if value else {}


def _ground(poly, zero):
    """The value of a nonzero constant polynomial dict, else None; zero is
    the ring's zero monomial."""
    return poly.get(zero) if len(poly) == 1 else None


def _terms(table, poly):
    """The items of a polynomial dict in graded-lex descending order."""
    order = table.field.ring.order
    return sorted(poly.items(), key=lambda term: order(term[0]),
                  reverse=True)


def _plain(poly):
    """The polynomial dict of a sympy PolyElement."""
    return {mono: int(c) for mono, c in poly.items()}


def _product(ring, p, q):
    """p * q for polynomial dicts, by the ring's generated monomial
    product; a monomial side cannot cancel anything."""
    mul = ring.monomial_mul
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (n, b), = q.items()
        return {mul(m, n): a * b for m, a in p.items()}
    out = {}
    get = out.get
    for m, a in p.items():
        for n, b in q.items():
            mono = mul(m, n)
            out[mono] = get(mono, 0) + a * b
    if 0 in out.values():
        return {mono: c for mono, c in out.items() if c}
    return out


def _sum(p, q, subtract=False):
    """p + q, or p - q when ``subtract``, for polynomial dicts."""
    out = dict(p)
    get = out.get
    for mono, c in q.items():
        c = get(mono, 0) - c if subtract else get(mono, 0) + c
        if c:
            out[mono] = c
        else:
            del out[mono]
    return out


def _scaled(poly, k):
    """poly * k for a nonzero int k."""
    return poly if k == 1 else {mono: c * k for mono, c in poly.items()}


def _quotient(poly, k):
    """poly / k for an int k that divides every coefficient."""
    return {mono: c // k for mono, c in poly.items()}


def divided_derivative(poly, idx, k=1):
    """(d poly / dx_idx) / k for a polynomial dict, when k divides every
    coefficient of the derivative.  No two monomials of poly map to the
    same one, so nothing cancels."""
    out = {}
    for mono, c in poly.items():
        e = mono[idx]
        if e:
            out[mono[:idx] + (e - 1,) + mono[idx + 1:]] = c * e // k
    return out


def _power(table, poly, k):
    """poly ** k for k >= 1, as k - 1 products with poly."""
    ring, out = table.field.ring, poly
    for _ in range(k - 1):
        out = _product(ring, out, poly)
    return out


# -- the kernel ---------------------------------------------------------------

def _denominator(f):
    """f's denominator as a polynomial dict, as the field path reads it."""
    d = f.denom
    return d if isinstance(d, dict) else _constant(f.table, d)


def _zero(table):
    return Scalar(table, {}, 1)


def _reduce(table, num, den):
    """The Scalar num/den for an integer den > 0.

    A polynomial and an integer share only integer content, so cancelling
    gcd(den, coefficients) gives lowest terms without a polynomial gcd.
    """
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = _quotient(num, g)
            den //= g
    return Scalar(table, num, den)


def _mul(f, g):
    if not f.numer or not g.numer:
        return _zero(f.table)
    ring = f.table.field.ring
    da, db = f.denom, g.denom
    if isinstance(da, dict) or isinstance(db, dict):
        # a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)), gi the cross gcds
        _, a, d = _gcd(ring, f.numer, _denominator(g))
        _, c, b = _gcd(ring, g.numer, _denominator(f))
        return _canonical(f.table, _product(ring, a, c), _product(ring, b, d))
    zero = ring.zero_monom
    c = _ground(g.numer, zero)
    if c is None:
        c = _ground(f.numer, zero)
        if c is None:
            return _reduce(f.table, _product(ring, f.numer, g.numer), da * db)
        f, g, da, db = g, f, db, da
    # g = c/db is a constant: scale f's numerator, multiply no polynomials
    if c == 1 and db == 1:
        return f
    return _reduce(f.table, _scaled(f.numer, c), da * db)


def _add(f, g, subtract=False):
    """f + g, or f - g when ``subtract``."""
    if not g.numer:
        return f
    if not f.numer:
        return -g if subtract else g
    da, db = f.denom, g.denom
    if isinstance(da, dict) or isinstance(db, dict):
        return _add_quotients(f, g, subtract)
    a, b = f.numer, g.numer
    if da != db:
        lcm = da // math.gcd(da, db) * db
        a = _scaled(a, lcm // da)
        b = _scaled(b, lcm // db)
        da = lcm
    return _reduce(f.table, _sum(a, b, subtract), da)


def _div(f, g):
    """f / g for nonzero g; polynomial-first when g is a rational constant,
    else f times the reciprocal of g."""
    da, q = f.denom, g.denom
    p = _ground(g.numer, f.table.field.ring.zero_monom)
    if p is None or isinstance(da, dict) or isinstance(q, dict):
        return _mul(f, _reciprocal(g))
    num = _scaled(f.numer, q)
    den = da * p
    if den < 0:
        num, den = _scaled(num, -1), -den
    return _reduce(f.table, num, den)


def _reciprocal(f):
    """1/f for nonzero f."""
    return _canonical(f.table, _denominator(f), f.numer)


def _gcd(ring, p, q):
    """(h, p/h, q/h) for h the gcd of the nonzero polynomial dicts p and q,
    its sign fixed by ``_gcd_lead``.

    A constant side takes only integers; equal sides need no gcd at all;
    every other pair goes to ``_poly_gcd``.
    """
    zero = ring.zero_monom
    one = {zero: 1}
    c = _ground(p, zero)
    if c is None:
        c = _ground(q, zero)
        if c is None:
            h, a, b = (p, one, one) if p == q else _poly_gcd(ring, p, q)
            if h[_gcd_lead(ring, h, p, q)] < 0:
                return _scaled(h, -1), _scaled(a, -1), _scaled(b, -1)
            return h, a, b
        h = math.gcd(c, *p.values())
    else:
        h = math.gcd(c, *q.values())
    if h == 1:
        return one, p, q
    return {zero: h}, _quotient(p, h), _quotient(q, h)


def _gcd_lead(ring, h, p, q):
    """The monomial of the gcd h of p and q whose coefficient ``_gcd``
    makes positive: h's leading one in graded-lex order once each
    generator's exponents are divided by their gcd over p and q.

    That is the sign sympy's ``PolyElement.cofactors`` gives, the oracle
    of the property tests: it takes the gcd of p and q written in x_j^s_j,
    s_j that exponent gcd, and makes its leading coefficient positive.
    """
    if len(h) == 1:
        return next(iter(h))
    steps = [math.gcd(*exps) or 1 for exps in zip(*p, *q)]
    return max(h, key=lambda m: ring.order(tuple(map(operator.floordiv, m,
                                                      steps))))


def _poly_gcd(ring, p, q):
    """(h, p/h, q/h) for h a gcd of the nonzero polynomial dicts p and q,
    of either sign.

    A one-term side takes a monomial gcd; sides with no generator in
    common share only their integer content.  Otherwise the common content
    is taken out and the heuristic gcd runs, or the primitive PRS when the
    heuristic gives up.
    """
    if len(p) == 1:
        return _monomial_gcd(p, q)
    if len(q) == 1:
        h, q, p = _monomial_gcd(q, p)
        return h, p, q
    g = math.gcd(*p.values(), *q.values())
    if g != 1:
        p, q = _quotient(p, g), _quotient(q, g)
    shared = _support(p) & _support(q)
    if not shared:
        return {ring.zero_monom: g}, p, q
    h, p, q = (_heuristic_gcd(ring, p, q, min(shared))
               or _prs_gcd(ring, p, q))
    return _scaled(h, g), p, q


def _monomial_gcd(p, q):
    """_poly_gcd for a one-term p = c x^m: h = gcd(c, content of q) x^e,
    e the componentwise least exponents of m and q's monomials."""
    (m, c), = p.items()
    g = math.gcd(c, *q.values())
    low = tuple(map(min, m, *q)) if any(m) else m
    return {low: g}, {_lowered(m, low): c // g}, \
        {_lowered(n, low): d // g for n, d in q.items()}


def _lowered(m, low):
    """The monomial m / low, for low dividing m."""
    return tuple(map(operator.sub, m, low))


def _support(poly):
    """The indices of the generators that occur in poly."""
    return {i for i, exps in enumerate(zip(*poly)) if any(exps)}


def _heuristic_gcd(ring, p, q, i):
    """(h, p/h, q/h) for h the gcd of p and q, whose integer contents are
    coprime and in which x_i occurs, or None when the heuristic gives up.

    Heuristic gcd (Char, Geddes and Gonnet 1989): with x_i set to an
    integer xi, the gcd of the two images, taken by ``_poly_gcd`` in the
    other generators, is read back as a polynomial in x_i from its
    symmetric base-xi digits.  For xi >= 2 min(|p|, |q|) + 2 (|.| the
    largest coefficient) its primitive part is the gcd when it divides
    both p and q; otherwise xi grows and the next point is tried.  The
    first xi is 27 past that bound, as in sympy's ``heugcd``, so that an
    integer factor the images share by chance is rare.
    """
    xi = 2 * min(max(map(abs, p.values())), max(map(abs, q.values()))) + 29
    for _ in range(_HEURISTIC_TRIES):
        image_p, image_q = _evaluate(p, i, xi), _evaluate(q, i, xi)
        if image_p and image_q:
            h = _interpolate(_poly_gcd(ring, image_p, image_q)[0], i, xi)
            content = math.gcd(*h.values())
            if content != 1:
                h = _quotient(h, content)
            a = _exact_quotient(p, h)
            if a is not None:
                b = _exact_quotient(q, h)
                if b is not None:
                    return h, a, b
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011  # as heugcd
    return None


def _evaluate(poly, i, xi):
    """poly with x_i set to the integer xi."""
    out = {}
    get = out.get
    for mono, c in poly.items():
        e = mono[i]
        if e:
            mono = mono[:i] + (0,) + mono[i + 1:]
            c *= xi ** e
        out[mono] = get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _interpolate(image, i, xi):
    """The polynomial whose coefficient of x_i^k is the k-th symmetric
    base-xi digit of ``image``, a polynomial free of x_i."""
    out = {}
    half = xi // 2
    k = 0
    while image:
        rest = {}
        for mono, c in image.items():
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[mono[:i] + (k,) + mono[i + 1:]] = digit
            c = (c - digit) // xi
            if c:
                rest[mono] = c
        image = rest
        k += 1
    return out


def _exact_quotient(p, h):
    """p / h for nonzero polynomial dicts, when h divides p; else None.

    Long division by leading terms in lex order: each step removes the
    leading term of the remainder.  An exact quotient has, in each
    generator, the degree of p less that of h, so a quotient term past
    that, or a coefficient that does not divide, ends the division.
    """
    if len(h) == 1:
        (n, d), = h.items()
        if d == 1 and not any(n):
            return p
        out = {}
        for m, c in p.items():
            mono = _lowered(m, n)
            if c % d or min(mono) < 0:
                return None
            out[mono] = c // d
        return out
    bound = [a - b for a, b in zip(_degrees(p), _degrees(h))]
    if min(bound) < 0:
        return None
    lead = max(h)
    lc = h[lead]
    tail = [(n, d) for n, d in h.items() if n != lead]
    rest = dict(p)
    out = {}
    while rest:
        m = max(rest)
        mono = _lowered(m, lead)
        c, r = divmod(rest.pop(m), lc)
        if r or any(map(operator.gt, mono, bound)) or min(mono) < 0:
            return None
        out[mono] = c
        for n, d in tail:
            n = tuple(map(operator.add, mono, n))
            d = rest.get(n, 0) - c * d
            if d:
                rest[n] = d
            else:
                del rest[n]
    return out


def _degrees(poly):
    """The largest exponent of each generator in poly."""
    return [max(exps) for exps in zip(*poly)]


def _prs_gcd(ring, p, q):
    """(h, p/h, q/h) for h a gcd of the nonzero polynomial dicts p and q,
    of either sign, by the primitive PRS in x_i over Z[the other
    generators], whose gcds ``_poly_gcd`` takes; x_i is a generator both
    share, of the least degree in one of them, which bounds the length of
    the sequence.

    gcd(p, q) = gcd(cont p, cont q) gcd(pp p, pp q), the contents in the
    other generators.  The second factor is the last nonzero member of the
    sequence of primitive pseudo-remainders, or 1 when a remainder of
    degree 0 in x_i ends it.
    """
    shared = _support(p) & _support(q)
    if shared:
        dp, dq = _degrees(p), _degrees(q)
        i = min(shared, key=lambda j: min(dp[j], dq[j]))
        cp, a = _content_in(ring, p, i)
        cq, b = _content_in(ring, q, i)
        if _degrees(a)[i] < _degrees(b)[i]:
            a, b = b, a
        while True:
            r = _pseudo_remainder(ring, a, b, i)
            if not r or not _degrees(r)[i]:
                break
            a, b = b, _content_in(ring, r, i)[1]
        h = _poly_gcd(ring, cp, cq)[0]
        if not r:
            h = _product(ring, h, b)
    else:
        h = {ring.zero_monom: math.gcd(*p.values(), *q.values())}
    return h, _exact_quotient(p, h), _exact_quotient(q, h)


def _content_in(ring, poly, i):
    """(c, poly / c) for c the gcd of poly's coefficients as a polynomial
    in x_i."""
    content, *rest = [_coefficient_in(poly, i, e)
                      for e in {mono[i] for mono in poly}]
    for coefficient in rest:
        content = _poly_gcd(ring, content, coefficient)[0]
    return content, _exact_quotient(poly, content)


def _pseudo_remainder(ring, a, b, i):
    """A multiple of a by a power of b's leading coefficient in x_i, less
    a multiple of b, of degree in x_i below b's."""
    d = _degrees(b)[i]
    lc = _coefficient_in(b, i, d)
    while a:
        e = _degrees(a)[i]
        if e < d:
            break
        shift = ring.zero_monom[:i] + (e - d,) + ring.zero_monom[i + 1:]
        top = _product(ring, _coefficient_in(a, i, e), {shift: 1})
        a = _sum(_product(ring, lc, a), _product(ring, top, b), True)
    return a


def _coefficient_in(poly, i, e):
    """The coefficient of x_i^e in poly, a polynomial free of x_i."""
    return {mono[:i] + (0,) + mono[i + 1:]: c
            for mono, c in poly.items() if mono[i] == e}


def _canonical(table, num, den):
    """The Scalar num/den for coprime polynomial dicts num and den, with
    the sign moved so that den's leading coefficient is positive and a
    constant den kept as an int."""
    if den[table.field.ring.leading_expv(den)] < 0:
        num, den = _scaled(num, -1), _scaled(den, -1)
    c = _ground(den, table.field.ring.zero_monom)
    return Scalar(table, num, den if c is None else c)


def _add_quotients(f, g, subtract):
    """a/b + c/d, or a/b - c/d, for nonzero lowest-terms operands.

    With h = gcd(b, d), t = a (d/h) + c (b/h) shares no factor with b/h
    or d/h, so the one gcd left to take is gcd(t, h).
    """
    ring = f.table.field.ring
    h, b, d = _gcd(ring, _denominator(f), _denominator(g))
    t = _sum(_product(ring, f.numer, d), _product(ring, g.numer, b),
             subtract)
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(ring, t, h)
    return _canonical(f.table, t, _product(ring, _product(ring, h, b), d))


def _diff_quotient(f, idx):
    """d(a/b)/dx_idx for a lowest-terms a/b with b not constant.

    With h = gcd(b, b'), u = b/h and v = b'/h, the derivative is
    (a'u - a v) / (b u), and its numerator shares no factor with u.
    """
    ring = f.table.field.ring
    a, b = f.numer, f.denom
    da, db = divided_derivative(a, idx), divided_derivative(b, idx)
    if not db:
        if not da:
            return _zero(f.table)
        _, da, b = _gcd(ring, da, b)
        return _canonical(f.table, da, b)
    h, u, v = _gcd(ring, b, db)
    t = _sum(_product(ring, da, u), _product(ring, a, v), True)
    if not t:
        return _zero(f.table)
    _, t, h = _gcd(ring, t, h)
    return _canonical(f.table, t, _product(ring, _product(ring, h, u), u))


def _eval_poly(table, poly, images, powers):
    """The Scalar of a polynomial dict with the generators in ``images``
    (index -> Scalar) replaced; the other generators stay.

    Monomials are grouped by their exponents in the replaced generators,
    so each group costs one product of image powers; ``powers`` holds
    those powers by (index, exponent) and is filled as they are needed.
    """
    bound = tuple(images)
    groups = {}
    for mono, coeff in poly.items():
        exps = tuple(mono[idx] for idx in bound)
        if any(exps):
            rest = list(mono)
            for idx in bound:
                rest[idx] = 0
            mono = tuple(rest)
        groups.setdefault(exps, {})[mono] = coeff
    total = _zero(table)
    for exps, rest in groups.items():
        term = Scalar(table, rest, 1)
        for idx, e in zip(bound, exps):
            if e:
                power = powers.get((idx, e))
                if power is None:
                    power = powers[(idx, e)] = images[idx] ** e
                term = _mul(term, power)
        total = _add(total, term)
    return total


def _poly_sqrt(table, poly):
    """Square root of a perfect-square polynomial dict, or None."""
    zero = table.field.ring.zero_monom
    if not poly or _ground(poly, zero) is not None:
        value = poly.get(zero, 0)
        if value < 0:
            return None
        root = _isqrt(value)
        return None if root is None else _constant(table, root)
    ring = table.field.ring
    content, factors = sympy.factor_list(ring.dtype(poly).as_expr())
    content = Fraction(str(content))
    if content < 0 or content.denominator != 1:
        return None
    croot = _isqrt(content.numerator)
    if croot is None:
        return None
    out = ring.ground_new(ZZ(croot))
    for base, exp in factors:
        exp = int(exp)
        if exp % 2:
            return None
        out = out * ring.from_expr(base) ** (exp // 2)
    return _plain(out)


def _isqrt(value):
    root = math.isqrt(value)
    return root if root * root == value else None


def binomial_half(k):
    """Coefficient of t^k in the square-root series of 1 + t."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(1, 2) - j
        out /= j + 1
    return out
