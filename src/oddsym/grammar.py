"""Expression grammar and deterministic rendering.

Grammar: identifiers from the symbol table, integer literals, and the
operators + - * / ^ with the usual precedence ( ^ binds tightest; unary
minus sits between * and ^ ).  ``^`` takes one integer-literal exponent
and cannot be chained: ``x1^2^2`` is a ParseError, ``(x1^2)^2`` is not.
Each distinct literal or symbol is built once per ``parse_expr`` call.
Rendering emits canonical term order and parses back to the identical
expression.
"""

from __future__ import annotations

import math

from .polys import _degrees
from .scalars import Scalar
from .superexpr import SuperExpr, sum_of
from .symbols import SymbolError, quoted


class ParseError(ValueError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_OPERATORS = "+-*/^()"

# Nested parentheses and unary minus signs recurse; deeper input would hit
# Python's recursion limit instead of a ParseError.
_MAX_DEPTH = 100

# ``^`` multiplies out its exponent; a larger literal is rejected, not run.
_MAX_EXPONENT = 100

# ``*``, ``/`` and ``^`` are refused, before they run, when the bound below
# puts more coefficient monomials than this in their result (a quotient
# is bounded as the product of its operands).
_MAX_MONOMIALS = 10_000


def _size(value):
    """The coefficient monomials of a SuperExpr (numerators, and
    denominators that are not constants) and whether any coefficient has
    such a denominator."""
    count, rational = 0, False
    for c in value.terms.values():
        count += len(c.numer)
        if c.integer_denominator() is None:
            count += len(c.denom)
            rational = True
    return count, rational


def _shape(value):
    """What ``_monomial_bound`` reads of a SuperExpr, written as a
    polynomial-valued expression over D, the product of its distinct
    non-constant denominators: the lowest and the highest degree of a
    monomial over D together with its odd key, where an odd factor
    counts one; the highest exponent of each generator over D; the total
    degree and the exponents of D; and its odd indices."""
    dens = {frozenset(c.denom.items()): c.denom for c in value.terms.values()
            if c.integer_denominator() is None}.values()
    zeros = [0] * value.table.ring.ngens
    den = [sum(col) for col in zip(zeros, *map(_degrees, dens))]
    den_degree = sum(max(map(sum, d)) for d in dens)
    lo, hi, num, odds = math.inf, 0, zeros, set()
    for key, c in value.terms.items():
        odds.update(key)
        own, own_degree = zeros, 0
        if c.integer_denominator() is None:
            own = _degrees(c.denom)
            own_degree = max(map(sum, c.denom))
        for mono in c.numer:
            lo = min(lo, len(key) + sum(mono))
            hi = max(hi, len(key) + sum(mono) + den_degree - own_degree)
            num = [max(n, e + d - o)
                   for n, e, d, o in zip(num, mono, den, own)]
    return lo, hi, num, den_degree, den, odds


def _monomial_bound(factors):
    """An upper bound on the coefficient monomials of the product of
    ``factors``, pairs (SuperExpr, how many times it is a factor).

    When every coefficient is a polynomial, each monomial of the result
    comes from a multiset of k monomials of each factor taken k times, so
    the product over the factors of C(m + k - 1, k), m the factor's
    count, is one bound.  The product of the counts themselves is one
    when one rational factor is multiplied by monomials, which cancel at
    most a monomial from its denominators.  A rational factor of one
    term p/q, in lowest terms, taken k times is p^k/q^k, also in lowest
    terms, and counts C(m_p + k - 1, k) + C(m_q + k - 1, k).
    With polynomial coefficients the monomials in the generators that
    occur whose degree lies between the sums of the factors' lowest and
    highest degrees are another; the bound is the smaller.  A rational
    factor is a polynomial-valued expression over the product of its
    distinct denominators, and the result's numerators and denominators
    divide the products of those, which bounds their total degrees and
    each generator's exponent; each odd key carries one numerator and
    one denominator.

    Factors of one term each, a monomial over an integer, bound their
    product by 1 with no walk over them.
    """
    for value, _ in factors:
        if len(value.terms) != 1:
            break
        (c,) = value.terms.values()
        if len(c.numer) != 1 or c.integer_denominator() is None:
            break
    else:
        return 1
    product, rational = 1, []
    for value, times in factors:
        count, r = _size(value)
        if r and times and len(value.terms) == 1:
            (c,) = value.terms.values()
            rational.append(math.comb(len(c.numer) + times - 1, times) +
                            math.comb(len(c.denom) + times - 1, times))
            product *= rational[-1]
        elif r and times:
            product *= count ** times
            rational.append(count if times == 1 else None)
        elif times:
            product *= math.comb(count + times - 1, times)
    if not product or (product <= _MAX_MONOMIALS and
                       rational in ([], [product])):
        return product
    lo, hi, den_degree, odds = 0, 0, 0, set()
    num = den = [0] * factors[0][0].table.ring.ngens
    for value, times in factors:
        if not times:
            continue
        vlo, vhi, vnum, vdeg, vden, vodds = _shape(value)
        lo += vlo * times
        hi += vhi * times
        den_degree += vdeg * times
        num = [e + a * times for e, a in zip(num, vnum)]
        den = [e + b * times for e, b in zip(den, vden)]
        odds |= vodds
    m, g = len(odds), sum(1 for a, b in zip(num, den) if a or b)

    def upto(d):  # even monomials of degree at most d in g generators
        return math.comb(d + g, g) if d >= 0 else 0
    if den_degree:
        return 2 ** m * (min(upto(hi), math.prod(e + 1 for e in num)) +
                         min(upto(den_degree), math.prod(e + 1 for e in den)))
    return min(product, sum(math.comb(m, j) * (upto(hi - j) - upto(lo - j - 1))
                            for j in range(m + 1)))


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            # str.isdigit also admits digits int() refuses, such as '²',
            # and int() refuses literals beyond its length limit
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError("invalid integer literal", line,
                                 col) from None
            tokens.append((value, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens, table):
        self.tokens = tokens
        self.table = table
        self.pos = 0
        self.depth = 0
        self.atoms = {}  # literal or symbol -> its SuperExpr, built once

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self._last_loc())
        self.pos += 1
        return tok

    def _last_loc(self):
        if self.tokens:
            _, line, col = self.tokens[-1]
            return line, col + 1
        return 1, 1

    def _bounded(self, tok, factors):
        if _monomial_bound(factors) > _MAX_MONOMIALS:
            raise ParseError(f"result would exceed {_MAX_MONOMIALS} "
                             f"coefficient monomials", tok[1], tok[2])

    def _nested(self, tok, parse):
        if self.depth >= _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH}",
                             tok[1], tok[2])
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        expr = self.expression()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {quoted(tok[0])}",
                             tok[1], tok[2])
        return expr

    def expression(self):
        terms = [self.term()]
        while True:
            tok = self._peek()
            if tok and tok[0] in ("+", "-"):
                self.pos += 1
                rhs = self.term()
                terms.append(rhs if tok[0] == "+" else -rhs)
            elif len(terms) == 1:
                return terms[0]
            else:
                return sum_of(self.table, terms)

    def term(self):
        value = self.factor()
        while True:
            tok = self._peek()
            if tok and tok[0] in ("*", "/"):
                self.pos += 1
                rhs = self.factor()
                self._bounded(tok, [(value, 1), (rhs, 1)])
                if tok[0] == "*":
                    value = value * rhs
                else:
                    try:
                        value = value / rhs
                    except (ArithmeticError, ValueError) as exc:
                        raise ParseError(f"bad divisor: {exc}",
                                         tok[1], tok[2]) from None
            else:
                return value

    def factor(self):
        tok = self._peek()
        if tok and tok[0] == "-":
            self.pos += 1
            return -self._nested(tok, self.factor)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "^":
            self.pos += 1
            exp_tok = self._next()
            if not isinstance(exp_tok[0], int):
                raise ParseError("exponent must be an integer literal",
                                 exp_tok[1], exp_tok[2])
            if exp_tok[0] > _MAX_EXPONENT:
                raise ParseError(f"exponent larger than {_MAX_EXPONENT}",
                                 exp_tok[1], exp_tok[2])
            self._bounded(tok, [(base, exp_tok[0])])
            return base ** exp_tok[0]
        return base

    def atom(self):
        tok = self._next()
        value, line, col = tok
        if value == "(":
            inner = self._nested(tok, self.expression)
            closing = self._next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[1], closing[2])
            return inner
        atom = self.atoms.get(value)
        if atom is not None:
            return atom
        if isinstance(value, int):
            atom = SuperExpr.from_scalar(Scalar.from_int(self.table, value))
        elif value not in _OPERATORS:
            try:
                atom = SuperExpr.symbol(self.table, value)
            except SymbolError:
                raise ParseError(f"unknown symbol {quoted(value)}",
                                 line, col) from None
        else:
            raise ParseError(f"unexpected token {quoted(value)}", line, col)
        self.atoms[value] = atom
        return atom


def parse_expr(text, table):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, table).parse()


# -- rendering -----------------------------------------------------------------


def _render_number(numer, denom):
    return str(numer) if denom == 1 else f"{numer}/{denom}"


def _render_monomial(table, mono, coeff, denom):
    """One even monomial with coefficient coeff / denom, for ints coeff
    and denom > 0; the fraction is reduced here."""
    if denom != 1:
        g = math.gcd(coeff, denom)
        coeff, denom = coeff // g, denom // g
    parts = []
    for idx, power in enumerate(mono):
        if not power:
            continue
        name = table.even_symbols[idx]
        parts.append(name if power == 1 else f"{name}^{power}")
    if not parts:
        return _render_number(coeff, denom)
    body = "*".join(parts)
    if denom == 1:
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
    return f"{_render_number(coeff, denom)}*{body}"


def join_signed(texts):
    """Rendered terms joined into a sum: a leading minus becomes " - "
    after the first term, and no terms at all render as "0"."""
    out = []
    for text in texts:
        if not out:
            out.append(text)
        elif text.startswith("-"):
            out.append(" - " + text[1:])
        else:
            out.append(" + " + text)
    return "".join(out) or "0"


def _render_poly(table, terms, denom=1):
    """The polynomial of (monomial, int coefficient) terms over denom."""
    return join_signed(_render_monomial(table, mono, coeff, denom)
                       for mono, coeff in terms)


def _poly_is_atomic(terms):
    """True when the polynomial renders to a bare integer or symbol power."""
    if len(terms) != 1:
        return False
    mono, coeff = terms[0]
    nontrivial = [p for p in mono if p]
    if not nontrivial:
        return coeff >= 0
    return coeff == 1 and len(nontrivial) == 1


def render_scalar(scalar):
    """Canonical text for a Scalar; second value: safe as product factor.

    A Scalar with an integer denominator q renders as a polynomial whose
    coefficients are the fractions c/q in lowest terms: each numerator
    coefficient c is reduced against q by ``math.gcd``, and with q = 1
    the integers pass as they are.  Any other Scalar renders as
    numerator/denominator.
    """
    table = scalar.table
    num_terms = scalar.numer_terms
    q = scalar.integer_denominator()
    if q is not None:
        return _render_poly(table, num_terms, q), len(num_terms) <= 1
    den_terms = scalar.denom_terms
    num = _render_poly(table, num_terms)
    if len(num_terms) > 1:
        num = f"({num})"
    den = _render_poly(table, den_terms)
    if not _poly_is_atomic(den_terms):
        den = f"({den})"
    return f"{num}/{den}", True


def render_product(text, product_safe, factor):
    """Rendered coefficient times a rendered monomial ``factor``: the
    factor alone for 1, negated for -1, else ``text*factor`` with the
    coefficient parenthesized unless ``product_safe``."""
    if not factor:
        return text
    if text == "1":
        return factor
    if text == "-1":
        return "-" + factor
    if not product_safe:
        text = f"({text})"
    return f"{text}*{factor}"


def render_expr(expr):
    """Deterministic canonical-order rendering of a SuperExpr."""
    table = expr.table
    out = []
    for key in sorted(expr.terms, key=lambda k: (len(k), k)):
        odd = "*".join(table.odd_name(i) for i in key)
        out.append(render_product(*render_scalar(expr.terms[key]), odd))
    return join_signed(out)
