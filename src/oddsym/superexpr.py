"""Canonical Grassmann-graded polynomials and their exact arithmetic.

A SuperExpr is a finite sum of (rational-function coefficient) x (ordered
monomial in odd symbols).  Keys are strictly increasing tuples of global
odd indices; no zero coefficient is ever stored, so equal expressions have
identical term dictionaries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .polys import _involves, _primitive, divided_derivative
from .scalars import (EvenImages, Scalar, ScalarError, _add, _mul,
                      binomial_half)
from .symbols import Parity, SymbolError


class ParityError(ValueError):
    pass


def _merge_keys(a, b):
    """Interleave two increasing index tuples, tracking the sign.

    Returns (sign, merged) or None when an index repeats (the monomial
    vanishes by nilpotency).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    merged = []
    i = j = 0
    swaps = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            swaps += len(a) - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1 if swaps % 2 else 1), tuple(merged)


def _accumulate(terms, key, value, sign=1):
    """Add sign * value to terms[key], dropping the key when the sum
    vanishes; a negative sign subtracts value rather than adding -value.
    Both Scalars are of the terms' table, so the sum is the scalar kernel's
    own, with no table check."""
    prev = terms.get(key)
    if prev is None:
        if value.numer:
            terms[key] = value if sign > 0 else -value
        return
    total = _add(prev, value, sign < 0)
    if total.numer:
        terms[key] = total
    else:
        del terms[key]


class _MergeRow(dict):
    """The merges of one key with others: ``row[right]`` is
    ``_merge_keys(left, right)``, computed on its first lookup."""

    __slots__ = ("left",)

    def __init__(self, left):
        super().__init__()
        self.left = left

    def __missing__(self, right):
        merged = self[right] = _merge_keys(self.left, right)
        return merged


def _merge_row(table, left):
    """The row of ``table.key_merges`` for the key ``left``: each merge of
    two keys is computed once per table."""
    row = table.key_merges.get(left)
    if row is None:
        row = table.key_merges[left] = _MergeRow(left)
    return row


def _add_product(table, terms, left, right):
    """Add the product of two term dicts of ``table`` to ``terms``."""
    for ka, ca in left.items():
        row = _merge_row(table, ka)
        for kb, cb in right.items():
            merged = row[kb]
            if merged is not None:
                _accumulate(terms, merged[1], _mul(ca, cb), merged[0])


def _sort_indices(seq):
    """Sort an odd-index sequence, returning (sign, tuple) or None."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return sign, tuple(items)


class SuperExpr:
    """Immutable; ``diff`` and ``signed_diff`` fill a cache of derivatives
    by symbol name on demand.  Its contents depend on the terms alone,
    which nothing changes after construction, so threads sharing an
    expression can only repeat work."""

    __slots__ = ("table", "terms", "_derivs")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms
        self._derivs = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def one(cls, table):
        return cls(table, {(): Scalar.from_int(table, 1)})

    @classmethod
    def from_scalar(cls, scalar):
        if scalar.is_zero:
            return cls(scalar.table, {})
        return cls(scalar.table, {(): scalar})

    @classmethod
    def constant(cls, table, value):
        return cls.from_scalar(Scalar.from_fraction(table, Fraction(value)))

    @classmethod
    def symbol(cls, table, name):
        if table.is_even(name):
            return cls.from_scalar(Scalar.symbol(table, name))
        if table.is_odd(name):
            return cls(table, {(table.odd_index(name),):
                               Scalar.from_int(table, 1)})
        raise SymbolError(f"unknown symbol {name!r}")

    @classmethod
    def from_raw_terms(cls, table, raw_terms):
        """Normalize a list of (coefficient, odd-symbol name sequence)."""
        acc = {}
        for coeff, names in raw_terms:
            if isinstance(coeff, Scalar):
                if coeff.table is not table:
                    raise SymbolError("mixed symbol tables")
                c = coeff
            else:
                c = Scalar.from_fraction(table, Fraction(coeff))
            sorted_ = _sort_indices(table.odd_index(n) for n in names)
            if sorted_ is None:
                continue
            sign, key = sorted_
            _accumulate(acc, key, c, sign)
        return cls(table, acc)

    def _new(self, terms):
        return SuperExpr(self.table, terms)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self):
        seen_even = seen_odd = False
        for key in self.terms:
            if len(key) % 2:
                seen_odd = True
            else:
                seen_even = True
        if seen_even and seen_odd:
            return Parity.MIXED
        if seen_odd:
            return Parity.ODD
        return Parity.EVEN

    def is_even(self):
        return all(len(k) % 2 == 0 for k in self.terms)

    def is_odd(self):
        return all(len(k) % 2 == 1 for k in self.terms)

    def even_part(self):
        return self._new({k: v for k, v in self.terms.items() if len(k) % 2 == 0})

    def odd_part(self):
        return self._new({k: v for k, v in self.terms.items() if len(k) % 2 == 1})

    def body(self):
        """The theta-free, aux-free part: a plain Scalar."""
        return self.terms.get((), Scalar.from_int(self.table, 0))

    def homogeneous_part(self, p):
        """Component of theta-degree exactly p (coordinate odds only)."""
        if p < 0:
            raise ValueError("degree must be nonnegative")
        degree = self.table.theta_degree
        return self._new({k: v for k, v in self.terms.items()
                          if degree(k) == p})

    def max_theta_degree(self):
        return max(map(self.table.theta_degree, self.terms), default=0)

    def theta_order(self):
        """Smallest theta-degree carrying a nonzero term (inf when zero)."""
        return min(map(self.table.theta_degree, self.terms),
                   default=float("inf"))

    def coefficient(self, names):
        """Scalar coefficient of the exact odd monomial given by names."""
        sorted_ = _sort_indices(self.table.odd_index(n) for n in names)
        if sorted_ is None:
            raise ValueError("repeated odd symbol")
        sign, key = sorted_
        c = self.terms.get(key)
        if c is None:
            return Scalar.from_int(self.table, 0)
        return c if sign > 0 else -c

    def scalars(self):
        return self.terms.values()

    # -- ring operations -----------------------------------------------------

    def _check_table(self, other):
        if self.table is not other.table:
            raise SymbolError("mixed symbol tables")

    def _coerce(self, other):
        if isinstance(other, SuperExpr):
            self._check_table(other)
            return other
        if isinstance(other, Scalar):
            if other.table is not self.table:
                raise SymbolError("mixed symbol tables")
            return SuperExpr.from_scalar(other)
        if isinstance(other, (int, Fraction)):
            return SuperExpr.constant(self.table, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # both are immutable, so an empty side can hand back the other
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return self
        if not other.terms:
            return other
        out = {}
        _add_product(self.table, out, self.terms, other.terms)
        return self._new(out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert_even()

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return SuperExpr.one(self.table)
        out = None
        base = self
        while True:
            if exponent & 1:
                out = base if out is None else out * base
            exponent >>= 1
            if not exponent:
                return out
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, SuperExpr):
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            if isinstance(other, Scalar) and other.table is not self.table:
                return False
            other = self._coerce(other)
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {()}:  # equal to its body, a Scalar
            return hash(self.terms.get((), 0))
        return hash((id(self.table), frozenset(self.terms.items())))

    # -- derivatives and the Berezin integral --------------------------------

    def diff(self, name):
        """Left partial derivative (ordinary one for even symbols)."""
        out = self._derivs.get(name)
        if out is None:
            out = self._derivs[name] = self._diff(name)
        return out

    def _diff(self, name):
        table = self.table
        if table.is_even(name):
            out = {}
            for key, c in self.terms.items():
                d = c.diff(name)
                if not d.is_zero:
                    out[key] = d
            return self._new(out)
        idx = table.odd_index(name)
        out = {}
        # removing one index from distinct keys leaves distinct keys
        for key, c in self.terms.items():
            if idx in key:
                pos = key.index(idx)
                out[key[:pos] + key[pos + 1:]] = -c if pos % 2 else c
        return self._new(out)

    def right_diff(self, name):
        """Right odd derivative, read off the cached left one.

        Stripping position pos of a key of length len signs the term
        (-1)^(len - 1 - pos) from the right and (-1)^pos from the left;
        the two differ by (-1)^(len - 1), the parity of the remaining key.
        """
        if not self.table.is_odd(name):
            raise SymbolError(f"{name!r} is not an odd symbol")
        return self._new({k: -v if len(k) % 2 else v
                          for k, v in self.diff(name).terms.items()})

    def signed_diff(self, name):
        """(-1)^p(f) df/dth for an odd symbol th, term by term: minus the
        right derivative.  It is the bracket's left factor by th, read off
        the cached left derivative once and cached with it."""
        out = self._derivs.get(("signed", name))
        if out is None:
            if not self.table.is_odd(name):
                raise SymbolError(f"{name!r} is not an odd symbol")
            out = self._derivs["signed", name] = self._new(
                {k: v if len(k) % 2 else -v
                 for k, v in self.diff(name).terms.items()})
        return out

    def berezin_integral(self, odds):
        """Coefficient of the ordered product of the listed odd symbols.

        Normalized so that integrating th1*...*thn against [th1,...,thn]
        gives 1; equals iterated single-symbol extraction right-to-left.
        """
        odds = list(odds)
        if len(set(odds)) != len(odds):
            raise ValueError("integration symbols must be distinct")
        out = self
        for name in reversed(odds):
            out = out.right_diff(name)
        return out

    # -- substitution ----------------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous parity-matched substitution; see ``Pullback``."""
        return Pullback(self.table, bindings)(self)

    # -- inverses and square roots ----------------------------------------------

    def invert_even(self):
        """Multiplicative inverse of an even element with nonzero body:
        1/b times the geometric series of u = -(self - b)/b, or 1/b alone
        when the element is its body."""
        if not self.is_even():
            raise ParityError("inverse needs a purely even argument")
        b = self.body()
        if b.is_zero:
            raise ScalarError("zero body is not invertible")
        binv = Scalar.from_int(self.table, 1) / b
        if len(self.terms) == 1:
            return SuperExpr.from_scalar(binv)
        u = (self - SuperExpr.from_scalar(b)) * -binv
        series = nilpotent_series(SuperExpr.one(self.table),
                                  lambda t: t * u, lambda k: 1)
        return series * binv

    def sqrt_even(self, body_root=None):
        """Square root of an even element whose body is a perfect square.

        The body root is normalized to positive leading coefficient; the
        nilpotent remainder is handled by the finite binomial series.
        """
        if not self.is_even():
            raise ParityError("square root needs a purely even argument")
        return self.sqrt_series(body_root)

    def sqrt_series(self, body_root=None):
        """The binomial square-root series; the nilpotent part may be of
        mixed parity (powers of one element always commute)."""
        b = self.body()
        if b.is_zero:
            raise ScalarError("zero body has no invertible square root")
        if body_root is None:
            d = b.sqrt()
        else:
            d = body_root if body_root.leading_sign() > 0 else -body_root
            if d * d != b:
                raise ScalarError("supplied body root does not square back")
        u = (self - SuperExpr.from_scalar(b)) * (Scalar.from_int(self.table, 1)
                                                 / b)
        out = nilpotent_series(SuperExpr.one(self.table), lambda t: t * u,
                               binomial_half)
        root = SuperExpr.from_scalar(d) * out
        if root * root != self:
            raise ScalarError("square-root series failed to square back")
        return root

    def __repr__(self):
        from .grammar import render_expr
        return f"<{render_expr(self)}>"


def sum_of_products(table, pairs):
    """sum of a * b over the pairs (a, b) of SuperExprs of ``table``,
    built into one term dict: no product and no partial sum becomes an
    expression of its own.  Every bracket, Delta, divergence and matrix
    product is one such sum."""
    out = {}
    for a, b in pairs:
        if a.table is not table or b.table is not table:
            raise SymbolError("mixed symbol tables")
        if a.terms and b.terms:
            _add_product(table, out, a.terms, b.terms)
    return SuperExpr(table, out)


def sum_of(table, exprs):
    """The sum of SuperExprs of ``table``, built into one term dict."""
    out = {}
    for expr in exprs:
        if expr.table is not table:
            raise SymbolError("mixed symbol tables")
        for key, c in expr.terms.items():
            _accumulate(out, key, c)
    return SuperExpr(table, out)


def nilpotent_series(term, step, coefficient):
    """sum_k coefficient(k) term_k, with term_0 = ``term`` and term_k =
    ``step(term_{k-1})``.

    Each step of a nilpotent series adds at least one unit of odd weight,
    so the sum stops at the first zero term and takes at most the table's
    odd weight plus one terms; it never raises.  A coefficient of 1 adds
    its term as it stands, and one of 0 skips it.
    """
    table = term.table
    plain, scaled = [], []
    for k in range(table.odd_weight + 1):
        if k:
            term = step(term)
        if not term:
            break
        c = coefficient(k)
        if c == 1:
            plain.append(term)
        elif c:
            scaled.append((SuperExpr.constant(table, c), term))
    return sum_of(table, [*plain, sum_of_products(table, scaled)])


class Pullback:
    """Simultaneous parity-matched substitution of one binding set, set up
    once and applied to many expressions: ``Pullback(table, bindings)(e)``.

    ``bindings`` maps symbol names to SuperExprs (or Scalars / numbers
    for even symbols); a symbol bound to itself is skipped.  Odd symbols
    are replaced factor by factor.  An even image splits into its body
    and a nilpotent part, b + n, and every numerator and denominator
    polynomial p of a coefficient is expanded by the Taylor formula

        p(b + n) = sum over alpha of (d^alpha p / alpha!)(b) * n^alpha

    where alpha runs over exponent vectors of the bound even symbols.
    Each n_i is even with no body, so each of its terms carries at least
    two odd factors and n^alpha vanishes once |alpha| exceeds half the
    number of odd symbols: the sum is finite.  The divided derivatives
    d^alpha p / alpha! keep integer coefficients.  A rational coefficient
    maps to the image of its numerator times the inverse of the image of
    its denominator, whose body must not vanish.

    ``many(exprs)`` pulls back a batch with one memo, keyed by the
    primitive part q of an integer-denominator coefficient k q / den
    (content and sign divided out, ``polys._primitive``): the first
    multiple of q in the batch is expanded and kept with its k and den,
    and every other multiple of q is that image times a constant.  The
    memo is kept nowhere once the call returns.

    The bindings are read and split into bodies and nilpotent parts
    once, here; a bad parity is a ``ParityError`` at construction.  What
    the expansion builds depends on the bindings alone, so it is kept
    from one call to the next:

    * ``nil_powers``: the products n^alpha, by exponent prefix;
    * ``odd_products``: the product of the images of a run of bound odd
      symbols, by their indices;
    * ``inverse_cache``: the inverse of the image of a denominator
      polynomial;
    * ``body_images.monomials``: the body monomials b^e, by exponent
      vector e of the moved even symbols, each built once as
      b^(e - e_i) b_i; the Taylor terms (d^alpha p / alpha!)(b) are
      evaluated with them (``EvenImages``).
    """

    def __init__(self, table, bindings):
        self.table = table
        self.bodies = {}  # even name -> image body, when it is not the symbol
        self.nils = {}  # even index -> nonzero nilpotent part of the image
        self.odd_images = {}
        for name, value in bindings.items():
            if isinstance(value, Scalar):
                value = SuperExpr.from_scalar(value)
            elif isinstance(value, (int, Fraction)):
                value = SuperExpr.constant(table, value)
            if value.table is not table:
                raise SymbolError("mixed symbol tables")
            terms = value.terms
            if table.is_even(name):
                idx = table.even_index(name)
                body = terms.get(())
                moved = body != Scalar.symbol(table, name)
                if not moved and len(terms) == 1:
                    continue
                if not value.is_even():
                    raise ParityError(f"even symbol {name!r} bound to odd value")
                if moved:
                    self.bodies[name] = body or Scalar.from_int(table, 0)
                if len(terms) > (body is not None):
                    self.nils[idx] = SuperExpr(table, {k: v for k, v
                                                       in terms.items() if k})
            elif table.is_odd(name):
                idx = table.odd_index(name)
                coeff = terms.get((idx,))
                if coeff is not None and len(terms) == 1 and coeff.is_one:
                    continue
                if not value.is_odd():
                    raise ParityError(f"odd symbol {name!r} bound to even value")
                self.odd_images[idx] = value
            else:
                raise SymbolError(f"unknown symbol {name!r}")
        self.bound = tuple({table.even_index(name) for name in self.bodies} |
                           self.nils.keys())
        self.active = tuple(self.nils)
        self.nil_powers = {}  # exponent prefix over ``active`` -> n^alpha
        self.odd_products = {}  # bound odd indices -> product of images
        self.inverse_cache = {}  # denominator's terms -> inverse image
        self.body_images = EvenImages(table, self.bodies) \
            if self.bodies else None

    def _shifted(self, poly, den):
        """poly(b + n) / den for an integer den, as a term dict."""
        out = {}
        self._walk(out, den, 0, poly, (), None)
        return out

    def _walk(self, out, den, pos, p, prefix, product):
        """Add to ``out`` the Taylor terms of every alpha that extends
        ``prefix``.  alpha grows one ``active`` position at a time: p is
        d^alpha poly / alpha! so far, product is n^alpha (None for 1).
        A method, not a closure: a recursive closure refers to itself, so
        each call's terms would wait for the cyclic collector."""
        active = self.active
        if pos == len(active):
            body_images = self.body_images
            value = Scalar.from_poly(self.table, p, den) \
                if body_images is None else body_images.evaluate(p, den)
            if value.is_zero:
                return
            if product is None:
                _accumulate(out, (), value)
            else:
                for key, c in product.terms.items():
                    _accumulate(out, key, _mul(value, c))
            return
        self._walk(out, den, pos + 1, p, prefix + (0,), product)
        idx = active[pos]
        nil, nil_powers = self.nils[idx], self.nil_powers
        for k in itertools.count(1):
            key = prefix + (k,)
            power = nil_powers.get(key)
            if power is None:
                power = nil if product is None else product * nil
                nil_powers[key] = power
            if power.is_zero:
                return
            p = divided_derivative(p, idx, k)
            if not p:
                return
            product = power
            self._walk(out, den, pos + 1, p, key, product)

    def __call__(self, expr):
        return self._pull(expr, {})

    def many(self, exprs):
        """The pull-backs of a batch of expressions, as a list.  The batch
        shares one memo of the images of its integer-denominator
        coefficients, by primitive part; the memo lives for this call
        alone."""
        memo = {}
        return [self._pull(expr, memo) for expr in exprs]

    def _pull(self, expr, memo):
        """The pull-back of one expression; ``memo`` maps the primitive
        part of an integer-denominator coefficient's numerator to its
        image."""
        table = self.table
        if expr.table is not table:
            raise SymbolError("mixed symbol tables")
        bound, odd_images = self.bound, self.odd_images
        if not bound and not odd_images:
            return expr
        result = {}
        for key, c in expr.terms.items():
            den = c.integer_denominator()
            if bound and (_involves(c.numer, bound) or
                          den is None and _involves(c.denom, bound)):
                if den is not None:
                    # c is k / den times its primitive part q; the first
                    # image of a q is kept with its k and den, and another
                    # multiple of q rescales it
                    k, q = _primitive(c.numer)
                    primitive = frozenset(q.items())
                    kept = memo.get(primitive)
                    if kept is None:
                        piece = SuperExpr(table, self._shifted(c.numer, den))
                        memo[primitive] = piece, k, den
                    else:
                        piece, k0, den0 = kept
                        if k != k0 or den != den0:
                            scale = Scalar.from_fraction(
                                table, Fraction(k * den0, den * k0))
                            piece = SuperExpr(table, {
                                odd: _mul(v, scale)
                                for odd, v in piece.terms.items()})
                else:
                    denom_key = frozenset(c.denom.items())
                    inv = self.inverse_cache.get(denom_key)
                    if inv is None:
                        image = SuperExpr(table, self._shifted(c.denom, 1))
                        if () not in image.terms:
                            raise ScalarError("substitution makes a "
                                              "denominator body vanish")
                        inv = image.invert_even()
                        self.inverse_cache[denom_key] = inv
                    piece = SuperExpr(table, self._shifted(c.numer, 1)) * inv
            elif odd_images and not odd_images.keys().isdisjoint(key):
                piece = SuperExpr(table, {(): c})
            else:
                _accumulate(result, key, c)
                continue
            rest = key
            if odd_images:
                # the images of the bound odd factors go first, the
                # monomial of the others last; count the transpositions
                mapped, kept, swaps = [], [], 0
                for i in key:
                    if i in odd_images:
                        mapped.append(i)
                        swaps += len(kept)
                    else:
                        kept.append(i)
                if mapped:
                    mapped = tuple(mapped)
                    factor = self.odd_products.get(mapped)
                    if factor is None:
                        factor = odd_images[mapped[0]]
                        for i in mapped[1:]:
                            factor = factor * odd_images[i]
                        self.odd_products[mapped] = factor
                    piece = piece * factor
                    if swaps % 2:
                        piece = -piece
                    rest = tuple(kept)
            for k, v in piece.terms.items():
                merged = _merge_row(table, k)[rest]
                if merged is not None:
                    _accumulate(result, merged[1], v, merged[0])
        return SuperExpr(table, result)
