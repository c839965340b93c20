"""Integer polynomials as dicts from exponent tuples to nonzero ints, and
the ``Ring`` of their monomials.  No routine changes a dict it is given.

The gcds are oddsym's own, signed as sympy's ``cofactors`` signs them.
Cheap lanes come first: a constant side, equal sides, a one-term side,
and sides with no generator in common.  Every other pair goes to the
heuristic gcd (Char, Geddes and Gonnet 1989), checked by exact division,
or to a primitive PRS when that gives up, so a gcd is never refused.
"""

import functools
import math
import operator


# Evaluation points the heuristic gcd tries before it falls back to the
# primitive PRS.
_HEURISTIC_TRIES = 6


@functools.cache
def _monomial_product(ngens):
    """The product of two monomials of ngens generators: generated code
    that unpacks both tuples and adds them slot by slot, as sympy's
    ``MonomialOps.mul``: over twice as fast as mapping ``operator.add``."""
    a, b = ([f"{v}{i}" for i in range(ngens)] for v in "ab")
    namespace = {}
    exec(f"def mul(A, B):\n    [{', '.join(a)}] = A\n"
         f"    [{', '.join(b)}] = B\n"
         f"    return ({''.join(f'{x} + {y}, ' for x, y in zip(a, b))})",
         namespace)
    return namespace["mul"]


class Ring:
    """The monomials of ``ngens`` generators, ordered graded-lex."""

    __slots__ = ("ngens", "zero_monom", "mul")

    def __init__(self, ngens):
        self.ngens = ngens
        self.zero_monom = (0,) * ngens
        self.mul = _monomial_product(ngens)

    @staticmethod
    def order(mono):
        """The graded-lex sort key of a monomial."""
        return sum(mono), mono

    def leading(self, poly):
        """The graded-lex leading monomial of a nonzero polynomial."""
        return max(poly, key=self.order)

    def basis(self, i):
        """The monomial of the generator x_i."""
        return self.zero_monom[:i] + (1,) + self.zero_monom[i + 1:]


def _constant(ring, value):
    """The polynomial dict of an int."""
    return {ring.zero_monom: value} if value else {}


def _ground(poly, zero):
    """The value of a nonzero constant polynomial dict, else None; zero is
    the ring's zero monomial."""
    return poly.get(zero) if len(poly) == 1 else None


def _terms(ring, poly):
    """The items of a polynomial dict in graded-lex descending order."""
    order = ring.order
    return sorted(poly.items(), key=lambda term: order(term[0]),
                  reverse=True)


def _product(ring, p, q):
    """p * q for polynomial dicts, by the ring's generated monomial
    product; a monomial side cannot cancel anything."""
    mul = ring.mul
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


def _power(ring, poly, k):
    """poly ** k for k >= 1, as k - 1 products with poly."""
    out = poly
    for _ in range(k - 1):
        out = _product(ring, out, poly)
    return out


def _involves(poly, indices):
    """True when some monomial of a polynomial uses one of the generators."""
    for mono in poly:
        for i in indices:
            if mono[i]:
                return True
    return False


def _split(poly, indices):
    """{exponents in the generators ``indices``: what they multiply}."""
    groups = {}
    for mono, coeff in poly.items():
        exps = tuple(mono[i] for i in indices)
        if any(exps):
            mono = list(mono)
            for i in indices:
                mono[i] = 0
            mono = tuple(mono)
        groups.setdefault(exps, {})[mono] = coeff
    return groups


def _degrees(poly):
    """The largest exponent of each generator in a nonzero poly."""
    return [max(exps) for exps in zip(*poly)]


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


def _poly_sqrt(ring, poly):
    """The root r with positive leading coefficient of a polynomial dict
    that is a square, else None.

    Leading terms first, in graded-lex order: r starts at the root c x^m
    of poly's leading term, and each next term is the leading term of
    the remainder poly - r^2, below x^2m, divided by 2 c x^m.  None on an
    odd exponent or a coefficient that is not a square or does not
    divide; r^2 == poly once the remainder, kept exactly, is empty.
    """
    if not poly:
        return {}
    lead = ring.leading(poly)
    c = math.isqrt(max(poly[lead], 0))
    if c * c != poly[lead] or any(e & 1 for e in lead):
        return None
    half = tuple(e >> 1 for e in lead)
    root = {half: c}
    rest = {m: e for m, e in poly.items() if m != lead}
    while rest:
        m = ring.leading(rest)
        mono = _lowered(m, half)
        d, rem = divmod(rest[m], 2 * c)
        if rem or min(mono) < 0:
            return None
        # (root + d x^mono)^2 = root^2 + (2 root + d x^mono) d x^mono
        step = {ring.mul(n, mono): 2 * e * d for n, e in root.items()}
        step[ring.mul(mono, mono)] = d * d
        rest = _sum(rest, step, True)
        root[mono] = d
    return root

