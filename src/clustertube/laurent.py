"""Integer-coefficient Laurent polynomials in n commuting variables.

Each exponent vector e in Z^n is packed into one int, its key
(Kronecker substitution with packed exponent vectors, as in Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Every variable has a fixed-width field of
W = 16 bits, x_1 the most significant: the field of x_i holds
e_i + 2^(W - 1), and the key subtracts that bias packed into every field,
so the zero vector is key 0 and the key equals sum_i e_i * 2^(W * (n - i)).
While every |e_i| is at most ``MAX_EXPONENT`` = 2^(W - 1) - 1,

* integer order of keys is lexicographic order of exponent vectors, and
* the key of a product of monomials is the sum of their keys.

Every polynomial carries a bound on the absolute value of its exponents.
The bound is computed where outside data comes in (the public constructor,
and with it ``monomial`` and ``variable``, and ``shift``), carried through
``+`` and ``-`` as the larger bound and through ``*`` and ``**`` as the sum
of the factors' bounds, and checked before any key is built, so an
exponent beyond ``MAX_EXPONENT`` raises LaurentError instead of wrapping
into the next field.  An exact quotient reads its bound from its own
terms, each checked before its key is built (``lp_div_exact``).

Terms are stored unordered.  Order is imposed only where it is read: the
canonical text and ``pretty`` sort the keys; equality compares the term
dicts, and the hash reads them as a set.
"""
from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain, cycle
from operator import add, le, sub
from typing import Callable, Dict, List, Sequence, Tuple

Exponent = Tuple[int, ...]

_FIELD_BITS = 16
_BIAS = 1 << (_FIELD_BITS - 1)
_FIELD_BYTES = _FIELD_BITS // 8  # one struct "h" per field
MAX_EXPONENT = _BIAS - 1


class LaurentError(ValueError):
    pass


def _bounded(bound: int) -> int:
    if bound > MAX_EXPONENT:
        raise LaurentError(f"exponent beyond the packing bound {MAX_EXPONENT}")
    return bound


def _pack(exponent: Sequence[int]) -> int:
    key = 0
    for x in exponent:
        key = (key << _FIELD_BITS) + x
    return key


@lru_cache(maxsize=None)
def _unpacker(nvars: int) -> Callable[[int], Exponent]:
    """The exponent vector of a key of nvars fields.  Adding the packed
    bias makes every field the unsigned digit e_i + 2^(W - 1); flipping the
    top bit of each digit (xor with the same packed bias) makes it the
    W-bit two's complement of e_i, which ``struct`` reads in one call."""
    bias = int.from_bytes(_BIAS.to_bytes(_FIELD_BYTES, "big") * nvars, "big")
    read = struct.Struct(f">{nvars}h").unpack
    width = _FIELD_BYTES * nvars
    return lambda key: read(((key + bias) ^ bias).to_bytes(width, "big"))


class LaurentPoly:
    """A Laurent polynomial sum_e c_e * x^e with integer coefficients c_e.

    Instances are immutable; zero coefficients are never stored.  ``terms``
    maps each packed exponent key (see the module docstring) to its
    coefficient, in no particular order; ``ordered_terms`` gives the
    exponent vectors in lexicographic order.  The canonical text is built on
    first use and kept.

    The public constructor is the checked boundary for outside data: it
    checks every exponent length, converts every coordinate and coefficient
    with ``int()``, drops zeros, bounds the exponents and packs them.
    Arithmetic builds its results from terms that are already clean through
    ``_trusted``, which checks and converts nothing; each caller drops the
    zeros it creates and passes a bound on the result's exponents that it
    has checked.
    """

    __slots__ = ("nvars", "terms", "_bound", "_text")

    def __init__(self, nvars: int, terms: Dict[Exponent, int]):
        clean = {}
        bound = 0
        for e, c in terms.items():
            if len(e) != nvars:
                raise LaurentError("exponent vector length mismatch")
            if c:
                e = tuple(map(int, e))
                bound = max(bound, max(map(abs, e), default=0))
                clean[_pack(e)] = int(c)
        self.nvars = nvars
        self.terms = clean
        self._bound = _bounded(bound)
        self._text = None

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[int, int], bound: int) -> "LaurentPoly":
        """A polynomial over packed keys of nvars fields and nonzero int
        coefficients, every |exponent| at most ``bound <= MAX_EXPONENT``."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._bound = bound
        p._text = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls._trusted(nvars, {}, 0)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls._trusted(nvars, {0: 1}, 0)

    @classmethod
    def monomial(cls, nvars: int, exponent: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(int(x) for x in exponent): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """The generator x_i, with 1-based index i."""
        if not 1 <= i <= nvars:
            raise LaurentError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i - 1] = 1
        return cls.monomial(nvars, e)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise LaurentError("mixing polynomials with different variable counts")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return LaurentPoly._trusted(self.nvars, terms, max(self._bound, other._bound))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.nvars, {e: -c for e, c in self.terms.items()}, self._bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        bound = _bounded(self._bound + other._bound)
        terms: Dict[int, int] = {}
        get = terms.get
        right = tuple(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        return LaurentPoly._trusted(self.nvars, terms, bound)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise LaurentError("negative powers are not defined here")
        if k == 0:
            return LaurentPoly.one(self.nvars)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def shift(self, exponent: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^exponent.  The result's bound is exact:
        it is read from the shifted extreme exponents."""
        d = tuple(int(x) for x in exponent)
        if len(d) != self.nvars:
            raise LaurentError("exponent vector length mismatch")
        if not self.terms:
            return self
        lo, hi = _box(self)
        bound = _bounded(max(map(abs, map(add, lo + hi, d + d)), default=0))
        s = _pack(d)
        return LaurentPoly._trusted(self.nvars, {e + s: c for e, c in self.terms.items()}, bound)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def ordered_terms(self) -> List[Tuple[Exponent, int]]:
        """The terms as (exponent vector, coefficient) pairs, in
        lexicographic order of the exponent vectors."""
        terms, unpack = self.terms, _unpacker(self.nvars)
        return [(unpack(e), terms[e]) for e in sorted(terms)]

    def canonical_text(self) -> str:
        if self._text is None:
            parts = []
            for e, c in self.ordered_terms():
                sign = "+" if c > 0 else "-"
                parts.append(f"{sign}{abs(c)}*x^({','.join(str(k) for k in e)})")
            self._text = "".join(parts) or "0"
        return self._text

    def __repr__(self):
        return f"LaurentPoly({self.canonical_text()})"


def _box(p: LaurentPoly) -> Tuple[Exponent, Exponent]:
    """The least and the greatest exponent of each variable over the terms
    of a nonzero p."""
    columns = list(zip(*map(_unpacker(p.nvars), p.terms)))
    return tuple(map(min, columns)), tuple(map(max, columns))


def lp_denominator_vector(p: LaurentPoly) -> Tuple[int, ...]:
    """The vector d with p = f(x)/prod x_i^{d_i}, f divisible by no x_i.

    Equivalently d_i is minus the minimal exponent of x_i over the terms.
    """
    if p.is_zero():
        raise LaurentError("undefined denominator")
    return tuple(-x for x in _box(p)[0])


def lp_div_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q in the Laurent ring.

    Raises LaurentError when q does not divide p exactly or the quotient is
    not integral.  Implemented as leading-term division in lexicographic
    order.  The Laurent ring is an integral domain, so the least (greatest)
    exponent of x_i in a product is the sum of the factors' least
    (greatest): with B the bound p carries, an exact quotient's exponents
    of x_i lie between -B - min_i q and B - max_i q, and its least term in
    lexicographic order is the least of p over the least of q.  A quotient
    term outside that box or below that term proves that q does not divide
    p, and a term beyond the packing bound has no key; either raises before
    the term's key is built, naming the packing bound when the term is
    beyond it.  For a term t inside the box, every remainder key t + e (e a
    term of q) has its exponents within B.  The term t is the remainder's
    leading exponent minus q's, so the box and the least term are moved by
    q's leading exponent once and each step unpacks one key, the
    remainder's leading one; the quotient's bound is read from those
    leading exponents at the end.  The leading exponent of the remainder
    strictly decreases, so each quotient coefficient is set once, as one
    remainder coefficient over the leading coefficient of q; an integral
    quotient therefore needs only exact integer division, and the first
    inexact step proves the quotient non-integral.
    """
    if q.is_zero():
        raise LaurentError("division by zero")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    p._check(q)
    n, b, unpack = p.nvars, p._bound, _unpacker(p.nvars)
    q_lead = max(q.terms)
    q_coeff = q.terms[q_lead]
    shift = unpack(q_lead)
    q_rest = [(e, c) for e, c in q.terms.items() if e != q_lead]
    q_lo, q_hi = _box(q)
    # the box, clipped to the packing bound, and the least term, all moved
    # from the quotient term t to the leading exponent t + shift
    lo = [max(-b - x, -MAX_EXPONENT) + s for x, s in zip(q_lo, shift)]
    hi = [min(b - x, MAX_EXPONENT) + s for x, s in zip(q_hi, shift)]
    floor = tuple(map(add, map(sub, unpack(min(p.terms)), unpack(min(q.terms))), shift))
    rem = dict(p.terms)
    quotient: Dict[int, int] = {}
    leads = []
    while rem:
        p_lead = max(rem)
        lead = unpack(p_lead)
        if lead < floor or not (all(map(le, lo, lead)) and all(map(le, lead, hi))):
            _bounded(max(map(abs, map(sub, lead, shift)), default=0))
            raise LaurentError("not divisible")
        coeff, r = divmod(rem.pop(p_lead), q_coeff)
        if r:
            raise LaurentError("quotient has non-integer coefficients")
        leads.append(lead)
        # t is within the packing bound, so its key is the difference of the keys
        t_key = p_lead - q_lead
        quotient[t_key] = coeff
        for e, c in q_rest:
            key = t_key + e
            val = rem.get(key, 0) - coeff * c
            if val:
                rem[key] = val
            else:
                del rem[key]
    # the largest |t_i| over the quotient terms t = lead - shift
    bound = max(map(abs, map(sub, chain.from_iterable(leads), cycle(shift))), default=0)
    return LaurentPoly._trusted(n, quotient, bound)


def _monomial_str(exponent: Sequence[int]) -> str:
    parts = []
    for i, k in enumerate(exponent, start=1):
        if k == 0:
            continue
        parts.append(f"x{i}" if k == 1 else f"x{i}^{k}")
    return "*".join(parts) if parts else "1"


def pretty(p: LaurentPoly) -> str:
    """Numerator-over-monomial display, e.g. (x1^2+x2^2)/(x1*x3^2)."""
    if p.is_zero():
        return "0"
    den = tuple(max(k, 0) for k in lp_denominator_vector(p))
    # the numerator's exponents are read as tuples, never packed: they may
    # span twice the packing bound
    terms = [(tuple(map(add, e, den)), c) for e, c in reversed(p.ordered_terms())]
    chunks = []
    for e, c in terms:
        mono = _monomial_str(e)
        if abs(c) == 1 and mono != "1":
            body = mono
        elif mono == "1":
            body = str(abs(c))
        else:
            body = f"{abs(c)}*{mono}"
        chunks.append(("-" if c < 0 else "+") + body)
    num_str = "".join(chunks).lstrip("+")
    if not any(den):
        return num_str
    den_str = _monomial_str(den)
    if len(terms) > 1:
        return f"({num_str})/({den_str})"
    return f"{num_str}/({den_str})"
