"""Integer-coefficient Laurent polynomials in n commuting variables.

Terms are keyed by exponent vectors in Z^n.  The canonical text form sorts
terms lexicographically by exponent vector, so equality, hashing and
serialization are all deterministic.
"""
from __future__ import annotations

from operator import add, sub
from typing import Dict, Sequence, Tuple

Exponent = Tuple[int, ...]


class LaurentError(ValueError):
    pass


class LaurentPoly:
    """A Laurent polynomial sum_e c_e * x^e with integer coefficients c_e.

    Instances are immutable; zero coefficients are never stored and the terms
    are kept in lexicographic order of their exponent vectors, which is what
    ``__hash__`` and ``canonical_text`` read.  The canonical text is built on
    first use and kept.

    The public constructor is the checked boundary for outside data: it
    checks every exponent length, converts every coordinate and coefficient
    with ``int()``, drops zeros and sorts.  Arithmetic builds its results from
    terms that are already clean through ``_trusted``, which checks and
    converts nothing; each caller drops the zeros it creates and passes the
    terms in order.
    """

    __slots__ = ("nvars", "terms", "_text")

    def __init__(self, nvars: int, terms: Dict[Exponent, int]):
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise LaurentError("exponent vector length mismatch")
            if c:
                clean[tuple(map(int, e))] = int(c)
        self.nvars = nvars
        self.terms = dict(sorted(clean.items()))
        self._text = None

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, int]) -> "LaurentPoly":
        """A polynomial over terms with int exponent tuples of length nvars and
        nonzero int coefficients, already in lexicographic order."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._text = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls._trusted(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls._trusted(nvars, {(0,) * nvars: 1})

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
        return LaurentPoly._trusted(self.nvars, dict(sorted(terms.items())))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: Dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return LaurentPoly._trusted(self.nvars, dict(sorted(t for t in terms.items() if t[1])))

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
        """Multiply by the monomial x^exponent.  A shift keeps the order of
        the terms."""
        d = tuple(int(x) for x in exponent)
        if len(d) != self.nvars:
            raise LaurentError("exponent vector length mismatch")
        return LaurentPoly._trusted(
            self.nvars, {tuple(map(add, e, d)): c for e, c in self.terms.items()}
        )

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
        return hash((self.nvars, tuple(self.terms.items())))

    def canonical_text(self) -> str:
        if self._text is None:
            parts = []
            for e, c in self.terms.items():
                sign = "+" if c > 0 else "-"
                parts.append(f"{sign}{abs(c)}*x^({','.join(str(k) for k in e)})")
            self._text = "".join(parts) or "0"
        return self._text

    def __repr__(self):
        return f"LaurentPoly({self.canonical_text()})"


def lp_denominator_vector(p: LaurentPoly) -> Tuple[int, ...]:
    """The vector d with p = f(x)/prod x_i^{d_i}, f divisible by no x_i.

    Equivalently d_i is minus the minimal exponent of x_i over the terms.
    """
    if p.is_zero():
        raise LaurentError("undefined denominator")
    return tuple(-min(column) for column in zip(*p.terms))


def lp_div_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q in the Laurent ring.

    Raises LaurentError when q does not divide p exactly or the quotient is
    not integral.  Implemented as leading-term division in lexicographic
    order after clearing the monomial denominators of both arguments.  The
    leading exponent of the remainder strictly decreases, so each quotient
    coefficient is set once, as one remainder coefficient over the leading
    coefficient of q; an integral quotient therefore needs only exact integer
    division, and the first inexact step proves the quotient non-integral.
    """
    if q.is_zero():
        raise LaurentError("division by zero")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    p._check(q)
    dp = lp_denominator_vector(p)
    dq = lp_denominator_vector(q)
    # x^dp * p and x^dq * q are honest polynomials; divide those.
    pp = {tuple(map(add, e, dp)): c for e, c in p.terms.items()}
    qq = {tuple(map(add, e, dq)): c for e, c in q.terms.items()}
    q_lead = max(qq)
    q_coeff = qq[q_lead]
    quotient: Dict[Exponent, int] = {}
    while pp:
        p_lead = max(pp)
        t = tuple(map(sub, p_lead, q_lead))
        if any(x < 0 for x in t):
            raise LaurentError("not divisible")
        coeff, rem = divmod(pp[p_lead], q_coeff)
        if rem:
            raise LaurentError("quotient has non-integer coefficients")
        quotient[t] = coeff
        for e, c in qq.items():
            key = tuple(map(add, t, e))
            val = pp.get(key, 0) - coeff * c
            if val:
                pp[key] = val
            else:
                pp.pop(key, None)
    # the quotient exponents were found in strictly decreasing order
    shift_back = tuple(map(sub, dq, dp))
    return LaurentPoly._trusted(
        p.nvars, {tuple(map(add, e, shift_back)): c for e, c in reversed(quotient.items())}
    )


def _monomial_str(exponent: Sequence[int], var: str = "x") -> str:
    parts = []
    for i, k in enumerate(exponent, start=1):
        if k == 0:
            continue
        parts.append(f"{var}{i}" if k == 1 else f"{var}{i}^{k}")
    return "*".join(parts) if parts else "1"


def pretty(p: LaurentPoly, var: str = "x") -> str:
    """Numerator-over-monomial display, e.g. (x1^2+x2^2)/(x1*x3^2)."""
    if p.is_zero():
        return "0"
    d = lp_denominator_vector(p)
    num = p.shift(d)
    extra = tuple(max(-k, 0) for k in d)
    if any(extra):
        num = num.shift(extra)
    den = tuple(max(k, 0) for k in d)
    terms = sorted(num.terms.items(), reverse=True)
    chunks = []
    for e, c in terms:
        mono = _monomial_str(e, var)
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
    den_str = _monomial_str(den, var)
    if len(terms) > 1:
        return f"({num_str})/({den_str})"
    return f"{num_str}/({den_str})"
