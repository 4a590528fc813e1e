"""Reference Laurent arithmetic on exponent tuples.

A polynomial is a dict from exponent tuples to nonzero int coefficients.
Nothing here packs an exponent vector: every exponent is a tuple of ints,
every order is the sorted order of those tuples, and exact division first
clears the denominators and divides honest polynomials.  The tests compare
``clustertube.laurent``, which keys its terms by packed ints, against these.
"""
from operator import add, sub


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def plus(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def neg(a):
    return {e: -c for e, c in a.items()}


def minus(a, b):
    return plus(a, neg(b))


def times(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def power(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = times(out, a)
    return out


def shift(a, d):
    return {tuple(map(add, e, d)): c for e, c in a.items()}


def denominator_vector(a):
    return tuple(-min(column) for column in zip(*a))


def div_exact(a, b):
    """The quotient a / b, or None when it is not a Laurent polynomial with
    integer coefficients."""
    if not a:
        return {}
    da, db = denominator_vector(a), denominator_vector(b)
    pa, pb = shift(a, da), shift(b, db)
    b_lead = max(pb)
    quotient = {}
    while pa:
        a_lead = max(pa)
        t = tuple(map(sub, a_lead, b_lead))
        if any(x < 0 for x in t):
            return None
        coeff, rem = divmod(pa[a_lead], pb[b_lead])
        if rem:
            return None
        quotient[t] = coeff
        pa = minus(pa, times({t: coeff}, pb))
    return shift(quotient, tuple(map(sub, db, da)))


def canonical_text(a):
    parts = [f"{'+' if c > 0 else '-'}{abs(c)}*x^({','.join(map(str, e))})"
             for e, c in sorted(a.items())]
    return "".join(parts) or "0"


def _monomial(e):
    parts = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e, 1) if k]
    return "*".join(parts) or "1"


def pretty(a):
    if not a:
        return "0"
    den = tuple(max(k, 0) for k in denominator_vector(a))
    num = sorted(shift(a, den).items(), reverse=True)
    body = ""
    for e, c in num:
        mono = _monomial(e)
        if mono == "1":
            chunk = str(abs(c))
        elif abs(c) == 1:
            chunk = mono
        else:
            chunk = f"{abs(c)}*{mono}"
        body += ("-" if c < 0 else "+") + chunk
    body = body.lstrip("+")
    if not any(den):
        return body
    return f"({body})/({_monomial(den)})" if len(num) > 1 else f"{body}/({_monomial(den)})"
