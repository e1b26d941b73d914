"""Exact Laurent polynomials in one variable over the integers.

A polynomial is a plain dict mapping exponent -> nonzero integer
coefficient.  The zero polynomial is the empty dict.  All functions leave
their arguments untouched and return fresh dicts.
"""

from __future__ import annotations

import re

Laurent = dict[int, int]

ZERO: Laurent = {}
ONE: Laurent = {0: 1}


def monomial(e: int, c: int = 1) -> Laurent:
    return {e: c} if c else {}


def is_zero(p: Laurent) -> bool:
    return not p


def is_monomial(p: Laurent) -> bool:
    return len(p) == 1


def min_degree(p: Laurent) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return min(p)


def max_degree(p: Laurent) -> int:
    if not p:
        raise ValueError("zero polynomial has no degree")
    return max(p)


def add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(p: Laurent) -> Laurent:
    return {e: -c for e, c in p.items()}


def sub(p: Laurent, q: Laurent) -> Laurent:
    return add(p, neg(q))


def mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(p: Laurent, k: int) -> Laurent:
    """p raised to a nonnegative integer power."""
    if k < 0:
        raise ValueError("negative power")
    out = ONE
    for _ in range(k):
        out = mul(out, p)
    return out


def monomial_shift(p: Laurent, e: int) -> Laurent:
    """Multiply by the monomial with exponent e."""
    return {k + e: c for k, c in p.items()}


def star_normalize(p: Laurent) -> Laurent:
    """Divide out the lowest monomial so the minimum degree becomes 0.

    The zero polynomial normalizes to itself.
    """
    if not p:
        return {}
    low = min(p)
    return {e - low: c for e, c in p.items()}


def substitute_power(p: Laurent, e: int) -> Laurent:
    """Substitute the variable by its e-th power (e may be negative, not 0)."""
    if e == 0:
        raise ValueError("substitution exponent must be nonzero")
    return {k * e: c for k, c in p.items()}


def q_binomial(n: int, k: int) -> Laurent:
    """Gaussian binomial coefficient [n choose k]_q.

    Computed row by row down the q-Pascal triangle, columns 0..k only, so
    no division is ever performed.  Returns 0 when k < 0 or k > n.
    """
    if k < 0 or k > n:
        return {}
    k = min(k, n - k)  # [n choose k] = [n choose n-k]
    row: list[Laurent] = [dict(ONE)] + [{} for _ in range(k)]
    for i in range(1, n + 1):
        # [i choose j] = [i-1 choose j] + q^(i-j) [i-1 choose j-1], in place
        for j in range(min(i, k), 0, -1):
            cur, shift = row[j], i - j
            for e, c in row[j - 1].items():
                cur[e + shift] = cur.get(e + shift, 0) + c
    return row[k]


def div_exact(p: Laurent, d: Laurent) -> Laurent:
    """Exact quotient p / d in the Laurent ring; raises if not divisible."""
    if not d:
        raise ValueError("division by zero polynomial")
    if not p:
        return {}
    span_d = max(d) - min(d)
    lead_e = max(d)
    lead_c = d[lead_e]
    rem = dict(p)
    quot: Laurent = {}
    while rem:
        if max(rem) - min(rem) < span_d:
            raise ValueError("not divisible")
        e = max(rem) - lead_e
        c, r = divmod(rem[max(rem)], lead_c)
        if r:
            raise ValueError("not divisible")
        quot[e] = c
        rem = sub(rem, monomial_shift({k: v * c for k, v in d.items()}, e))
    if mul(quot, d) != p:
        raise ValueError("not divisible")
    return quot


def render(p: Laurent, var: str = "A") -> str:
    """Canonical text form: ascending exponents, e.g. ``A^-2 + 2 + 3*A^2``."""
    if not p:
        return "0"
    parts: list[str] = []
    for e in sorted(p):
        c = p[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coef>\d+)?(?:(?(coef)\*?)(?P<var>[A-Za-z])(?:\^(?P<exp>-?\d+))?)?$"
)


def parse(s: str, var: str = "A") -> Laurent:
    """Parse the canonical text form (whitespace-tolerant inverse of render)."""
    compact = "".join(s.split())
    if not compact:
        raise ValueError("empty polynomial text")
    if compact == "0":
        return {}
    out: Laurent = {}
    for chunk in re.split(r"(?<!\^)(?=[+-])", compact):
        if not chunk:
            continue  # the split yields one empty piece before a leading sign
        sign = 1
        if chunk.startswith("+"):
            chunk = chunk[1:]
        elif chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"bad term {chunk!r} in polynomial text")
        if m.group("var") is not None and m.group("var") != var:
            raise ValueError(f"unexpected variable {m.group('var')!r} (wanted {var!r})")
        coef = sign * int(m.group("coef") or 1)
        if m.group("var") is None:
            e = 0
        elif m.group("exp") is None:
            e = 1
        else:
            e = int(m.group("exp"))
        c = out.get(e, 0) + coef
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out
