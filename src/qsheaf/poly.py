"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[psi_1..psi_nv] optionally extended by Novikov
variables; a term is keyed by a pair (psi exponents, q exponents) and its
coefficient is exact in one canonical form: an int when it is integral, a
Fraction otherwise (CPython multiplies ints about a hundred times faster).
`_exact` owns that form and `_div` is the one quotient of two coefficients;
never `/` two coefficients elsewhere, since int / int is a float.  The q
exponents are integer vectors (curve-class coordinates in the geometric
layers) and may be negative in storage; the Groebner routines insist on
nonnegative q exponents.

The only monomial order used is graded reverse lexicographic with
psi_1 > psi_2 > ..., with q exponents compared the same way in a second
block (so classical monomials dominate Novikov ones of equal psi part).
`Polynomial` keeps its monomials as tuple pairs.  `groebner`, `normal_form`
and `top_functional` pack them on entry into one `_Packing` int each, whose
int order is this order, and unpack once on return; a run whose monomials
outgrow their packing starts over on a wider one, so nothing ever wraps.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .linalg import _primitive


class PolyError(Exception):
    pass


class NonSquare(PolyError):
    pass


class NonHomogeneousIdeal(PolyError):
    pass


class UnsupportedNovikovShape(PolyError):
    """Novikov exponents admit no nonnegative coordinatization."""


class ParseError(PolyError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _grevlex_key(exps: tuple) -> tuple:
    return (sum(exps), *[-e for e in reversed(exps)])


def monomial_key(mon: tuple) -> tuple:
    """Sort key; larger key = larger monomial in the block grevlex order."""
    p, q = mon
    return _grevlex_key(p) + _grevlex_key(q)


def _mon_mul(a: tuple, b: tuple) -> tuple:
    return (tuple(map(operator.add, a[0], b[0])), tuple(map(operator.add, a[1], b[1])))


def _exact(c):
    """The canonical form of an exact coefficient: an int when it is
    integral, else a Fraction.  A float is read exactly, as Fraction reads it."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:  # a Fraction is immutable: it is not rebuilt
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """a / b for exact coefficients, in canonical form."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _exact(a if b == 1 else Fraction(a, b))


class Polynomial:
    """Immutable sparse polynomial; do not mutate `terms` after construction.

    Every coefficient is in the canonical form of `_exact`: an int when it
    is integral, a Fraction otherwise.  Since 2 == Fraction(2), hash(2) ==
    hash(Fraction(2)) and str(2) == str(Fraction(2)), equality, hashing and
    every rendering are those of all-Fraction coefficients.
    """

    __slots__ = ("nv", "nq", "terms", "_hash", "_lead")

    def __init__(self, nv: int, nq: int = 0, terms: Optional[dict] = None):
        self.nv = nv
        self.nq = nq
        clean = {}
        if terms:
            for mon, coeff in terms.items():
                c = _exact(coeff)
                if c:
                    clean[mon] = c
        self.terms = clean
        self._hash = None
        self._lead = None  # leading monomial, found on first use

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero(nv: int, nq: int = 0) -> "Polynomial":
        return Polynomial(nv, nq)

    @staticmethod
    def const(nv: int, value, nq: int = 0) -> "Polynomial":
        mon = ((0,) * nv, (0,) * nq)
        return Polynomial(nv, nq, {mon: value})

    @staticmethod
    def variable(nv: int, i: int, nq: int = 0) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(nv))
        return Polynomial(nv, nq, {(exps, (0,) * nq): 1})

    @staticmethod
    def linear(nv: int, coeffs: Sequence, nq: int = 0) -> "Polynomial":
        if len(coeffs) != nv:
            raise PolyError(f"coeffs has length {len(coeffs)}, not nv = {nv}")
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = tuple(1 if j == i else 0 for j in range(nv))
                terms[(exps, (0,) * nq)] = c
        return Polynomial(nv, nq, terms)

    @staticmethod
    def novikov(nv: int, nq: int, q_exps: Sequence[int]) -> "Polynomial":
        return Polynomial(nv, nq, {((0,) * nv, tuple(q_exps)): 1})

    # ---- ring structure ------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.nv != other.nv or self.nq != other.nq:
            raise PolyError("mixing polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nv, other, self.nq)
        self._check(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            s = terms.get(mon, 0) + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        return Polynomial(self.nv, self.nq, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.nv, self.nq, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nv, other, self.nq)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _exact(other)
            if not c:
                return Polynomial.zero(self.nv, self.nq)
            return Polynomial(self.nv, self.nq,
                              {m: c * v for m, v in self.terms.items()})
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = _mon_mul(m1, m2)
                s = terms.get(mon, 0) + c1 * c2
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        return Polynomial(self.nv, self.nq, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        return power_product(((self, k),), self.nv, self.nq)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = Polynomial.const(self.nv, other, self.nq)
            else:
                return NotImplemented
        return (self.nv, self.nq, self.terms) == (other.nv, other.nq, other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nv, self.nq, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # ---- inspection ----------------------------------------------------
    def psi_degree(self) -> int:
        """Maximal total psi degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m[0]) for m in self.terms)

    def is_psi_homogeneous(self) -> bool:
        degs = {sum(m[0]) for m in self.terms}
        return len(degs) <= 1

    def has_q(self) -> bool:
        return any(any(m[1]) for m in self.terms)

    def leading_monomial(self) -> tuple:
        if self._lead is None:
            if not self.terms:
                raise PolyError("zero polynomial has no leading monomial")
            self._lead = max(self.terms, key=monomial_key)
        return self._lead

    def leading_coefficient(self) -> int | Fraction:
        return self.terms[self.leading_monomial()]

    def primitive(self) -> tuple:
        """(b, num, den): self = num / den * b for b with integer coefficients
        of content 1 and num, den > 0 coprime ints; (0, 1, 1) for zero."""
        ints, num, den = _primitive(self.terms.values())
        if num == den == 1:  # int coefficients of content 1: self is b
            return self, 1, 1
        return Polynomial(self.nv, self.nq, dict(zip(self.terms, ints))), num, den

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]),
                      reverse=True)

    def linear_coefficients(self) -> tuple:
        """Coefficient vector of a degree <= 1 element of W (no constant part)."""
        coeffs = [0] * self.nv
        for (p, q), c in self.terms.items():
            if any(q) or sum(p) != 1:
                raise PolyError("not a linear form in the psi variables")
            coeffs[p.index(1)] = c
        return tuple(coeffs)

    def with_q(self, nq: int) -> "Polynomial":
        """Embed into the ring with nq Novikov coordinates."""
        if self.nq == nq:
            return self
        if self.nq != 0:
            raise PolyError("polynomial already carries Novikov exponents")
        zero = (0,) * nq
        return Polynomial(self.nv, nq, {(p, zero): c for (p, _), c in self.terms.items()})

    def map_q(self, fn: Callable[[tuple], tuple], nq: int) -> "Polynomial":
        """Re-coordinatize the Novikov exponents via fn."""
        terms = {}
        for (p, q), c in self.terms.items():
            mon = (p, tuple(fn(q)))
            terms[mon] = terms.get(mon, 0) + c
        return Polynomial(self.nv, nq, terms)

    def __repr__(self):
        return f"Polynomial({self.to_str()})"

    def to_str(self, q_names: Optional[Sequence[str]] = None) -> str:
        """Deterministic rendering, terms in descending monomial order."""
        if q_names is None:
            q_names = [f"q{j + 1}" for j in range(self.nq)]
        names = [f"psi{i + 1}" for i in range(self.nv)] + list(q_names)
        return signed_sum((c, monomial_str(names, p + q))
                          for (p, q), c in self.sorted_terms())


def power_product(pairs: Iterable[tuple], nv: int, nq: int = 0) -> Polynomial:
    """prod p^k over (Polynomial, k) pairs of the ring with nv psi and nq
    Novikov variables, on packed monomials (Monagan-Pearce, CASC 2007).

    Each factor's exponents are packed relative to its least exponent in
    each variable, so negative Novikov exponents pack too, into one int with
    a field per variable wide enough for sum k * span, the most a partial
    product reaches: a product of monomials is an int addition that never
    carries between fields.  A one-term factor only shifts the exponents
    and scales, so a product of monomials packs nothing.  Powers run by
    binary powering on int-keyed dicts and the result is unpacked once.  A
    negative k raises PolyError."""
    offset, room, scale, factors = [0] * (nv + nq), [0] * (nv + nq), 1, []
    for p, k in pairs:
        if k < 0:
            raise PolyError("negative power of a polynomial")
        if p.nv != nv or p.nq != nq:
            raise PolyError("mixing polynomials from different rings")
        if not k:
            continue
        if not p.terms:
            scale = 0
        elif len(p.terms) == 1:
            ((e, q), c), = p.terms.items()
            offset = [o + k * x for o, x in zip(offset, e + q)]
            scale *= c ** k
        else:
            exps = [e + q for e, q in p.terms]
            lo = []
            for v, col in enumerate(zip(*exps)):
                low = min(col)
                lo.append(low)
                offset[v] += k * low
                room[v] += k * (max(col) - low)
            factors.append((exps, lo, p.terms.values(), k))
    if not factors or not scale:
        return Polynomial(nv, nq, {(tuple(offset[:nv]), tuple(offset[nv:])): scale})
    widths = [r.bit_length() for r in room]
    shifts = [0, *itertools.accumulate(widths[:-1])]
    product = {0: scale}
    for exps, lo, coeffs, k in factors:
        base = {sum((x - low) << s for x, low, s in zip(e, lo, shifts)): c
                for e, c in zip(exps, coeffs)}
        product = _packed_mul(product, _packed_power(base, k))
    columns = [[(key >> s & (1 << w) - 1) + o for key in product]
               for s, w, o in zip(shifts, widths, offset)]
    psi = zip(*columns[:nv]) if nv else itertools.repeat(())
    q = zip(*columns[nv:]) if nq else itertools.repeat(())
    return Polynomial(nv, nq, dict(zip(zip(psi, q), product.values())))


def _packed_power(a: dict, k: int) -> dict:
    """a^k for packed terms a and k >= 1, by binary powering."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else _packed_mul(result, a)
        k >>= 1
        if not k:
            return result
        a = _packed_mul(a, a)


def _packed_mul(a: dict, b: dict) -> dict:
    """The product of packed terms; a zero sum stays, the constructor drops it."""
    out = {}
    get = out.get
    right = list(b.items())
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


def monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
    """Render prod name^e as ``a*b^2``; the empty product renders as ''."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)


def rational_str(x) -> str:
    """``str(x)`` of an int or Fraction, however many digits it has.

    Python refuses ``str`` of an int above a process-wide digit limit (4300
    by default), which guards parsing text; a Decimal built from an int is
    exact and renders under no such limit.  Results are computed, not read,
    so they may be longer.
    """
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def echo(value, quote: bool = True) -> str:
    """``repr(value)``, or a string as it stands when not quote, cut to 48
    characters, for a one-line error message; a value holding an int past
    Python's digit limit echoes as ``...``."""
    try:
        text = repr(value) if quote else value
    except ValueError:
        return "..."
    return text if len(text) <= 48 else text[:48] + "..."


def signed_sum(terms: Iterable[tuple]) -> str:
    """Render (coefficient, symbol) terms as ``a - 2*b + c``.

    The first term keeps its sign, later ones are joined by ``+ `` or ``- ``;
    unit coefficients are dropped before a symbol, and no terms render as 0.
    """
    chunks = []
    for c, sym in terms:
        mag = abs(c)
        if not sym:
            body = rational_str(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{rational_str(mag)}*{sym}"
        sign = ("+ " if c > 0 else "- ") if chunks else ("" if c > 0 else "-")
        chunks.append(sign + body)
    return " ".join(chunks) or "0"


# ---- ideals and Groebner bases ------------------------------------------

@dataclass(frozen=True)
class Ideal:
    generators: tuple
    nv: Optional[int] = None  # needed only when the generator list is empty

    def __post_init__(self):
        if any(not g for g in self.generators):
            raise PolyError("ideal generators must be nonzero")
        if self.generators and self.nv is None:
            object.__setattr__(self, "nv", self.generators[0].nv)


@dataclass(frozen=True)
class GroebnerBasis:
    polys: tuple
    nv: Optional[int] = None

    def __post_init__(self):
        if self.polys and self.nv is None:
            object.__setattr__(self, "nv", self.polys[0].nv)


def _require_nonnegative_q(polys: Iterable[Polynomial]):
    for g in polys:
        for (_, q) in g.terms:
            if any(e < 0 for e in q):
                raise UnsupportedNovikovShape(
                    "Novikov exponents are not nonnegatively coordinatized; "
                    "re-express them in a unimodular effective basis first")


def normal_form(p: Polynomial, gb) -> Polynomial:
    """Complete division remainder of p modulo a (Groebner) basis: top-down,
    each term cancelled by the first basis element whose leading monomial
    divides it.  The division runs fraction-free on the primitive integer
    multiples of p and of the basis (`_pseudo_remainder`), on packed
    monomials (`_Packing`, `_widening`), and the scale it collects is
    divided out once, at the end.  Novikov exponents must be nonnegative."""
    basis = [g for g in (gb.polys if isinstance(gb, GroebnerBasis) else gb) if g]
    _require_nonnegative_q([p, *basis])
    ints, num, den = p.primitive()

    def run(packing):
        pack = packing.pack
        rules = [packing.rule({pack(m): c for m, c in g.terms.items()}) for g in basis]
        r, scale = _pseudo_remainder({pack(m): c for m, c in ints.terms.items()}, rules, packing)
        return [(packing.unpack(m), c) for m, c in r.items()], scale

    # the division never raises a psi degree; a q degree may grow
    remainder, scale = _widening(run, p.nv, p.nq, 2 * max(map(_degree, [p, *basis])))
    den *= scale
    return Polynomial(p.nv, p.nq, {m: _div(num * c, den) for m, c in remainder})


class _Overflow(PolyError):
    """A packed monomial past its packing's limit; `_widening` widens it."""


class _Packing:
    """(psi, q) monomials of nonnegative exponents as ints whose int order is
    monomial_key's block grevlex order (Monagan-Pearce, CASC 2007; JSC 2011).
    From the top, w-bit fields hold the psi degree, B - e_nv, ..., B - e_1
    and, when nq > 0, the q degree, B - q_nq, ..., B - q_1, for B = limit =
    2^(w-1) - 1, at least the limit asked for.  A monomial fits when both
    degrees are at most B; then the top bit of every field, its guard, is 0.
    With offset the int of B in every exponent field, a product is a + b -
    offset and a cofactor shift is m - lead + t.  Each field of such a result
    of fitting ints lies in [-B, 2B], so the lowest field out of range shows
    its guard: r fits exactly when r & overflow is 0, and no borrow hides a
    degree overflow.  a divides b exactly when no exponent field of (a & mask
    | guard) - (b & mask) borrows its guard: a divisor's complemented
    exponents are the larger.  `Polynomial` keeps tuple storage."""

    def __init__(self, nv: int, limit: int, nq: int = 0):
        width = max(limit, 1).bit_length() + 1
        self.limit, self._field = (1 << width - 1) - 1, (1 << width) - 1
        fields = range(0, (nv + nq + 1 + (nq > 0)) * width, width)  # from the bottom
        self._q, self._q_at = fields[:nq], fields[nq]  # exponent shifts, degree shift
        self._psi, self._psi_at = fields[nq + (nq > 0):-1], fields[-1]
        ones = sum(1 << s for s in (*self._psi, *self._q))  # 1 in every exponent field
        self.offset, self.mask = self.limit * ones, self._field * ones
        self.guard = (self.limit + 1) * ones
        self.overflow = (self.limit + 1) * sum(1 << s for s in fields)

    def pack(self, mon: tuple) -> int:
        p, q = mon
        dp, dq = sum(p), sum(q)
        if dp > self.limit or dq > self.limit:
            raise _Overflow(f"degree above the packing limit {self.limit} in {mon}")
        return (self.offset + (dp << self._psi_at) + (dq << self._q_at)
                - sum(map(operator.lshift, p, self._psi)) - sum(map(operator.lshift, q, self._q)))

    def unpack(self, key: int) -> tuple:
        limit, field = self.limit, self._field
        return (tuple([limit - (key >> s & field) for s in self._psi]),
                tuple([limit - (key >> s & field) for s in self._q]))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise, the smaller complemented exponent; _Overflow past the limit."""
        limit, field, key = self.limit, self._field, 0
        for shifts, at in ((self._psi, self._psi_at), (self._q, self._q_at)):
            degree = 0
            for s in shifts:
                x, y = a >> s & field, b >> s & field
                if y < x:
                    x = y
                key += x << s
                degree += limit - x
            if degree > limit:
                raise _Overflow(f"lcm degree above the packing limit {limit}")
            key += degree << at
        return key

    def divides(self, a: int, b: int) -> bool:
        return ((a & self.mask | self.guard) - (b & self.mask)) & self.guard == self.guard

    def rule(self, terms: dict) -> tuple:
        """(lead & mask | guard, lead, ints) for nonzero packed terms: the
        divisor form of the lead that the division tests, and the primitive
        integer multiple of the terms with a positive coefficient at the
        lead.  The one form of a divisor in the fraction-free division, and
        of an element the Buchberger keeps."""
        lead = max(terms)
        ints = _primitive(terms.values())[0]
        if terms[lead] < 0:
            ints = [-x for x in ints]
        return lead & self.mask | self.guard, lead, dict(zip(terms, ints))


def _widening(run: Callable, nv: int, nq: int, limit: int):
    """run(packing) on a _Packing of nv psi and nq Novikov variables sized to
    limit, and while it raises _Overflow, on one two bits wider per field."""
    while True:
        packing = _Packing(nv, limit, nq)
        try:
            return run(packing)
        except _Overflow:
            limit = 4 * packing.limit


def _degree(g: Polynomial) -> int:
    return max(map(sum, itertools.chain.from_iterable(g.terms)), default=0)


def top_functional(gb: GroebnerBasis, top: tuple) -> tuple:
    """(value, pack): value(pack(m)) is the coefficient of the psi monomial
    top in NF(m), for psi exponents m of top's degree whose graded piece top
    spans alone, and gb Novikov-free.  pack(m) is m's int in a _Packing
    sized to top's degree, less its offset, so pack(a) + pack(b) is pack(a
    * b); each basis element that can divide such an m is read once through
    `_Packing.rule`, as its primitive integer multiple, since a normal form
    does not see the scale of a divisor.  A normal form is linear and unique
    (CLO ch. 2 §6), so each monomial m is reduced once, by the first element
    whose lead divides it (the _Packing mask test), and is memoized for the
    life of value; one reduced by a bare monomial is 0.  Each call keeps an
    explicit stack and its own pending tails; meeting a standard monomial
    other than top, or a monomial past the packing, raises PolyError."""
    degree = sum(top)
    packing = _Packing(gb.nv, degree)
    offset, mask, guard, overflow = packing.offset, packing.mask, packing.guard, packing.overflow

    def pack(exps: Sequence[int]) -> int:
        return packing.pack((exps, ())) - offset

    rules = []
    for g in gb.polys:
        if sum(g.leading_monomial()[0]) <= degree:
            high, lm, ints = packing.rule({packing.pack(m): c for m, c in g.terms.items()})
            rules.append((high, lm - offset, ints[lm],
                          [(m - offset, c) for m, c in ints.items() if m != lm]))
    memo = {pack(top): 1}

    def value(mon: int) -> int | Fraction:
        if mon in memo:
            return memo[mon]
        stack = [mon]
        tails = {}  # m -> (tail of the rule reducing m, shifted; its lead coefficient)
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            if m not in tails:
                low = m + offset
                if low & overflow:
                    raise PolyError(f"monomial above the packing limit {packing.limit}")
                low &= mask
                for high, lm, lc, tail in rules:
                    if (high - low) & guard == guard:
                        break
                else:
                    raise PolyError(f"standard monomial {packing.unpack(m + offset)[0]} "
                                    f"other than {top}")
                if not tail:
                    memo[m] = 0
                    stack.pop()
                    continue
                tails[m] = ([(m - lm + t, c) for t, c in tail], lc)
            tail, lc = tails[m]
            missing = [t for t, _ in tail if t not in memo]
            if missing:
                stack.extend(missing)  # every tail monomial is smaller than m
                continue
            memo[m] = _div(-sum(c * memo[t] for t, c in tail), lc)
            stack.pop()
        return memo[mon]

    return value, pack


def _pseudo_spoly(f: dict, lf: int, g: dict, lg: int, lcm: int, overflow: int) -> dict:
    """The S-polynomial of packed integer terms with positive leads, times
    the positive integer lc(f) lc(g) / gcd: no quotient of coefficients.  A
    term past the packing raises _Overflow; a zero sum is dropped only after
    that test, so two such terms cannot cancel unseen."""
    k = math.gcd(f[lf], g[lg])
    out = {lcm - lf + m: g[lg] // k * c for m, c in f.items()}
    for m, c in g.items():
        m += lcm - lg
        out[m] = out.get(m, 0) - f[lf] // k * c
    if any(m & overflow for m in out):
        raise _Overflow("S-polynomial term past the packing")
    return {m: c for m, c in out.items() if c}


def _pseudo_remainder(terms: dict, rules: list, packing: _Packing) -> tuple:
    """(r, k): k * R = r for the complete division remainder R of packed
    integer terms modulo `_Packing.rule`s (integer terms with a positive
    lead coefficient), top-down from a heap of negated ints, each term
    cancelled by the first rule whose lead divides it.  Where a division
    over Q subtracts c / lc times the shifted rule, this scales the pending
    terms and the remainder by lc / gcd(c, lc) and subtracts an integer
    multiple, so no coefficient leaves Z; k > 0 is the product of those
    scales.  A new term past the packing raises _Overflow."""
    mask, guard, overflow = packing.mask, packing.guard, packing.overflow
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder, total = {}, 1
    while heap:
        mon = -heapq.heappop(heap)
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        low = mon & mask
        for high, lm, g in rules:
            if (high - low) & guard == guard:
                lc = g[lm]
                k = math.gcd(coeff, lc)
                scale, factor = lc // k, coeff // k
                if scale != 1:
                    work = {m: c * scale for m, c in work.items()}
                    remainder = {m: c * scale for m, c in remainder.items()}
                    total *= scale
                shift = mon - lm
                for m2, c2 in g.items():
                    if m2 == lm:
                        continue
                    tgt = shift + m2
                    if tgt not in work:
                        if tgt & overflow:
                            raise _Overflow("reduction term past the packing")
                        heapq.heappush(heap, -tgt)
                    s = work.get(tgt, 0) - factor * c2
                    if s:
                        work[tgt] = s
                    else:
                        del work[tgt]
                break
        else:
            remainder[mon] = coeff
    return remainder, total


def groebner(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis (Buchberger, normal pair selection).

    Pairs wait in a heap, smallest lcm first, ties by index.  A pair is
    skipped by the coprime criterion or by the chain criterion: another lead
    divides the lcm and its pairs with both are done (CLO ch. 2 §10).  The
    result is interreduced, monic, sorted by leading monomial: canonical.

    The work is fraction-free: each element is kept as its primitive
    integer multiple with a positive lead, S-polynomials take the integer
    cofactors lc_g / k and lc_f / k, and remainders come from the integer
    pseudo-reduction `_pseudo_remainder` (Collins, JACM 1967).  Every
    element is a positive multiple of the monic one a Fraction Buchberger
    keeps, so the leads, the pairs and the basis are the same; the basis is
    made monic only when it is returned.  Monomials are packed ints
    (`_Packing`), so the pair heap is keyed by the packed lcm; a run whose
    monomials outgrow the packing starts over on a wider one (`_widening`).
    """
    gens = ideal.generators
    if not gens:
        return GroebnerBasis((), ideal.nv)
    _require_nonnegative_q(gens)
    nv, nq = gens[0].nv, gens[0].nq

    def run(packing):
        mask, guard, pack = packing.mask, packing.guard, packing.pack
        # packing.rule of each element, in the order they join; a duplicate
        # generator's S-pair reduces to 0 and minimalization drops the copy
        rules = [packing.rule({pack(m): c for m, c in g.terms.items()}) for g in gens]
        highs = []
        heap, pending = [], set()  # pending pairs, stored in both orders

        def add_pairs(k):
            highs.append(rules[k][0])
            for i in range(k):
                heapq.heappush(heap, (packing.lcm(rules[i][1], rules[k][1]), i, k))
                pending.update(((i, k), (k, i)))

        for k in range(len(rules)):
            add_pairs(k)
        while heap:
            lcm, i, j = heapq.heappop(heap)
            pending -= {(i, j), (j, i)}
            (_, li, fi), (_, lj, fj) = rules[i], rules[j]
            if li + lj - packing.offset == lcm:
                continue  # coprime criterion
            low = lcm & mask
            for k, high in enumerate(highs):
                if ((high - low) & guard == guard and k != i and k != j
                        and (i, k) not in pending and (j, k) not in pending):
                    break  # chain criterion
            else:
                spoly = _pseudo_spoly(fi, li, fj, lj, lcm, packing.overflow)
                r, _ = _pseudo_remainder(spoly, rules, packing)
                if r:
                    rules.append(packing.rule(r))
                    add_pairs(len(rules) - 1)
        # minimalize: drop elements whose leading term is divisible by another's
        minimal = []
        for rule in sorted(rules, key=operator.itemgetter(1)):
            if not any(packing.divides(lm, rule[1]) for _, lm, _ in minimal):
                minimal.append(rule)
        # interreduce tails: no other lead divides g's leading term, which
        # therefore stays first, so the result is sorted; then make it monic
        polys = []
        for idx, (_, lead, g) in enumerate(minimal):
            r, _ = _pseudo_remainder(g, minimal[:idx] + minimal[idx + 1:], packing)
            lc = r[lead]
            p = Polynomial(nv, nq, {packing.unpack(m): _div(c, lc) for m, c in r.items()})
            p._lead = packing.unpack(lead)
            polys.append(p)
        return GroebnerBasis(tuple(polys))

    # an element's degree seldom passes the sum of the generators' (a complete
    # intersection's regularity), and an lcm joins two elements
    return _widening(run, nv, nq, 2 * sum(map(_degree, gens)))


def _capped_exponents(caps: Sequence[int], degree: int):
    """Exponent vectors of the given degree with e_i < caps[i], lex-descending.

    A prefix is cut as soon as the degree left exceeds what the remaining
    caps can hold; a negative degree yields nothing.
    """
    nv = len(caps)
    room = [0] * (nv + 1)  # room[i]: the largest degree e_i, ..., e_nv can hold
    for i in reversed(range(nv)):
        room[i] = room[i + 1] + caps[i] - 1
    exps = [0] * nv

    def walk(i, left):
        if i == nv:
            yield tuple(exps)
            return
        for e in range(min(left, caps[i] - 1), max(0, left - room[i + 1]) - 1, -1):
            exps[i] = e
            yield from walk(i + 1, left - e)

    if 0 <= degree <= room[0]:
        yield from walk(0, degree)


def standard_monomials(gb: GroebnerBasis, degree: int) -> tuple:
    """Monomials of the given degree outside the leading-term ideal.

    The one enumerator of a graded piece of Sym*W / ideal, lex-descending on
    the exponent vectors; graded dimensions and top-degree generators are read
    off its output.  The walk stays inside the caps m_i of the pure-power
    leads x_i^m_i, which an Artinian quotient has for every variable (CLO
    ch. 5 §3); a variable without one is uncapped.
    """
    for g in gb.polys:
        if not g.is_psi_homogeneous() or g.has_q():
            raise NonHomogeneousIdeal("standard monomials require a homogeneous psi ideal")
    nv = gb.nv
    if nv is None:
        raise PolyError("Groebner basis does not record its variable count")
    leads = [g.leading_monomial()[0] for g in gb.polys]
    caps = [degree + 1] * nv
    for lm in leads:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            caps[i] = min(caps[i], lm[i])
    return tuple(mono for mono in _capped_exponents(caps, degree)
                 if not any(all(x <= y for x, y in zip(lm, mono)) for lm in leads))


def quotient_dims(gb: GroebnerBasis, up_to_degree: int) -> tuple:
    """Graded dimensions of Sym*W / ideal, i.e. standard monomial counts."""
    return tuple(len(standard_monomials(gb, d)) for d in range(up_to_degree + 1))


def sole_generator(monos: tuple) -> Optional[Polynomial]:
    """The monomial spanning a graded piece with standard monomials monos,
    or None when the piece is not one-dimensional."""
    if len(monos) != 1:
        return None
    return Polynomial(len(monos[0]), 0, {(monos[0], ()): 1})


# ---- determinants ---------------------------------------------------------

def det(matrix: Sequence[Sequence]):
    """Exact determinant of a square matrix of polynomials or integers, with
    the Leibniz sign in the given row order.

    Laplace expansion along the rows, zero entries skipped: the minor on rows
    k.. and a tuple of columns is computed once, so at most 2^n minors and no
    division.  A diagonal matrix (every tangent bundle's A_c) takes none: the
    expansion's own product a_0 * (a_1 * ...), terms in the same order.
    """
    n = len(matrix)
    if n == 0:
        raise NonSquare("empty matrix")
    if any(len(row) != n for row in matrix):
        raise NonSquare("matrix is not square")
    if not any(x for i, row in enumerate(matrix) for j, x in enumerate(row) if i != j):
        return functools.reduce(lambda p, a: a * p, [r[i] for i, r in enumerate(matrix)][::-1])
    zero = matrix[0][0] * 0
    memo = {}

    def minor(cols: tuple):
        k = n - len(cols)
        if len(cols) == 1:
            return matrix[k][cols[0]]
        if cols not in memo:
            total = zero
            for j, c in enumerate(cols):
                if matrix[k][c]:
                    term = matrix[k][c] * minor(cols[:j] + cols[j + 1:])
                    total = total + (term if j % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


# ---- parsing --------------------------------------------------------------

_MAX_NESTING = 100  # parentheses plus unary minus signs; keeps recursion bounded
_MAX_HEIGHT = 100_000  # bits of a coefficient's numerator and denominator


def _height(p: Polynomial) -> float:
    """log2(N * D) for the common denominator D and the sum N of the numerators'
    absolute values over it: it bounds the bits of every coefficient, adds up
    under products, and is 0 for 0, 1 and -1."""
    if not p:
        return 0.0
    b, g, den = _primitive(p.terms.values())
    return math.log2(sum(map(abs, b)) * g) + math.log2(den)


def parse_polynomial(text: str, d_symbols: Sequence[Polynomial],
                     max_degree: Optional[int] = None) -> Polynomial:
    """Parse the user-facing polynomial syntax.

    Terms like ``3/2*D1^2*D3 - D4^3``; ``D<i>`` is the class of the i-th
    ray divisor (1-based), taken from the supplied symbol table.  Whitespace
    is insignificant.  Nesting deeper than _MAX_NESTING is a ParseError, and
    so is a ``^`` or ``*`` whose result would exceed max_degree in psi or
    _MAX_HEIGHT in coefficient bits: the checks come before the product is
    expanded.
    """
    if not d_symbols:
        raise PolyError("no divisor symbols supplied")
    nv, nq = d_symbols[0].nv, d_symbols[0].nq

    tokens = _tokenize(text)  # ends in the "end" token, which no rule takes past
    pos = depth = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def check(degree: int, bits: float, k: int, at: int):
        # a product of the given degree, of k factors of the given height;
        # k may be too large for a float
        if max_degree is not None and degree > max_degree:
            raise ParseError(f"degree {echo(degree)} exceeds the ceiling {max_degree}", at)
        if bits and k > _MAX_HEIGHT / bits:
            raise ParseError(f"coefficients would exceed {_MAX_HEIGHT} bits", at)

    def parse_expr():
        sign = take()[1] if tokens[pos][1] in ("+", "-") else "+"
        total = parse_term() if sign == "+" else -parse_term()
        while tokens[pos][1] in ("+", "-"):
            op = take()[1]
            nxt = parse_term()
            total = total + (nxt if op == "+" else -nxt)
        return total

    def parse_term():
        result = parse_factor()
        while tokens[pos][1] == "*":
            at = take()[2]
            factor = parse_factor()
            if result and factor:  # degrees add: Q[psi] has no zero divisors
                check(result.psi_degree() + factor.psi_degree(),
                      _height(result) + _height(factor), 1, at)
            result = result * factor
        return result

    def parse_factor():
        base = parse_atom()
        if tokens[pos][1] != "^":
            return base
        at = take()[2]
        kind, val, exp_at = take()
        if kind != "num" or "/" in val:
            raise ParseError("exponent must be a nonnegative integer", exp_at)
        k = _digits(val, exp_at)
        if base:
            check(k * base.psi_degree(), _height(base), k, at)
        return base ** k

    def parse_atom():
        nonlocal depth
        kind, val, at = take()
        if kind == "num":
            num, slash, den = val.partition("/")
            if not slash:
                return Polynomial.const(nv, _digits(num, at), nq)
            den = _digits(den, at + len(num) + 1)
            if den == 0:
                raise ParseError("zero denominator", at)
            return Polynomial.const(nv, Fraction(_digits(num, at), den), nq)
        if kind == "sym":
            index = _digits(val[1:], at + 1)
            if index < 1 or index > len(d_symbols):
                raise ParseError(f"unknown symbol D{echo(index)}", at)
            return d_symbols[index - 1]
        if val in ("(", "-"):
            if depth == _MAX_NESTING:
                raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", at)
            depth += 1
            if val == "-":
                inner = -parse_atom()
            else:
                inner = parse_expr()
                _, close, at = take()
                if close != ")":
                    raise ParseError("expected ')'", at)
            depth -= 1
            return inner
        raise ParseError(f"unexpected token {echo(val)}" if val else "unexpected end of input", at)

    result = parse_expr()
    kind, val, at = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected token {echo(val)}", at)
    return result


# \d is the set int() reads: the Unicode decimal digits, no superscripts
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*^()])|(?P<sym>D\d*)|(?P<num>\d+(?:/\d*)?)"
                    r"|(?P<end>\Z)|(?P<char>\S))")


def _tokenize(text: str) -> list:
    """(kind, text, position) triples, the last one ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        val, at = m[kind], m.start(kind)
        if kind == "char":
            raise ParseError(f"unexpected character {val!r}", at)
        if val == "D":
            raise ParseError("symbol 'D' needs a numeric index", at)
        if val[-1:] == "/":
            raise ParseError("malformed rational number", m.end(kind) - 1)
        tokens.append((kind, val, at))
        if kind == "end":
            return tokens


def _digits(run: str, at: int) -> int:
    """The int of a run of decimal digits; one longer than Python's int digit
    limit (sys.set_int_max_str_digits) is refused as a ParseError."""
    try:
        return int(run)
    except ValueError:
        raise ParseError(f"{len(run)}-digit number exceeds Python's int digit limit", at) from None
