"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[psi_1..psi_nv] optionally extended by Novikov
variables; a term is keyed by a pair (psi exponents, q exponents) and its
coefficient is a Fraction.  The q exponents are integer vectors (curve-class
coordinates in the geometric layers) and may be negative in storage; the
Groebner routines insist on nonnegative q exponents.

The only monomial order used is graded reverse lexicographic with
psi_1 > psi_2 > ..., with q exponents compared the same way in a second
block (so classical monomials dominate Novikov ones of equal psi part).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence


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


def _heap_key(mon: tuple) -> tuple:
    """Negated monomial_key: a min-heap on it pops the largest monomial first."""
    return tuple(-k for k in monomial_key(mon))


def _mon_mul(a: tuple, b: tuple) -> tuple:
    return (tuple(x + y for x, y in zip(a[0], b[0])),
            tuple(x + y for x, y in zip(a[1], b[1])))


def _mon_divides(a: tuple, b: tuple) -> bool:
    return (all(x <= y for x, y in zip(a[0], b[0]))
            and all(x <= y for x, y in zip(a[1], b[1])))


def _mon_div(a: tuple, b: tuple) -> tuple:
    return (tuple(x - y for x, y in zip(a[0], b[0])),
            tuple(x - y for x, y in zip(a[1], b[1])))


def _mon_lcm(a: tuple, b: tuple) -> tuple:
    return (tuple(max(x, y) for x, y in zip(a[0], b[0])),
            tuple(max(x, y) for x, y in zip(a[1], b[1])))


class Polynomial:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("nv", "nq", "terms", "_hash", "_lead")

    def __init__(self, nv: int, nq: int = 0, terms: Optional[dict] = None):
        self.nv = nv
        self.nq = nq
        clean = {}
        if terms:
            for mon, coeff in terms.items():
                c = Fraction(coeff)
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
        return Polynomial(nv, nq, {mon: Fraction(value)})

    @staticmethod
    def variable(nv: int, i: int, nq: int = 0) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(nv))
        return Polynomial(nv, nq, {(exps, (0,) * nq): Fraction(1)})

    @staticmethod
    def linear(nv: int, coeffs: Sequence, nq: int = 0) -> "Polynomial":
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = tuple(1 if j == i else 0 for j in range(nv))
                terms[(exps, (0,) * nq)] = Fraction(c)
        return Polynomial(nv, nq, terms)

    @staticmethod
    def novikov(nv: int, nq: int, q_exps: Sequence[int]) -> "Polynomial":
        return Polynomial(nv, nq, {((0,) * nv, tuple(q_exps)): Fraction(1)})

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
            c = Fraction(other)
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
        if k < 0:
            raise PolyError("negative power of a polynomial")
        result = Polynomial.const(self.nv, 1, self.nq)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        result = self * (Fraction(1) / self.leading_coefficient())
        result._lead = self._lead  # scaling keeps the leading monomial
        return result

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]),
                      reverse=True)

    def linear_coefficients(self) -> tuple:
        """Coefficient vector of a degree <= 1 element of W (no constant part)."""
        coeffs = [Fraction(0)] * self.nv
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

    def drop_q(self) -> "Polynomial":
        """Forget Novikov exponents (requires none present)."""
        if self.has_q():
            raise PolyError("polynomial has nonzero Novikov exponents")
        return Polynomial(self.nv, 0, {(p, ()): c for (p, _), c in self.terms.items()})

    def q_set_zero(self) -> "Polynomial":
        """Specialize all q^beta with beta != 0 to zero."""
        zero = (0,) * self.nq
        return Polynomial(self.nv, self.nq,
                          {m: c for m, c in self.terms.items() if m[1] == zero})

    def map_q(self, fn: Callable[[tuple], tuple], nq: int) -> "Polynomial":
        """Re-coordinatize the Novikov exponents via fn."""
        terms = {}
        for (p, q), c in self.terms.items():
            mon = (p, tuple(fn(q)))
            terms[mon] = terms.get(mon, 0) + c
        return Polynomial(self.nv, nq, terms)

    def __repr__(self):
        return f"Polynomial({self.to_str()})"

    def to_str(self, psi_names: Optional[Sequence[str]] = None,
               q_names: Optional[Sequence[str]] = None) -> str:
        """Deterministic rendering, terms in descending monomial order."""
        if psi_names is None:
            psi_names = [f"psi{i + 1}" for i in range(self.nv)]
        if q_names is None:
            q_names = [f"q{j + 1}" for j in range(self.nq)]
        names = list(psi_names) + list(q_names)
        return signed_sum((c, monomial_str(names, p + q))
                          for (p, q), c in self.sorted_terms())


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
    divides it.  Pending monomials wait in a heap, keyed once; cancelled
    entries are skipped."""
    basis = gb.polys if isinstance(gb, GroebnerBasis) else gb
    leads = [(g.leading_monomial(), g) for g in basis if g]
    work = dict(p.terms)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        mon = heapq.heappop(heap)[1]
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        for lm, g in leads:
            if _mon_divides(lm, mon):
                factor = coeff / g.terms[lm]
                shift = _mon_div(mon, lm)
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    tgt = _mon_mul(shift, m2)
                    if tgt not in work:
                        heapq.heappush(heap, (_heap_key(tgt), tgt))
                    s = work.get(tgt, 0) - factor * c2
                    if s:
                        work[tgt] = s
                    else:
                        del work[tgt]
                break
        else:
            remainder[mon] = coeff
    return Polynomial(p.nv, p.nq, remainder)


def top_functional(gb: GroebnerBasis, top: tuple) -> Callable[[tuple], Fraction]:
    """value(m): the coefficient of the monomial top in NF(m), for a monomial
    m of top's degree whose graded piece top spans alone.

    A normal form is linear and unique (CLO ch. 2 §6), so each monomial is
    reduced once, by the first basis element whose lead divides it, and its
    value is memoized for the life of the returned function.  The walk keeps
    an explicit stack; meeting a standard monomial other than top raises
    PolyError.
    """
    rules = [(g.leading_monomial(), g) for g in gb.polys if g]
    memo = {top: Fraction(1)}
    tails = {}  # m -> (tail of the rule reducing m, shifted; its lead coefficient)

    def value(mon: tuple) -> Fraction:
        if mon in memo:
            return memo[mon]
        stack = [mon]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            if m not in tails:
                for lm, g in rules:
                    if _mon_divides(lm, m):
                        break
                else:
                    raise PolyError(f"standard monomial {m} other than {top}")
                shift = _mon_div(m, lm)
                tails[m] = ([(_mon_mul(shift, m2), c2) for m2, c2 in g.terms.items()
                             if m2 != lm], g.terms[lm])
            tail, lc = tails[m]
            missing = [t for t, _ in tail if t not in memo]
            if missing:
                stack.extend(missing)  # every tail monomial is smaller than m
                continue
            memo[m] = -sum(c * memo[t] for t, c in tail) / lc
            del tails[m]
            stack.pop()
        return memo[mon]

    return value


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mon_lcm(lf, lg)
    tf = Polynomial(f.nv, f.nq, {_mon_div(lcm, lf): Fraction(1) / f.terms[lf]})
    tg = Polynomial(g.nv, g.nq, {_mon_div(lcm, lg): Fraction(1) / g.terms[lg]})
    return tf * f - tg * g


def groebner(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis (Buchberger, normal pair selection).

    Pairs wait in a heap, smallest lcm first, ties by index.  A pair is
    skipped by the coprime criterion or by the chain criterion: another lead
    divides the lcm and its pairs with both are done (CLO ch. 2 §10).  The
    result is interreduced, monic, sorted by leading monomial: canonical.
    """
    gens = [g for g in ideal.generators if g]
    if not gens:
        return GroebnerBasis((), ideal.nv)
    _require_nonnegative_q(gens)
    basis = []
    for g in gens:
        m = g.monic()
        if m not in basis:
            basis.append(m)
    leads = [g.leading_monomial() for g in basis]
    heap, pending = [], set()  # pending pairs, stored in both orders

    def add_pairs(k):
        for i in range(k):
            heapq.heappush(heap, (monomial_key(_mon_lcm(leads[i], leads[k])), i, k))
            pending.update(((i, k), (k, i)))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        pending -= {(i, j), (j, i)}
        lcm = _mon_lcm(leads[i], leads[j])
        if _mon_mul(leads[i], leads[j]) == lcm:
            continue  # coprime criterion
        if any(_mon_divides(lk, lcm) and k not in (i, j) and (i, k) not in pending
               and (j, k) not in pending for k, lk in enumerate(leads)):
            continue  # chain criterion
        r = normal_form(_spoly(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            leads.append(basis[-1].leading_monomial())
            add_pairs(len(basis) - 1)
    # minimalize: drop elements whose leading term is divisible by another's
    basis.sort(key=lambda g: monomial_key(g.leading_monomial()))
    minimal = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(_mon_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    # interreduce tails: no other lead divides g's leading term, which
    # therefore stays with coefficient 1, so the result is monic and sorted
    return GroebnerBasis(tuple(normal_form(g, minimal[:idx] + minimal[idx + 1:])
                               for idx, g in enumerate(minimal)))


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
    return Polynomial(len(monos[0]), 0, {(monos[0], ()): Fraction(1)})


# ---- determinants ---------------------------------------------------------

def det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of polynomials, with the Leibniz
    sign in the given row order.

    Laplace expansion along the rows, zero entries skipped: the minor on rows
    k.. and a tuple of columns is computed once, so at most 2^n minors and no
    division.
    """
    n = len(matrix)
    if n == 0:
        raise NonSquare("empty matrix")
    if any(len(row) != n for row in matrix):
        raise NonSquare("matrix is not square")
    zero = Polynomial.zero(matrix[0][0].nv, matrix[0][0].nq)
    memo = {}

    def minor(cols: tuple) -> Polynomial:
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
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    num = sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values())
    return math.log2(num) + math.log2(den)


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
    one = Polynomial.const(nv, 1, nq)

    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def check_degree(degree: int, at: int):
        if max_degree is not None and degree > max_degree:
            raise ParseError(f"degree {degree} exceeds the ceiling {max_degree}", at)

    def check_height(bits: float, k: int, at: int):
        # k factors of the given height; k may be too large for a float
        if bits and k > _MAX_HEIGHT / bits:
            raise ParseError(f"coefficients would exceed {_MAX_HEIGHT} bits", at)

    def parse_expr():
        kind, val, _ = peek()
        sign = -1 if kind == "op" and val == "-" else 1
        if kind == "op" and val in "+-":
            take()
        total = parse_term() * sign
        while True:
            kind, val, at = peek()
            if kind == "op" and val in "+-":
                take()
                nxt = parse_term()
                total = total + (nxt if val == "+" else -nxt)
            else:
                return total

    def parse_term():
        result = parse_factor()
        while True:
            kind, val, at = peek()
            if kind == "op" and val == "*":
                take()
                factor = parse_factor()
                if result and factor:  # degrees add: Q[psi] has no zero divisors
                    check_degree(result.psi_degree() + factor.psi_degree(), at)
                    check_height(_height(result) + _height(factor), 1, at)
                result = result * factor
            else:
                return result

    def parse_factor():
        base = parse_atom()
        kind, val, at = peek()
        if kind == "op" and val == "^":
            take()
            kind, val, exp_at = take()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", exp_at)
            k = int(val)
            if base:
                check_degree(k * base.psi_degree(), at)
                check_height(_height(base), k, at)
            return base ** k
        return base

    def parse_atom():
        nonlocal depth
        kind, val, at = take()
        if kind == "num":
            if "/" in val:
                num, den = val.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", at)
                return one * Fraction(int(num), int(den))
            return one * int(val)
        if kind == "sym":
            if val < 1 or val > len(d_symbols):
                raise ParseError(f"unknown symbol D{val}", at)
            return d_symbols[val - 1]
        if kind == "op" and val in "(-":
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
        raise ParseError(f"unexpected token {val!r}", at)

    result = parse_expr()
    kind, val, at = peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", at)
    return result


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed rational number", j)
                tokens.append(("num", text[i:k], i))
                i = k
            else:
                tokens.append(("num", text[i:j], i))
                i = j
            continue
        if ch == "D":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("symbol 'D' needs a numeric index", i)
            tokens.append(("sym", int(text[i + 1:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens
