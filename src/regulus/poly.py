"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent tuples to nonzero coefficients, tagged
with its coefficient ring and an ordered tuple of variable names.  ``terms``
keeps insertion order; ``sorted_terms`` and printing are in graded
lexicographic order, largest first, so ``parse(str(f)) == f``.

The module also holds the triangular machinery: ``TriangularPoint`` describes
a general closed point by a triangular system (g_1, ..., g_n), each g_i monic
in its main variable t_i and free of the later variables, optionally together
with a prime for points of arithmetic schemes.  ``triangular_divide`` is the
deterministic division that every downstream criterion builds on; it reduces
one dict of terms in place and forms no polynomial per step.
"""

from __future__ import annotations

from contextvars import ContextVar
from math import comb, lcm, log10, prod
from operator import add

from .errors import InvalidPoint, OracleResourceError, PolySyntaxError
from .record import FrozenRecord
from .rings import QQ, ZZ, PrimeField, check_derived, is_prime


def grlex_key(exps):
    """Sort key for graded lexicographic order (total degree, then left-to-right)."""
    return (sum(exps), exps)


def format_terms(ordered_terms, var_names, elem_str, compact=False):
    """Render (exponent, coefficient) pairs, already sorted, as an expression.

    A coefficient's sign is read from its text.  A text that starts with
    ``-`` prints as a subtraction of the rest when the term is a constant or
    the text is one term (it holds no `` + `` or `` - ``), so ``x - 2`` and
    ``y - a`` rather than ``x + -2``; any other keeps its sign inside
    parentheses, as in ``(-a + 1)*y``.
    """
    if not ordered_terms:
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    out = []
    for k, (exps, coeff) in enumerate(ordered_terms):
        factors = []
        for name, e in zip(var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mono = "*".join(factors)
        cs = elem_str(coeff)
        neg = cs[0] == "-" and not (mono and (" + " in cs or " - " in cs))
        if neg:
            cs = cs[1:]
        if mono:
            if cs == "1":
                body = mono
            elif any(ch in cs for ch in "+- *"):
                body = "(%s)*%s" % (cs, mono)
            else:
                body = "%s*%s" % (cs, mono)
        else:
            body = cs
        if k == 0:
            out.append("-" + body if neg else body)
        else:
            out.append((minus if neg else plus) + body)
    return "".join(out)


class MultiPoly:
    """Sparse polynomial over a fixed ring in a fixed tuple of variables.

    Over GF(p) (``ring.modulus`` set) the constructor is where a coefficient
    becomes canonical: it is reduced to [0, p), so arithmetic on the plain
    int coefficients never has to reduce."""

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring, vars, terms):
        self.ring = ring
        self.vars = tuple(vars)
        n = len(self.vars)
        m = ring.modulus
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError("exponent tuple has wrong length")
            if m:
                coeff %= m
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, vars):
        return cls(ring, vars, {})

    @classmethod
    def constant(cls, ring, vars, coeff):
        return cls(ring, vars, {(0,) * len(vars): coeff})

    @classmethod
    def variable(cls, ring, vars, index):
        exps = tuple(1 if k == index else 0 for k in range(len(vars)))
        return cls(ring, vars, {exps: ring.one()})

    # ---- ring structure -----------------------------------------------

    def _compat(self, other):
        if self.ring is not other.ring:
            raise ValueError("mixed coefficient rings")
        if self.vars != other.vars:
            raise ValueError("mixed variable tuples")

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = terms.get(exps)
            terms[exps] = coeff if cur is None else cur + coeff
        return MultiPoly(self.ring, self.vars, terms)

    def __neg__(self):
        return MultiPoly(self.ring, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compat(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                cur = terms.get(exps)
                terms[exps] = prod if cur is None else cur + prod
        return MultiPoly(self.ring, self.vars, terms)

    def __pow__(self, n: int):
        return _power(self, n, MultiPoly.__mul__)

    def scale(self, coeff):
        return MultiPoly(
            self.ring, self.vars, {e: c * coeff for e, c in self.terms.items()}
        )

    def shift(self, exps):
        """Multiply by the monomial with the given exponent tuple."""
        return MultiPoly(
            self.ring,
            self.vars,
            {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()},
        )

    # ---- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), self.ring.zero())

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def degree_in(self, index: int) -> int:
        return max((e[index] for e in self.terms), default=0)

    def coefficient_in(self, index: int, power: int) -> "MultiPoly":
        """The coefficient of t_index^power, as a polynomial with that
        variable's exponent zeroed."""
        terms = {}
        for e, c in self.terms.items():
            if e[index] == power:
                terms[e[:index] + (0,) + e[index + 1 :]] = c
        return MultiPoly(self.ring, self.vars, terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    # ---- hashing and display ------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ring == other.ring
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __str__(self):
        return format_terms(self.sorted_terms(), self.vars, self.ring.elem_str)

    def __repr__(self):
        return "MultiPoly(%s, %s)" % (",".join(self.vars), self)


def _power(f: MultiPoly, n: int, multiply) -> MultiPoly:
    """f^n by repeated squaring, each product formed by ``multiply``."""
    if n < 0:
        raise ValueError("negative exponent %d" % n)
    if n == 0:
        return MultiPoly.constant(f.ring, f.vars, f.ring.one())
    result = None
    while True:
        if n & 1:
            result = f if result is None else multiply(result, f)
        n >>= 1
        if not n:
            return result
        f = multiply(f, f)


def partial_derivative(f: MultiPoly, index: int) -> MultiPoly:
    """Formal partial derivative with respect to the variable at ``index``."""
    if not 0 <= index < len(f.vars):
        raise ValueError("variable index %d out of range" % index)
    terms = {}
    for exps, coeff in f.terms.items():
        e = exps[index]
        if e == 0:
            continue
        lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
        terms[lowered] = coeff * e
    return MultiPoly(f.ring, f.vars, terms)


# ---- expression parser ------------------------------------------------
#
# expr   := ['-'] term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := integer ('/' integer)? | identifier | '(' expr ')'
#
# The optional leading '-' and the rational literal (QQ only) are permissive
# extensions so canonical output always reparses; plain integer/identifier
# input is unchanged.  ``_Parser.expr`` reads a sum in one loop over the
# tokens, with no method call per token or per atom.  A term's leading run
# of atoms (literals and identifiers, each with an optional power) is read
# straight into one exponent list and coefficient and added to the sum's
# one dict of terms; from its first parenthesis on, the term is multiplied
# out factor by factor, and a parenthesis is the one place it recurses.

_INT, _IDENT, _OP, _END = "int", "ident", "op", "end"

# The parser recurses once per parenthesis level; deeper input is rejected
# as a syntax error before it can exhaust the interpreter's stack.
MAX_NESTING = 100

# Every exponent, and the total degree of every polynomial the parser forms,
# is at most MAX_DEGREE; every such polynomial has at most MAX_TERMS terms.
# Products and powers are checked before they are expanded, against a bound
# on the result; sums after, since they cost no more than their operands.
# Larger input is a syntax error rather than unbounded work (division peels
# one degree per step).
MAX_DEGREE = 2000
MAX_TERMS = 1000

# Every integer literal has at most MAX_DIGITS decimal digits, and so do the
# numerator and denominator of every ZZ or QQ coefficient the parser forms,
# under the same rule: products and powers against a bound (the product of
# the operands' L1 norms over a common denominator), sums after.  This keeps
# every number well inside what CPython converts to and from text.
MAX_DIGITS = 1000
_DIGITS_BOUND = 10**MAX_DIGITS

# The products that the parser multiplies out, each one inside a power
# included, cost at most MAX_PARSE_WORK units, counted before each one is
# formed: s*t units for factors of s and t terms, and over ZZ and QQ
# 1 + b // 256 times that, b the bits of the bound on the product's
# coefficients that ``check_size`` applies.  The count is totalled over every
# polynomial of a job (``jobfile.parse_job``), and per call for a library
# ``parse_poly``; past the limit the parse ends as a resource error (exit 3).
MAX_PARSE_WORK = 250_000
# the running count of the job being parsed, as a one-item list; outside
# jobfile.parse_job it is unset, and each parse counts from zero
_parse_work = ContextVar("_parse_work")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise PolySyntaxError(
                    "a literal of %d digits is above the limit of %d" % (j - i, MAX_DIGITS), i
                )
            tokens.append((_INT, text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_IDENT, text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((_OP, ch, i))
            i += 1
            continue
        raise PolySyntaxError("unexpected character %r" % ch, i)
    tokens.append((_END, "", n))
    return tokens


def _bound(c):
    return max(abs(c.numerator), c.denominator)  # 1 for c == 0


def _coefficient_bound(f):
    """The larger of f's common denominator D and the L1 norm of D*f.  The
    bound of a product is at most the product of the factors' bounds, and
    it bounds every numerator and denominator of the product."""
    cs = f.terms.values()
    den = lcm(*[c.denominator for c in cs])
    return max(den, sum([abs(c.numerator) * (den // c.denominator) for c in cs]))


class _Parser:
    """One expression's tokens.  ``expr`` reads a sum from ``self.pos`` on
    and leaves ``self.pos`` at the first token after it."""

    def __init__(self, text, vars, ring):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vars = tuple(vars)
        self.ring = ring
        self.one = ring.one()
        self.numeric = ring is ZZ or ring is QQ
        self.work = _parse_work.get([0])

    def expr(self):
        """A sum, read in one loop over its tokens and added term by term
        into one dict; a monomial leaves it as soon as its coefficient
        cancels.  A term's leading run of atoms is one exponent list and
        coefficient, each '*' checked as ``check_size`` checks the product
        of two monomials.  From its first parenthesized factor on, the term
        is a polynomial, and each later factor is multiplied in by
        ``multiply`` once ``check_size`` has passed the product."""
        tokens, vars, ring, numeric = self.tokens, self.vars, self.ring, self.numeric
        one, m, is_zero, check_bounds = self.one, ring.modulus, ring.is_zero, self.check_bounds
        i, terms, sign, pos = self.pos, {}, "+", None
        if tokens[i][1] == "-":
            i, sign = i + 1, "-"
        while True:
            exps, coeff, degree, digits = [0] * len(vars), one, 0, 0.0
            product = star = None  # star: the offset of the '*' before a factor
            while True:
                kind, text, at = tokens[i]
                i += 1
                poly = None
                if text == "(":
                    if self.depth == MAX_NESTING:
                        raise PolySyntaxError(
                            "parentheses nested deeper than %d" % MAX_NESTING, at
                        )
                    self.pos, self.depth = i, self.depth + 1
                    poly = self.expr()
                    self.depth -= 1
                    _, text, at = tokens[self.pos]
                    i = self.pos + 1
                    if text != ")":
                        raise PolySyntaxError("expected ')'", at)
                elif kind == _IDENT:
                    if text not in vars:
                        raise PolySyntaxError("unknown variable %r" % text, at)
                    index, value = vars.index(text), one
                elif kind == _INT:
                    index = None
                    if tokens[i][1] == "/":
                        (_, _, slash), (kind, den, at) = tokens[i : i + 2]
                        i += 2
                        if kind != _INT:
                            raise PolySyntaxError("expected an integer denominator", at)
                        if ring is not QQ:
                            raise PolySyntaxError("rational literal needs base QQ", slash)
                        if int(den) == 0:
                            raise PolySyntaxError("zero denominator", at)
                        value = ring.fraction(int(text), int(den))
                    else:
                        value = ring.from_int(int(text))
                else:
                    raise PolySyntaxError(
                        "expected a number, variable, or parenthesized expression", at
                    )
                n = 1
                if tokens[i][1] == "^":
                    kind, text, at = tokens[i + 1]
                    i += 2
                    if kind != _INT:
                        raise PolySyntaxError("expected a nonnegative integer exponent", at)
                    n = int(text)
                    if n > MAX_DEGREE:
                        raise PolySyntaxError(
                            "exponent %d is above the limit of %d" % (n, MAX_DEGREE), at
                        )
                    if poly is not None:
                        self.check_size(((poly, n),), at)
                        poly = _power(poly, n, self.multiply)
                    elif index is None:
                        if numeric:
                            check_bounds(0, n * log10(_bound(value)), at)
                        value = pow(value, n, m) if m else value**n
                if poly is None and product is None:  # the run of atoms goes on
                    if index is not None:
                        if star is not None:
                            check_bounds(degree + n, digits, star)
                        if coeff:  # the zero polynomial keeps degree 0
                            exps[index] += n
                            degree += n
                    else:
                        if star is not None:
                            bound = log10(_bound(value)) if numeric else 0.0
                            check_bounds(degree, digits + bound, star)
                        if coeff is one:
                            coeff = value
                        else:
                            coeff = coeff * value % m if m else coeff * value
                        digits = log10(_bound(coeff)) if numeric else 0.0
                        degree = degree if coeff else 0
                else:
                    if poly is None:
                        mono = tuple(n if k == index else 0 for k in range(len(vars)))
                        poly = MultiPoly(ring, vars, {mono: value})
                    if star is None:
                        product = poly
                    else:
                        if product is None:
                            product = MultiPoly(ring, vars, {tuple(exps): coeff})
                        self.check_size(((product, 1), (poly, 1)), star)
                        product = self.multiply(product, poly)
                _, text, at = tokens[i]
                if text != "*":
                    break
                i, star = i + 1, at
            if product is None:
                items = ((tuple(exps), coeff),) if coeff else ()
            else:
                items = product.terms.items()
            for e, c in items:
                cur = terms.get(e)
                if cur is None:
                    terms[e] = c if sign == "+" else -c
                    continue
                cur = cur + c if sign == "+" else cur - c
                if is_zero(cur):
                    del terms[e]
                else:
                    terms[e] = cur
            if pos is not None:
                if len(terms) > MAX_TERMS:
                    raise PolySyntaxError(
                        "%d terms are above the limit of %d" % (len(terms), MAX_TERMS), pos
                    )
                if numeric:
                    for e, _ in items:
                        c = terms.get(e)
                        if c is not None and _bound(c) >= _DIGITS_BOUND:
                            raise PolySyntaxError(
                                "a coefficient is above the limit of %d digits" % MAX_DIGITS,
                                pos,
                            )
            _, sign, pos = tokens[i]
            if sign != "+" and sign != "-":
                self.pos = i
                return MultiPoly(ring, vars, terms)
            i += 1

    def multiply(self, f, g):
        """f*g, once its work is counted against MAX_PARSE_WORK."""
        weight = 1
        if self.numeric:
            bits = _coefficient_bound(f).bit_length() + _coefficient_bound(g).bit_length()
            weight += bits // 256
        self.work[0] += len(f.terms) * len(g.terms) * weight
        if self.work[0] > MAX_PARSE_WORK:
            raise OracleResourceError(
                "multiplying out products and powers is above the parse work limit of %d"
                % MAX_PARSE_WORK
            )
        return f * g

    def check_size(self, factors, pos):
        """Reject the product of ``factors``, (polynomial, exponent) pairs,
        before it is formed if it could break a limit."""
        degree, terms, digits = 0, 1, 0.0
        for f, e in factors:
            degree += e * f.total_degree()
            terms *= len(f.terms) ** e
            if self.numeric:
                digits += e * log10(_coefficient_bound(f))
        self.check_bounds(degree, digits, pos)
        if terms <= MAX_TERMS:
            return
        # no more terms than monomials within the degree in each variable,
        # or of at most the total degree in the variables that occur
        box = [sum(e * f.degree_in(i) for f, e in factors) for i in range(len(self.vars))]
        used = [d for d in box if d]
        in_box = 1
        for d in used:
            in_box *= d + 1
        terms = min(terms, in_box, comb(len(used) + degree, len(used)))
        if terms > MAX_TERMS:
            raise PolySyntaxError(
                "%d terms are above the limit of %d" % (terms, MAX_TERMS), pos
            )

    @staticmethod
    def check_bounds(degree, digits, pos):
        if degree > MAX_DEGREE:
            raise PolySyntaxError(
                "total degree %d is above the limit of %d" % (degree, MAX_DEGREE), pos
            )
        if digits > MAX_DIGITS:
            raise PolySyntaxError(
                "coefficients of up to %d digits are above the limit of %d"
                % (int(digits) + 1, MAX_DIGITS),
                pos,
            )


def parse_poly(text: str, vars, ring) -> MultiPoly:
    """Parse an expression into a polynomial over ``ring`` in ``vars``."""
    parser = _Parser(text, vars, ring)
    result = parser.expr()
    kind, toktext, pos = parser.tokens[parser.pos]
    if kind != _END:
        raise PolySyntaxError("unexpected %r" % toktext, pos)
    return result


# ---- triangular points ------------------------------------------------


class TriangularPoint(FrozenRecord):
    """A general closed point given by a triangular system, with an optional
    prime when the ambient scheme lives over the integers.  It is checked
    when it is made, and the first rule broken raises ``InvalidPoint``."""

    __slots__ = ("_levels",)  # the _level of each generator, not a field

    def __init__(self, generators: tuple, prime: int | None = None):
        self.__dict__.update(generators=generators, prime=prime)
        if not generators:
            raise InvalidPoint("a point needs at least one generator")
        vars, ring = generators[0].vars, generators[0].ring
        if len(generators) != len(vars):
            raise InvalidPoint(
                "expected %d generators for variables (%s), got %d"
                % (len(vars), ", ".join(vars), len(generators))
            )
        if prime is not None:
            if ring is not ZZ:
                raise InvalidPoint("a prime is only meaningful over ZZ")
            if not is_prime(prime):
                raise InvalidPoint("%d is not prime" % prime)
        elif ring is ZZ:
            raise InvalidPoint("points over ZZ need a prime")
        levels = []
        for i, g in enumerate(generators):
            if g.vars != vars or g.ring != ring:
                raise InvalidPoint("generators disagree on variables or ring")
            d, tail = _level(g.terms, i)
            if d < 1:
                raise InvalidPoint(
                    "generator %d must involve its main variable %s" % (i + 1, vars[i])
                )
            for j in range(i + 1, len(vars)):
                if g.degree_in(j) > 0:
                    raise InvalidPoint(
                        "generator %d may not involve the later variable %s"
                        % (i + 1, vars[j])
                    )
            lead = g.coefficient_in(i, d)
            if not (lead.is_constant() and lead.constant_value() == ring.one()):
                raise InvalidPoint(
                    "generator %d is not monic in its main variable %s"
                    % (i + 1, vars[i])
                )
            levels.append((d, tail))
        object.__setattr__(self, "_levels", levels)

    def __reduce__(self):
        return TriangularPoint, (self.generators, self.prime)

    @property
    def vars(self):
        return self.generators[0].vars

    @property
    def ring(self):
        return self.generators[0].ring

    @property
    def n(self):
        return len(self.generators)

    @property
    def residue_degree(self):
        """The product of the level degrees: the residue field's degree over
        the base."""
        return prod(d for d, _ in self._levels)


def _level(terms, i: int):
    """A term dict's degree d in t_i and its terms below t_i^d, in dict order."""
    d = max([e[i] for e in terms], default=0)
    return d, [(e, c) for e, c in terms.items() if e[i] < d]


def _divide(terms, levels, m):
    """The division of ``triangular_divide`` on a term dict, by ``levels``,
    the ``_level`` of each generator, with coefficients reduced mod m, or
    exact over ZZ and QQ when m is None.  Returns the quotients' term dicts
    and the remainder's; an already reduced ``terms`` is the remainder
    itself."""
    work, quotients = terms, []
    for i in reversed(range(len(levels))):
        (d, tail), q = levels[i], {}
        # a step leaves only terms below its degree, so each degree is
        # visited once, from the top down
        for top in range(max([e[i] for e in work], default=0), d - 1, -1):
            top_slice = [e for e in work if e[i] == top]
            if not top_slice:
                continue
            work = dict(work) if work is terms else work
            touched = set()
            for e in top_slice:
                c = work.pop(e)
                if not m:  # ZZ or QQ
                    check_derived(max(abs(c.numerator), c.denominator))
                s = e[:i] + (top - d,) + e[i + 1 :]
                q[s] = c
                for te, a in tail:
                    k = tuple(map(add, s, te))
                    cur = work.get(k, 0) - c * a
                    work[k] = cur % m if m else cur
                    touched.add(k)
            for k in [k for k in touched if not work[k]]:
                del work[k]
        quotients.insert(0, q)
    return quotients, work


def triangular_divide(f: MultiPoly, point: TriangularPoint):
    """Write f = sum_i h_i * g_i + r with r reduced below every level degree.

    One dict of f's terms is reduced in place, from g_n down to g_1.  A step
    pops the top slice in t_i into the quotient and subtracts
    slice * (g_i - t_i^d): g_i's monic leading term cancels the slice exactly.
    Over ZZ and QQ each quotient coefficient passes ``check_derived``; every
    other number formed becomes one or lies in the remainder.  New terms are
    appended in the order ``rem - slice * g_i`` would append them, so term
    order is deterministic too.  A reduced f comes back itself.
    """
    if f.vars != point.vars or f.ring != point.ring:
        raise ValueError("polynomial and point disagree on variables or ring")
    quotients, rem = _divide(f.terms, point._levels, f.ring.modulus)
    ring, vars = f.ring, f.vars
    return (
        tuple(MultiPoly(ring, vars, q) for q in quotients),
        f if rem is f.terms else MultiPoly(ring, vars, rem),
    )


def membership_certificate(f: MultiPoly, point: TriangularPoint) -> bool:
    """Is f in the point's ideal?"""
    _, rem = triangular_divide(f, point)
    return _remainder_in_ideal(rem, point.prime)


def _remainder_in_ideal(rem: MultiPoly, prime) -> bool:
    """Does the triangular-division remainder of f put f in the point's
    ideal?  Over a field that means remainder zero; over ZZ with a prime p
    it means every remainder coefficient is divisible by p."""
    if prime is None:
        return rem.is_zero()
    return all(c % prime == 0 for c in rem.terms.values())


# ---- coefficient transport --------------------------------------------


def reduce_mod(f: MultiPoly, field: PrimeField) -> MultiPoly:
    """Reduce an integer polynomial coefficientwise into GF(p)."""
    if f.ring is not ZZ:
        raise ValueError("reduce_mod expects an integer polynomial")
    return MultiPoly(field, f.vars, f.terms)


def lift_int(f: MultiPoly) -> MultiPoly:
    """Lift a GF(p) polynomial to ZZ using canonical representatives."""
    if not isinstance(f.ring, PrimeField):
        raise ValueError("lift_int expects a prime-field polynomial")
    return MultiPoly(ZZ, f.vars, f.terms)

