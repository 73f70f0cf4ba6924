"""Sparse multivariate polynomials over Q in variables x_i * t^a.

A variable is a pair (i, a): base index i, t degree a.  An MPoly is int
numerators over one positive denominator, on monomials stored only as
packed ints (see "packed monomial keys" below), in canonical form: the gcd
of the denominator and the numerators is 1 and zero is (1, {}), so equal
polynomials have equal fields and hashes.  Fractions and (variable,
exponent) tuples appear only at the edge: MPoly(dict), const, variable and
scale clear their rational inputs; terms and coeff (and repr, through
terms) are decoded views with Fraction coefficients; from_factors builds
monomials from lists of variables and factor_terms reads them back, with
integer numerators over the denominator.  On top of the arithmetic sit the
Poisson bracket against a bracket table, substitutions of variables and of
t-levels, the raising derivation tau, reductions mod p, polarization, and
exact span/rank utilities.  The bracket table is the one bracket
representation: q[t] is bracketed through its truncation q[t]/(t^N), N
above every t degree reached.

A span has one canonical basis, combination_basis, read for combinations
of polys with disjoint supports off their coefficient vectors alone
(pencilz.ZAlgebra.basis and invariantlab.invariants_degree).  Everything
else compares spans by rank or reads a kernel, on coeff_rows.

All arithmetic runs on the numerators.  Sums, negation, scale and diff work
on them directly; every product runs on one integer kernel, _mul_acc: MPoly
products and powers, substitute_vars, the images {F, x_v} behind
poisson_brackets, annihilation_rows and pairwise_commute, and the
derivations (the bracket, apply_derivation and through it tau and the
directional derivatives), which take all partials in one pass (_partials)
and sum the Leibniz rule with _contract.  poisson_brackets brackets a family
against a family, forming each left-hand side's images once; poisson_bracket
is its one-pair case.  A kernel brings its inputs over one common
denominator only where it sums them, and hands its result to
_from_numerators, the one normalizer: it drops zero terms and divides out
the gcd once.  Every map of t-levels, x_i t^a -> x_i * r(t) (psi_p and
the transports of invariantlab), goes through substitute_levels and on to
substitute_vars.  A substitution multiplies each term by the cached power
of each mapped factor's image; where that power is one term, as for psi_p
wherever t^a mod p is a monomial, the map only shifts the packed key and
scales the numerator.

Products guard against term blowup: when an operation would exceed the
term budget (GLAB_BUDGET_TERMS, default 2 * 10^6) it raises BudgetError
rather than grinding on.  A monomial of total degree above FIELD_MAX =
255, which would overflow its packed field, raises BudgetError too.  The
budget is defined in exactla, which the polynomial parser in liecore also
reaches; psring re-exports it.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactla import (
    BudgetError,
    InputError,
    as_int,
    rat,
    rat_str,
    row_space,
    term_budget,
)
from .liecore import BracketTable, UniPoly, t_powers_mod

Var = tuple
Mono = tuple


def mono_sort_key(m: Mono):
    # graded, then lexicographic on the sorted (variable, exponent) pairs
    return (sum(e for _, e in m), m)


class MPoly:
    """Immutable-by-convention sparse polynomial: packed monomial keys to
    nonzero int numerators over the denominator _den, in canonical form."""

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: dict):
        """From a dict of monomials, (variable, exponent) tuples sorted by
        variable, to rational coefficients; zero coefficients are dropped."""
        F = _from_rationals({_key(m): c for m, c in terms.items() if c})
        self._den, self._nums = F._den, F._nums

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return _wrap(1, {})

    @classmethod
    def const(cls, c) -> "MPoly":
        return _from_rationals({0: rat(c)})

    @classmethod
    def variable(cls, v: Var, coef=1) -> "MPoly":
        return cls({((tuple(v), 1),): rat(coef)})

    @classmethod
    def from_entries(cls, entries: Iterable) -> "MPoly":
        """Linear polynomial sum of coef * x_v over (v, coef) pairs."""
        return cls.from_factors(((tuple(v),), rat(c)) for v, c in entries)

    @classmethod
    def from_factors(cls, terms: Iterable) -> "MPoly":
        """sum c * x_v1 * ... * x_vd over the (factors, c) pairs, factors
        the variables v1 .. vd in any order, repeats allowed, c rational.
        Equal monomials add up and zero sums are dropped."""
        acc: dict = {}
        for factors, c in terms:
            k = _key((v, 1) for v in factors)
            acc[k] = acc.get(k, 0) + c
        return _from_rationals(acc)

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict:
        """{monomial: coefficient}, each monomial decoded from its key into
        (variable, exponent) pairs sorted by variable and each coefficient a
        Fraction; a copy on each call."""
        return {_decode(k): Fraction(n, self._den) for k, n in self._nums.items()}

    def factor_terms(self) -> tuple:
        """(den, [(factors, n)]): the terms as int numerators n over the
        positive denominator den, factors the sorted tuple of the monomial's
        variables, each repeated by its exponent."""
        return self._den, [(tuple(v for v, e in _decode(k) for _ in range(e)), n)
                           for k, n in self._nums.items()]

    def is_zero(self) -> bool:
        return not self._nums

    def num_terms(self) -> int:
        return len(self._nums)

    def total_degree(self) -> int:
        return _top_degree(self._nums) if self._nums else -1

    def vars(self) -> set:
        return _variables(self._nums)

    def coeff(self, m: Mono) -> Fraction:
        # a variable never registered occurs in no polynomial
        if any(v not in _UNITS for v, _ in m):
            return Fraction(0)
        return Fraction(self._nums.get(_key(m), 0), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda t: mono_sort_key(t[0])):
            factors = "".join(
                f"(x{v[0]}.t{v[1]})" + (f"^{e}" if e > 1 else "") for v, e in m
            )
            bits.append(f"{rat_str(c)}*{factors}" if factors else rat_str(c))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        if not self._nums:
            return other
        if not other._nums:
            return self
        den, (a, b) = _common((self, other))
        acc = dict(a)
        get = acc.get
        for k, n in b.items():
            acc[k] = get(k, 0) + n
        return _from_numerators(acc, den)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return _wrap(self._den, {k: -n for k, n in self._nums.items()})

    def scale(self, c) -> "MPoly":
        c = rat(c)
        return _from_numerators({k: c.numerator * n for k, n in self._nums.items()},
                                self._den * c.denominator)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return _from_numerators(_product(self._nums, other._nums, term_budget()),
                                self._den * other._den)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------

    def diff(self, v: Var) -> "MPoly":
        return _from_numerators(_partials(self._nums).get(tuple(v), {}), self._den)


def _wrap(den: int, nums: dict) -> MPoly:
    """The MPoly of nums over den, already canonical, without a copy."""
    out = MPoly.__new__(MPoly)
    out._den = den
    out._nums = nums
    return out


def _from_numerators(nums: dict, den: int) -> MPoly:
    """The MPoly sum_k (n / den) * k over packed keys k, den positive, in
    canonical form: the zero terms dropped, then the numerators and den
    divided by their gcd."""
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    g = math.gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    return _wrap(den, nums)


def _from_rationals(coeffs: dict) -> MPoly:
    """The MPoly of packed keys to rational (int or Fraction) coefficients,
    cleared over their least common denominator: the input coercion."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return _from_numerators(
        {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den)


def _common(polys: Iterable) -> tuple:
    """(L, [the numerators of each poly over L]), L the lcm of their
    denominators; a poly already over L gives its own dict, not a copy."""
    polys = list(polys)
    L = math.lcm(*(F._den for F in polys))
    return L, [F._nums if F._den == L else {k: n * (L // F._den) for k, n in F._nums.items()}
               for F in polys]


# ---------------------------------------------------------------------------
# packed monomial keys
#
# A monomial is one int of 8-bit fields: the lowest holds the total degree,
# and each variable owns the field at its unit, so a product of monomials is
# one addition and dividing by x_u subtracts unit(u) + 1.  No field may pass
# FIELD_MAX: as every exponent is at most the total degree, checking the
# degree of each product and each monomial built keeps every field from
# wrapping.  Slots are handed out in order of first use and kept for the
# life of the process, since MPoly keys outlive every operation; so a key
# is as wide as the registry, not the monomial.  Slot order is not variable
# order.  What needs monomials in mono_sort_key order decodes and sorts
# (repr) or walks the variables in order (_first_key, behind the leads of
# combination_basis and primitive); coeff_rows needs no order.  _fields
# walks the set fields of a key, never its bytes.

FIELD_MAX = 255
_UNITS: dict = {}  # variable -> 1 << (8 * slot), slots from 1
_VARS: list = []  # slot - 1 -> variable


def _unit(v: Var) -> int:
    u = _UNITS.get(v)
    if u is None:
        _VARS.append(v)
        u = _UNITS[v] = 1 << (8 * len(_VARS))
    return u


def _key(m: Iterable) -> int:
    """The packed key of the monomial of the (variable, exponent) pairs m,
    registering its variables; BudgetError past FIELD_MAX."""
    degree = k = 0
    for v, e in m:
        degree += e
        k += e * _unit(v)
    if degree > FIELD_MAX:
        raise BudgetError(f"monomial of degree {degree} exceeds the packed "
                          f"field maximum {FIELD_MAX}")
    return k + degree


def _fields(k: int) -> list:
    """[(slot - 1, exponent)] for each variable of the packed key k, in slot
    order: the lowest set bit of what is left names the next field."""
    out = []
    r, s = k >> 8, 0
    while r:
        z = ((r & -r).bit_length() - 1) >> 3  # empty fields below the next
        r >>= 8 * z
        out.append((s + z, r & FIELD_MAX))
        r >>= 8
        s += z + 1
    return out


def _decode(k: int) -> Mono:
    """The monomial of the packed key k, its pairs sorted by variable."""
    return tuple(sorted((_VARS[s], e) for s, e in _fields(k)))


def _variables(keys: Iterable) -> set:
    """The variables of any of the keys: the set fields of their or."""
    r = 0
    for k in keys:
        r |= k
    return {_VARS[s] for s, _ in _fields(r)}


def _top_degree(a: dict) -> int:
    """The largest total degree among the packed keys of a (nonempty)."""
    return max(map(FIELD_MAX.__and__, a))


# ---------------------------------------------------------------------------
# the Leibniz kernel: integer numerators over one common denominator, on
# packed keys


def _partials(terms: dict, wanted=None) -> dict:
    """u -> {k: n}, the numerators of dF/dx_u for every u in vars(F), or
    for the u in wanted alone when it is given, from the numerators {k: n}
    of F, over the same denominator.

    Dividing a monomial by x_u is injective, so no term cancels here.
    """
    # the fields of the wanted variables; a variable never registered
    # occurs in no key
    mask = -1 if wanted is None else sum(
        FIELD_MAX * _UNITS[u] for u in wanted if u in _UNITS)
    out: dict = {}
    for k, c in terms.items():
        for s, e in _fields(k & mask):
            out.setdefault(_VARS[s], {})[k - (256 << 8 * s) - 1] = c * e
    return out


def _tops(parts: dict) -> dict:
    """v -> _top_degree(parts[v]): the degree of each factor, taken once
    however many products it enters."""
    return {v: _top_degree(p) for v, p in parts.items()}


def _refuse(m: int, k: int, degree: int, budget: int) -> None:
    """BudgetError for a product of m x k terms past the budget, or of a
    total degree past FIELD_MAX."""
    if m * k > budget:
        raise BudgetError(f"product of {m} x {k} terms exceeds budget {budget}")
    if degree > FIELD_MAX:
        raise BudgetError(
            f"product of degree {degree} exceeds the packed field maximum "
            f"{FIELD_MAX}")


def _mul_acc(acc: dict, a: dict, b: dict, degree: int, budget: int) -> None:
    """acc += a * b on packed keys and integer numerators {k: n}: the one
    polynomial product, degree being _top_degree(a) + _top_degree(b), which
    the caller knows.  A product of more term pairs than the budget, or of
    a total degree past FIELD_MAX, is refused before any work."""
    _refuse(len(a), len(b), degree, budget)
    get = acc.get
    for m1, n1 in a.items():
        for m2, n2 in b.items():
            key = m1 + m2
            acc[key] = get(key, 0) + n1 * n2


def _product(a: dict, b: dict, budget: int) -> dict:
    """a * b on integer numerators, without its zero terms."""
    acc: dict = {}
    if a and b:
        _mul_acc(acc, a, b, _top_degree(a) + _top_degree(b), budget)
    return {k: n for k, n in acc.items() if n}


def _contract(partials: dict, ptops: dict, images: dict, itops: dict,
              budget: int) -> dict:
    """sum_v images[v] * partials[v]: the Leibniz rule, each images[v] the
    image of x_v and partials[v] the numerators of dF/dx_v (absent when
    x_v does not occur in F).  ptops and itops are the _tops of partials
    and images, so a family contracted again is not measured again."""
    acc: dict = {}
    for v, img in images.items():
        dv = partials.get(v)
        if dv:
            _mul_acc(acc, img, dv, itops[v] + ptops[v], budget)
    return acc


def apply_derivation(F: MPoly, image: Callable) -> MPoly:
    """Extend the variable map x_v -> image(v) as a derivation (Leibniz):
    sum_v dF/dx_v * image(v).

    The nonzero images are brought over one common denominator, so the
    contraction with F's numerators runs on ints.
    """
    partials = _partials(F._nums)
    held = {v: img for v in partials if (img := image(v))._nums}
    den, nums = _common(held.values())
    images = dict(zip(held, nums))
    return _from_numerators(
        _contract(partials, _tops(partials), images, _tops(images), term_budget()),
        F._den * den)


def directional_derivative(F: MPoly, gamma: dict) -> MPoly:
    """Derivative of F in the constant direction gamma (variable -> value)."""
    return apply_derivation(F, lambda v: MPoly.const(gamma.get(v, 0)))


def tau_apply(F: MPoly, times: int = 1) -> MPoly:
    """Apply the raising derivation x_i t^a -> a * x_i t^(a+1)."""

    def image(v):
        i, a = v
        if a == 0:
            return MPoly.zero()
        return MPoly.variable((i, a + 1), coef=a)

    out = F
    for _ in range(times):
        out = apply_derivation(out, image)
    return out


# ---------------------------------------------------------------------------
# substitutions


def substitute_vars(F: MPoly, mapping: dict) -> MPoly:
    """Algebra homomorphism determined by x_v -> mapping[v].

    Variables absent from mapping are kept as themselves, and the images
    of variables F does not hold are never read.  The images are cleared
    over one common denominator D, and each term n * m of F's numerators
    is lifted to the top mapped degree (D^(top - deg m)) and multiplied,
    one mapped factor x_v^e at a time, by the cached power image(v)^e on
    the integer kernel.  Where that power is one term (a scalar times a
    monomial, or a nonzero constant: psi_p where t^a mod p is a
    monomial), the factor costs a key shift and one multiply.  The
    result is divided by F's denominator times D^top once.
    """
    nums = F._nums
    held = 0
    for k in nums:
        held |= k
    # slot - 1 -> the image of each mapped variable F holds
    slots = [s for s, _ in _fields(held) if _VARS[s] in mapping]
    D, images = _common(mapping[_VARS[s]] for s in slots)
    # slot - 1 -> [None, image, image^2, ...], the e-th power on integer
    # numerators over D^e, extended as far as a term needs it
    powers = {s: [None, img] for s, img in zip(slots, images)}
    tops = {s: _top_degree(img) if img else 0 for s, img in zip(slots, images)}
    mask = sum(FIELD_MAX << 8 * (s + 1) for s in slots)
    budget = term_budget()
    mapped = []
    for k, n in nums.items():
        fs = _fields(k & mask)
        mapped.append((k, n, fs, sum(e for _, e in fs)))
    top = max((dm for *_, dm in mapped), default=0)
    lift = [D ** j for j in range(top + 1)]
    out: dict = {}
    get = out.get
    for k, n, fs, dm in mapped:
        cur = {k - (k & mask) - dm: n * lift[top - dm]}
        degree = (k & FIELD_MAX) - dm  # the top degree of cur
        for s, e in fs:
            pw = powers[s]
            while len(pw) <= e:
                pw.append(_product(pw[-1], pw[1], budget))
            pw = pw[e]
            if not (cur and pw):
                cur = {}
                continue
            degree += e * tops[s]
            acc: dict = {}
            _mul_acc(acc, cur, pw, degree, budget)
            # a term can cancel only where two products share a key
            cur = acc if len(acc) == len(cur) * len(pw) else {
                m: x for m, x in acc.items() if x}
        for m, x in cur.items():
            out[m] = get(m, 0) + x
    return _from_numerators(out, F._den * D ** top)


def substitute_levels(F: MPoly, level_image: Callable) -> MPoly:
    """Algebra map x_i t^a -> x_i * r(t) = sum_k r_k x_i t^k, r = level_image(a).

    A level whose image is None keeps its variables.  level_image is called
    once per distinct level of F; F itself is returned when nothing maps.
    Each image is built on packed keys from the coefficients of r.
    """
    images: dict = {}
    mapping = {}
    for v in F.vars():
        i, a = v
        if a not in images:
            images[a] = level_image(a)
        r = images[a]
        if r is not None:
            mapping[v] = _from_rationals(
                {_unit((i, k)) + 1: c for k, c in enumerate(r.coeffs) if c})
    return substitute_vars(F, mapping) if mapping else F


def psi_p(F: MPoly, p: UniPoly) -> MPoly:
    """Reduce every t power mod p; an algebra homomorphism.

    The remainders t^a mod p are built in turn, each from the one before
    (liecore.t_powers_mod), up to the highest level of F.
    """
    if p.is_zero() or not p.is_monic() or p.degree < 1:
        raise InputError("modulus must be monic of degree >= 1")
    n = p.degree
    powers, rems = t_powers_mod(p), []

    def level_image(a):
        if a < n:
            return None
        while len(rems) <= a:
            rems.append(next(powers))
        return rems[a]

    return substitute_levels(F, level_image)


# ---------------------------------------------------------------------------
# polarizations


def _distinct_perms(items: tuple):
    """Distinct permutations of a multiset, in sorted order."""
    items = sorted(items)

    def rec(rest):
        if not rest:
            yield ()
            return
        prev = object()
        for idx in range(len(rest)):
            if rest[idx] == prev:
                continue
            prev = rest[idx]
            for tail in rec(rest[:idx] + rest[idx + 1 :]):
                yield (rest[idx],) + tail

    return rec(list(items))


def polarize(F: MPoly, kvec: Sequence) -> MPoly:
    """Distribute t degrees kvec over the factors of each monomial of F:
    the one-kvec case of polarize_family, whose conditions it shares."""
    (P,) = polarize_family(F, (kvec,))
    return P


def polarize_family(F: MPoly, kvecs: Iterable) -> list:
    """[polarize(F, kvec) for kvec in kvecs], F decoded once for all of them.

    Each kvec must hold nonnegative integers and F must be homogeneous of
    degree len(kvec) in t-degree-zero variables; InputError otherwise, the
    error that polarize would raise on the first kvec it refuses.  Each
    monomial contributes one summand per distinct arrangement of kvec, so
    repeated degrees are not overcounted; a repeated factor meets two
    arrangements that give one monomial, and those add up.

    Runs on packed keys: the fields of each term of F are read once and
    expanded by multiplicity, each unit of x_i t^a is taken once, and each
    polarization's summed numerators are normalized once over F's
    denominator.  Every key built has the degree of a key of F, so no field
    passes FIELD_MAX.
    """
    # (factors, n) per term of F, up to the first term that holds a level
    # (its index, bad); first_of: each degree -> the index of its first term
    terms, first_of, bad = [], {}, None
    for k, n in F._nums.items():
        factors = []
        for s, e in _fields(k):
            i, a = _VARS[s]
            if a:
                bad = len(terms)
                break
            factors += [i] * e
        if bad is not None:
            break
        first_of.setdefault(len(factors), len(terms))
        terms.append((factors, n))
    family = []
    for kvec in kvecs:
        levels = []
        for k in kvec:
            a = as_int(k)
            if a is None or a < 0:
                raise InputError(f"t degree {k!r} is not a nonnegative integer")
            levels.append(a)
        # the terms are checked in order, each for a level, then for its
        # degree, and the first that fails names the error
        d = len(levels)
        wrong = min((j for deg, j in first_of.items() if deg != d), default=None)
        if wrong is not None:
            raise InputError(
                f"monomial degree {len(terms[wrong][0])} does not match arrangement of {d}")
        if bad is not None:
            raise InputError("polarization input must have t degree zero")
        family.append(levels)
    # level -> {i: the unit of x_i t^level}, for every i of F, registered in
    # kvec order, as calling polarize on each kvec in turn registers them
    bases = sorted({i for factors, _ in terms for i in factors})
    units: dict = {}
    for levels in family:
        for a in sorted(set(levels)):
            if a not in units:
                units[a] = {i: _unit((i, a)) for i in bases}
    out = []
    for levels in family:
        d = len(levels)
        arrangements = [[units[a] for a in perm] for perm in _distinct_perms(levels)]
        acc: dict = {}
        get = acc.get
        for factors, n in terms:
            for cols in arrangements:
                key = d + sum([col[i] for col, i in zip(cols, factors)])
                acc[key] = get(key, 0) + n
        out.append(_from_numerators(acc, F._den))
    return out


# ---------------------------------------------------------------------------
# Poisson bracket


def _keyed_neighbours(T: BracketTable) -> tuple:
    """(D, u -> ((v, {unit(w) + 1: D * c}), ...)): T.scaled_neighbours, the
    integer index every BracketTable constructor stores, with its positions
    u and v read as variables and each [x_u, x_v] as a packed linear
    polynomial.

    Built on the first bracket and kept in T's instance dictionary, next to
    the index it is made from, so it lives as long as T and a table that is
    never bracketed does not pay for it.  Equal entries share one
    (read-only) polynomial.
    """
    keyed = vars(T).get("keyed_neighbours")
    if keyed is None:
        D, index = T.scaled_neighbours
        vs = T.var_list()
        lin: dict = {}
        for pairs in index.values():
            for _, ent in pairs:
                if ent not in lin:
                    lin[ent] = {_unit(vs[w]) + 1: c for w, c in ent}
        keyed = vars(T)["keyed_neighbours"] = (D, {
            vs[u]: tuple((vs[v], lin[ent]) for v, ent in pairs) for u, pairs in index.items()
        })
    return keyed


def _int_images(partials: dict, index: dict, targets, budget: int) -> dict:
    """v -> {k: n} with n / D the coefficients of {F, x_v}.

    {F, x_v} = sum_u dF/dx_u * [x_u, x_v]; partials holds the integer
    numerators of the dF/dx_u and index the packed pairs (v, [x_u, x_v])
    scaled to integers over D.  Only v in targets (when given) are formed,
    and only nonzero terms and nonzero images are kept.  Each [x_u, x_v]
    is linear, so a product's degree is that of dF/dx_u plus one, taken
    once per u.
    """
    out: dict = {}
    for u, du in partials.items():
        degree = _top_degree(du) + 1
        for v, lin in index.get(u, ()):
            if targets is not None and v not in targets:
                continue
            _mul_acc(out.setdefault(v, {}), lin, du, degree, budget)
    images = {}
    for v, acc in out.items():
        nz = {k: n for k, n in acc.items() if n}
        if nz:
            images[v] = nz
    return images


def poisson_brackets(Fs: Iterable, Gs: Sequence, T: BracketTable):
    """For each F of Fs, in order, the list [{F, G} for G in Gs]: the
    bracket of T extended by the Leibniz rule, a family at a time.

    {F, G} = sum_v {F, x_v} * dG/dx_v over v in vars(G), where {F, x_v}
    visits only the pairs [x_u, x_v] with u in vars(F), read from T's
    scaled neighbour index.  The partials of each G are taken once; the
    images {F, x_v} of each F are formed once, at every variable some G
    holds, and contracted with the partials of every G.  One row is
    yielded at a time, so only one row is held.  A variable outside T
    brackets to zero, so q[t] is bracketed as q[t]/(t^N) with N above
    every t degree a bracket reaches.  All of it runs on the integer
    numerators of F, of G and of T's scaled index, over the product of
    their denominators.
    """
    D, index = _keyed_neighbours(T)
    budget = term_budget()
    partials = [_partials(G._nums) for G in Gs]
    ptops = [_tops(pg) for pg in partials]
    held = set().union(*partials)
    for F in Fs:
        images = _int_images(_partials(F._nums), index, held, budget)
        itops = _tops(images)
        yield [_from_numerators(_contract(pg, pt, images, itops, budget), D * F._den * G._den)
               for G, pg, pt in zip(Gs, partials, ptops)]


def poisson_bracket(F: MPoly, G: MPoly, T: BracketTable) -> MPoly:
    """{F, G} under T: the one-pair case of poisson_brackets."""
    (row,) = poisson_brackets((F,), (G,), T)
    return row[0]


def _side_cost(images: dict, itops: dict, partials: dict, ptops: dict) -> tuple:
    """(total, (m, k), degree): the term products of _contract(partials,
    ptops, images, itops), sum_v |images[v]| * |partials[v]| over the v
    both hold, read off the sizes alone; the sizes m x k of its largest
    product; and the largest total degree of its products."""
    total, largest, degree = 0, (0, 0), 0
    for v, img in images.items():
        dv = partials.get(v)
        if dv:
            m, k = len(img), len(dv)
            total += m * k
            if m * k > largest[0] * largest[1]:
                largest = (m, k)
            degree = max(degree, itops[v] + ptops[v])
    return total, largest, degree


def pairwise_commute(polys: Sequence, *tables: BracketTable) -> bool:
    """Whether {F, G} = 0 under every one of the tables for every pair F, G
    of polys.

    The images {F, x_v} of every F under each table are formed once, on
    integer numerators, at every variable the family holds.  Each pair is
    then contracted from its cheaper side, {F, G} = sum_v {F, x_v} *
    dG/dx_v = -sum_u {G, x_u} * dF/dx_u, the cost of a side being its term
    products, sum_v |{F, x_v}| * |dG/dx_v|.  A side of cost 0 is an empty
    sum, so the pair commutes and no product is formed; a pair with a
    central member, which has no images at all, is skipped before either
    cost is read.  The common
    denominators cannot make a sum vanish, so they are never applied.

    Every chosen product is held against the term budget and the packed
    degree limit once the images under all the tables are formed and
    before the first contraction, so a family that would pass either
    raises BudgetError before that work.  The first pair that does not
    commute, table by table and in pair order, ends the contractions.  So
    every answer, False included, costs the images of the whole family
    under every table, and a family with a pair that does not commute and
    a pair past the budget raises BudgetError rather than returning False.
    """
    budget = term_budget()
    partials = [_partials(F._nums) for F in polys]
    ptops = [_tops(pf) for pf in partials]
    held = set().union(*partials)
    plan = []  # (images of F, their tops, j): contract with the partials of G = polys[j]
    for T in tables:
        _, index = _keyed_neighbours(T)
        images = [_int_images(pf, index, held, budget) for pf in partials]
        itops = [_tops(img) for img in images]
        for i, j in itertools.combinations(range(len(polys)), 2):
            if not (images[i] and images[j]):
                continue
            forward = _side_cost(images[i], itops[i], partials[j], ptops[j])
            backward = _side_cost(images[j], itops[j], partials[i], ptops[i])
            if not (forward[0] and backward[0]):
                continue
            if backward[0] < forward[0]:
                i, j, forward = j, i, backward
            _, (m, k), degree = forward
            _refuse(m, k, degree, budget)
            plan.append((images[i], itops[i], j))
    return not any(any(_contract(partials[j], ptops[j], img, tops, budget).values())
                   for img, tops, j in plan)


def annihilation_rows(polys: Sequence, tables: Sequence, targets=None):
    """Integer rows of the linear system {sum_k c_k polys[k], x_v} = 0 under
    each table, each distinct row once, for every variable v or, when
    targets is given, for the v in targets alone.

    Fewer targets can leave the same kernel.  By Jacobi, {F, {y, v}} =
    {{F, y}, v} + {y, {F, v}}, so when F kills y, the v that F kills form
    a subspace closed under ad(y).  For a combination F of polarizations
    of invariants, which every x_i t^0 brackets to zero in a quotient
    bracket, the rows at the ad(q)-module generators of q at each level
    t^1 .. t^(n-1) therefore cut out the kernel of all the rows
    (pencilz._pencil_rows).  Solving for the invariants themselves
    (invariantlab.invariants_degree) needs every variable.

    One row stands for a variable v and a monomial m that occurs in some
    image at v.  Its entry (e, k), e running over the tables and k fastest,
    is the coefficient of m in {polys[k], x_v} under tables[e], n / (D_e *
    d_k) on the integer kernel (see _int_images), times L, the lcm of every
    D_e * d_k.  Each row is made primitive with its first nonzero entry
    positive, and a row yielded before is skipped: scaling a row keeps the
    span and the kernel, so every canonical basis read from the rows stays
    the same.  The partials of each polynomial are taken once, its images
    formed under every table, and the partials dropped before the next
    polynomial.  The rows are built one variable at a time, variables and
    monomials in the order the images first hold them: each column's image
    at v is scattered term by term into the sparse entries (column, value)
    of its monomials' rows, and the gcd, the sign and the test against the
    rows yielded before are taken on those entries, so a dense row is formed
    only for a row yielded, and besides the rows of the variable at hand
    only the distinct rows are held, sparse.  The cost is the image terms,
    not the rows times the columns.  No row order changes a kernel.  With
    targets, a partial dF/dx_u is taken only where [x_u, x_v] != 0 under
    some table for some v in targets, the only u at which an image reads
    it.

    The consumers read a kernel off the rows (pencilz._pencil_rows,
    invariantlab.invariants_degree) or only whether there is one: every row
    is nonzero, so the polys are all central for a table T exactly when
    any(annihilation_rows(polys, [T])) is False, which is the one
    centrality test.
    """
    budget = term_budget()
    keyed = [_keyed_neighbours(T) for T in tables]
    wanted = None if targets is None else {
        u for _, index in keyed for u, pairs in index.items()
        if any(v in targets for v, _ in pairs)}
    K = len(polys)
    cols = [None] * (len(keyed) * K)  # (D_e * d_k, v -> {k: n}) per column (e, k)
    for k, F in enumerate(polys):
        pf = _partials(F._nums, wanted)
        for e, (D, index) in enumerate(keyed):
            cols[e * K + k] = (D * F._den, _int_images(pf, index, targets, budget))
        del pf
    lcm = math.lcm(*(den for den, _ in cols))
    cols = [(c, lcm // den, images) for c, (den, images) in enumerate(cols)]
    width = len(cols)
    seen = set()
    for v in dict.fromkeys(v for *_, images in cols for v in images):
        # monomial -> [c, x, c', x', ...]: the nonzero entries x of its row
        # and their columns c, scattered from each column's image at v, in
        # column order
        sparse: dict = {}
        get = sparse.get
        for c, s, images in cols:
            img = images.get(v)
            if img:
                for k, n in img.items():
                    ent = get(k)
                    if ent is None:
                        sparse[k] = [c, s * n]
                    else:
                        ent += (c, s * n)
        for ent in sparse.values():
            xs = ent[1::2]
            g = math.gcd(*xs)
            if xs[0] < 0:
                g = -g
            ent[1::2] = [x // g for x in xs]
            key = tuple(ent)
            if key not in seen:
                seen.add(key)
                row = [0] * width
                for c, x in zip(key[::2], key[1::2]):
                    row[c] = x
                yield tuple(row)


def gradient_numerators(polys: Sequence, vars_order: Sequence) -> Callable:
    """point -> [(d, row)] for each F of polys: d its denominator and row
    the ints d * dF/dv at the integer point, v over vars_order.

    The partials are taken once, of each F's integer numerators, and
    evaluated on ints at each point, each distinct monomial once.
    """
    col = {v: j for j, v in enumerate(vars_order)}
    monos: dict = {}  # packed key -> its index in the point's values
    family = []
    for F in polys:
        entries = [(col[u], [(c, monos.setdefault(k, len(monos))) for k, c in part.items()])
                   for u, part in _partials(F._nums).items() if u in col]
        family.append((F._den, entries))
    missing = _variables(monos) - col.keys()
    if missing:
        raise InputError(f"point misses variable {min(missing)}")
    factors = [[(col[_VARS[s]], e) for s, e in _fields(k)] for k in monos]
    width = len(col)

    def at(point: Sequence) -> list:
        vals = [math.prod([point[j] ** e for j, e in fs]) for fs in factors]
        out = []
        for den, entries in family:
            row = [0] * width
            for j, terms in entries:
                row[j] = sum([c * vals[i] for c, i in terms])
            out.append((den, row))
        return out

    return at


def cleared_jacobian(polys: Sequence, vars_order: Sequence) -> Callable:
    """point -> the Jacobian of polys at point, as a list of integer rows,
    its columns in vars_order, each row cleared to integers.

    Row F reads d * dF at the point (gradient_numerators), and dividing it
    by gcd(d, *row) gives the Fraction row of dF at the point times the lcm
    of its denominators: the same rank over Q, and the rows
    exactla.rank_mod_p ranks mod PRIME.
    """
    gradients = gradient_numerators(polys, vars_order)

    def at(point: Sequence) -> list:
        rows = []
        for den, row in gradients(point):
            g = math.gcd(den, *row)
            rows.append([x // g for x in row])
        return rows

    return at


def jacobian_rank_at(polys: Sequence, point: Sequence, vars_order: Sequence) -> int:
    """Rank of the Jacobian of polys at the integer point, its coordinates
    in vars_order."""
    return row_space(cleared_jacobian(polys, vars_order)(point), len(vars_order)).dim


# ---------------------------------------------------------------------------
# spans


def coeff_rows(polys: Sequence) -> list:
    """Each poly's coefficients, as ints over one common denominator, on
    the family's packed keys in the order the family first holds them: a
    rank (span_dim) or a kernel (invariantlab.centralizer_in_span) needs no
    monomial order, so no key is decoded and nothing is sorted."""
    _, scaled = _common(polys)
    index = {k: j for j, k in enumerate(dict.fromkeys(k for nums in scaled for k in nums))}
    rows = []
    for nums in scaled:
        row = [0] * len(index)
        for k, n in nums.items():
            row[index[k]] = n
        rows.append(row)
    return rows


def span_dim(polys: Sequence) -> int:
    rows = coeff_rows(polys)
    return row_space(rows, len(rows[0]) if rows else 0).dim


def _first_key(keys) -> int:
    """The first of the (distinct) packed keys in mono_sort_key order, read
    off their fields without decoding them.

    The keys of the least degree are kept, and the variables they hold are
    walked in variable order; at each v the kept keys agree on every
    variable before it.  A kept key that holds v to the exponent e goes on
    with the pair (v, e), which sorts before (v, e') for e' > e and before
    any pair of a later variable.  A kept key that holds no variable from v
    on has spent the degree, so then every kept key agrees with it and none
    holds v.  So where some kept key holds v, those that hold it to the
    least exponent are kept.
    """
    low = min(k & FIELD_MAX for k in keys)
    cand = [k for k in keys if k & FIELD_MAX == low]
    held = 0
    for k in cand:
        held |= k
    for s in sorted((s for s, _ in _fields(held)), key=_VARS.__getitem__):
        if len(cand) == 1:
            break
        shift = 8 * (s + 1)
        exps = [k >> shift & FIELD_MAX for k in cand]
        least = min(filter(None, exps), default=0)
        if least:
            cand = [k for k, e in zip(cand, exps) if e == least]
    return cand[0]


def combination_basis(polys: Sequence, vectors: Iterable) -> list:
    """The canonical basis of span{sum_k v[k] * polys[k] : v in vectors},
    its reduced row echelon form over monomials in mono_sort_key order, for
    nonzero polys with disjoint supports, read off the vectors (int or Fraction).

    Let lead_k be the first key of polys[k] in mono_sort_key order and c_k
    its coefficient.  The supports being disjoint, the leads are distinct
    and lead_k occurs in polys[k] alone.  So with the polys ordered by lead
    and column k of the vectors scaled by c_k, each row w of the reduced
    echelon form of the vectors gives sum_k (w_k / c_k) * polys[k], with
    coefficient 1 at the lead of its pivot column, which the poly of no
    other row holds, and nothing before it: the reduced echelon basis of
    the span, which is unique.  Each basis poly is the union of the
    numerators of the polys it holds, each scaled by one int, normalized
    once.  Only the leads are decoded (see _first_key).
    """
    nums = [F._nums for F in polys]
    if not all(nums):
        raise InputError("combination_basis needs nonzero polys")
    leads = [_first_key(a) for a in nums]
    cols = sorted(range(len(nums)), key=lambda j: mono_sort_key(_decode(leads[j])))
    lc = [nums[j][leads[j]] for j in cols]  # c_j times the den of polys[j]
    L = math.lcm(*(F._den for F in polys))
    scale = [n * (L // polys[j]._den) for n, j in zip(lc, cols)]  # L * c_j
    rows = []
    for v in vectors:
        if len(v) != len(cols):
            raise InputError("vector width mismatch")
        rows.append([v[j] * s for j, s in zip(cols, scale)])
    reduced, d = row_space(rows, len(cols)).reduced()
    # (w_k / c_k) * polys[k] = w_k * nums[k] / (the numerator of c_k)
    out = []
    for w in reduced:
        M = math.lcm(*(n for x, n in zip(w, lc) if x))
        acc: dict = {}
        for x, n, j in zip(w, lc, cols):
            if x:
                a = x * (M // n)
                acc.update({k: a * m for k, m in nums[j].items()})
        out.append(_from_numerators(acc, d * M))
    return out


def primitive(F: MPoly) -> MPoly:
    """F scaled to coprime integer coefficients, the coefficient of its
    first monomial in mono_sort_key order positive; zero stays zero."""
    nums = F._nums
    if not nums:
        return F
    g = math.gcd(*nums.values()) * (1 if nums[_first_key(nums)] > 0 else -1)
    return _wrap(1, {k: n // g for k, n in nums.items()})
