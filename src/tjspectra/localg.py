"""Local computer algebra at the origin: standard bases, Milnor and Tjurina numbers.

The monomial order is the local degree order: smaller total degree is
*larger*, ties broken by reverse lexicographic with x > y > z.  Standard
bases are computed with Mora's tangent-cone algorithm (ecart-controlled
weak normal form), which terminates for polynomial input.  Each basis
element's lead and ecart are computed once, when it enters the basis, and
every normal form uses those stored triples as its reducer pool, copied
only when a remainder must join it.  Pending S-pairs wait on one heap
ordered by the degree of their lead lcm, ties going to the pair made last.
Beside the heap, each basis index keeps the set of its partners: k is in
the set of i exactly while the pair {i, k} is on the heap.  A popped pair
leaves both sets before the chain criterion (below) scans the flat list of
packed leads for a lead that vouches for a skip, so a skipped pair is done
and may vouch in turn.  Colengths are counted from the packed leads by
slicing: the last variable's axis is cut at the leads' own exponents below
its pure power, and each slice is its width times the count, in the other
variables, under the leads whose last exponent is at most the cut.  That
exponent is the top field once the degree field is masked off, so sorting
the ints sorts by it.  Time and memory grow with the number of leads, not
with the product of the pure-power exponents.

A monomial is one int, as a ``Poly`` stores it (:mod:`~tjspectra.poly`).
Its top field holds the total degree, and e[n-1], ..., e[0] sit below it
in fields of W bits each (W = :data:`FIELD_BITS`).  Comparing two such
ints compares (degree, reversed exponents), which is :func:`_lead_key`,
so a lead is ``min(p)``, a monomial product is ``+`` and the ecart is a
difference of top fields.  In the engine every exponent stays below
2^(W-1), the guard bit of its field, so ``a | b`` is one subtraction:
``(b - a) & guard`` is zero exactly when a divides b, because the lowest
field where b is smaller borrows and sets its guard bit.  A degree of
:data:`MAX_DEGREE` + 1 = 2^(W-1) or more raises
:class:`~tjspectra.errors.TjspectraError`: in the input, read off its top
field as it enters, and in a term the
engine forms before it knows a highest corner N <= 2^(W-1) (below), after
which such terms are dropped.  So no kept term reaches a guard bit, and no
field carries into the next.  The limit and its message are defined in
:mod:`~tjspectra.poly`, whose parser refuses a group power beyond the
limit before it expands it.  The pair loop reads two more values off the
fields.  The support mask ``((m | guard) - ones) & guard``, with ones
holding 1 in each exponent field, keeps the guard bit of each variable
with a nonzero exponent: two leads are coprime (the product criterion)
when their masks share no bit, and a lead is a pure power of x_v when its
mask is v's guard bit alone, or 1 when its mask is 0.  The lcm takes the
larger exponent field by field: ``((a | guard) - b) & guard`` marks the
fields where a's exponent is at least b's, and the mark, spread over its
field, picks a's field or b's.  The lcm's degree, the sum of its fields,
is their product by ones shifted up one field, read in the degree field;
every partial sum in that product is at most 2*MAX_DEGREE < 2^W, so no
field carries there either.  Each basis element keeps its packed lead and
its mask, each heap entry carries its pair's packed lcm, and the colength
is counted on the packed leads too; only :func:`local_std_basis` unpacks
them, for its result's lead exponents.  Generators enter and leave as
their ``Poly``'s packed maps, and ``milnor`` and ``tjurina`` build neither
a ``Poly`` nor a result: they form each partial derivative on f's map.

Highest-corner cut (Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, 1.7; Singular's ``noether``).  Once the leads hold a
pure power x_v^(p_v) of every variable, let N = sum(p_v - 1) + 1.  Every
monomial of degree N or more has some exponent e_v >= p_v, so it is a
multiple of a lead: the lead ideal contains m^N, and for a local degree
order that gives m^N in I (Nakayama).  So I = I + m^N, and the engine
computes a standard basis of I + m^N with the monomials of m^N left
implicit: reducing by them drops every term of degree N or more, which the
step that combines two polynomials does as it builds them, and their
S-pairs reduce to zero.  The leads then span the lead ideal of I below
degree N, and the pure powers span it from N on, so the colength is
unchanged.  N only falls, as smaller pure powers enter, and the S-pairs
whose lead lcm has degree N or more are dropped unformed: once N is known
such a pair is never made, and one made before N fell ends the loop when
it is popped, as every pair after it is past N too.

One-term cut.  A basis element with one term, c*m, puts the monomial m in
the ideal, and with it every multiple of m.  So the engine drops from each
generator as it enters, and from each polynomial that the combining step
builds, every term that such an m divides; a generator left with no term
does not enter.  Dropping the term c'*m' is subtracting (c'/c)*(m'/m) times
c*m, a reduction whose product has lead m', at most the lead of the
polynomial it is dropped from, so every weak normal form keeps its
standard representation, as under the highest-corner cut.  Without it, a
remainder that keeps a term such as y^k, which the one-term element
y^(k-1) divides, can climb for about 0.7*k reduction steps towards the
highest corner while its coefficients grow.  Every polynomial that the
pair loop enters comes out of the combining step, so only the input
generators are filtered as they enter.

Euler remainder of f (K. Saito, *Invent. Math.* 14, 1971: f lies in its
Jacobian ideal J exactly when f is quasi-homogeneous).  Suppose f has
exactly one pure power x_v^(p_v) of each variable, let D = lcm(p_v), and
let g = D*f - sum (D/p_v)*x_v*df/dx_v.  A term c*m of f gives the term
c*(D - sum (D/p_v)*e_v(m))*m of g, which is 0 exactly when m has weighted
degree sum e_v/p_v = 1: the pure powers and every other term of the
weight-1 face cancel.  g - D*f lies in J and D is not 0, so (J, f) and
(J, g) are the same ideal, and tau is the same number.  Where g has one
term, ``tjurina`` hands the engine the partials and that term's monomial
in place of f; where g is 0, f is quasi-homogeneous and the partials
alone.  For a semi-weighted-homogeneous f, such as swh(a, b, c, d) =
x^a + y^b + x^(a-1-c)*y^(b-1-d), the monomial is f's one term off the
face, here the corner x^(a-1-c)*y^(b-1-d), and the one-term cut drops its
multiples from every polynomial the pair loop forms.  One pass finds f's
pure powers by their support masks, and the weighted degree of the other
terms is read off their fields.  A
remainder of two or more terms is left alone and f goes in: in place of
f it made ``tjurina`` on one 3-variable input run past 40 s, where f
takes under a millisecond, and took another from under a millisecond to
4 s.  A monomial brings no coefficients of its own: reducing by it only
drops terms, which the one-term cut does as they are formed.  The ideal
equality holds for any weights; with two pure powers of one variable, or
none, f names no weight for it that cancels a face, and f goes in too.

Chain criterion (Buchberger's second criterion: B. Buchberger, EUROSAM
1979; R. Gebauer and H. M. Moller, *J. Symb. Comp.* 6, 1988).  Besides the
pairs with coprime leads (the product criterion), a popped pair (i, j) is
skipped, never formed or reduced, when some other lead k divides
lcm(lm_i, lm_j) and neither (i, k) nor (j, k) is still pending: each was
popped before, or dropped by the product criterion.  The syzygy of the
leads of (i, j) is then a sum of monomial multiples of those of (i, k) and
(k, j), so the standard representations those two pairs already have give
one for the S-polynomial of (i, j).  That is a statement about syzygies of
lead monomials, which uses no property of a global order, so it holds for
the local degree order too.  Only pairs already off the heap may vouch for
a skip, so two skipped pairs never rest on each other.  The scan reads
"neither is pending" as k in neither the partner set of i nor that of j:
two set lookups for each lead k that divides the lcm.  A pair never made
because it lies past the highest corner counts as done.  That changes no
skip: a pair that it could vouch for has an lcm divisible by its own, so
that pair lies past the corner too, and the loop ends before its scan.

Coefficient arithmetic is exact and integer throughout: the engine works
on integer term maps, with the content divided out after every reduction
to bound coefficient growth, and the oracle row-reduces fraction-free,
storing each pivot row content-free.  The oracle (:func:`colength_oracle`)
keys its rows by a monomial's rank among the monomials of degree at most
its cap, sorted with :func:`_lead_key` on exponent tuples, and looks a
rank up through the monomial's base-(cap + 1) code, the sum of
e_v * (cap + 1)^v, read off a ``Poly``'s fields with shifts of its own,
so the code of a product is the sum of the codes.  The
table also gives each rank's axis, v for a pure power x_v^k and None
otherwise, so the oracle finds its pure-power leads from their ranks.  This
column table depends on (nvars, cap) alone: it is built once, as tuples,
and kept for the last 16 pairs called (:func:`_columns`).  It calls no
method of the packing, so that a packing fault cannot agree with itself.

Rows that earlier generators span (the criterion of F5: J.-C. Faugere,
ISSAC 2002).  The oracle takes the generators in the caller's order.
Before the rows of g_i, it takes the leads of the pivots made so far, the
lead set of the span V of every row of g_1, ..., g_(i-1), and skips each
multiple m*g_i whose multiplier m is among them.  The span does not
change.  If h in V has lead m, then m*g_i = h*g_i - (h - m)*g_i.
Truncating h*g_i at the cap lands in V: h is the truncation of a sum of
multiples u*g_j with j < i, the part that truncation cut off makes only
terms above the cap when multiplied by g_i, and the truncation of each
(u*t)*g_j, for a term t of g_i, is a row of g_j or zero.  And (h - m)*g_i
combines rows of g_i whose multipliers come after m in the local order,
each one kept or, by the same argument from the last multiplier up, in
the span of V and the kept rows.  So the leads, both dimensions and every
answer stay the same, while fewer rows reduce to zero: on the Tjurina
ideal of ``(y^2-x^3)^2-x^6*y`` at cap 14, 126 rows with 22 zero rows, where
every multiple made 210 rows with 106 zero rows.  Only earlier generators
may vouch: a lead made by a row of g_i itself would put a multiple of
g_i^2 in place of m*g_i, which V need not span.

The oracle reads its two caps N and N+1 from one elimination, at N+1.
Truncating the cap-(N+1) span to degree <= N gives the cap-N span, because
the multiples added at N+1 lie wholly in degree N+1.  A pivot's lead is its
lowest-degree term, so truncation keeps it: the cap-N leads are exactly the
pivot leads of degree <= N.
"""

from functools import lru_cache
from heapq import heappop, heappush
from itertools import product
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import TjspectraError
from .poly import (_FIELD_MASK, _PACKINGS, FIELD_BITS, MAX_DEGREE, Exponent, PackedPoly, Poly,
                   _Packing, _too_large, _unchecked)

INFINITE = "infinite"


# --- integer-coefficient plumbing ---

def _strip_content(p: PackedPoly) -> PackedPoly:
    g = gcd(*p.values())
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    return p


def _lead_key(e: Exponent):
    """Sort key: smaller key = larger monomial in the local degree order.
    The one encoding of the order on exponent tuples; the packed ints of
    the engine compare the same way."""
    return sum(e), e[::-1]


# --- the pair loop, on packed monomials ---

def _drop_multiples(p: PackedPoly, monomials: Sequence[int], guard: int) -> PackedPoly:
    """p without the terms that one of the packed monomials divides.  A
    plain loop: a generator per term costs twice as much."""
    out = {}
    for m, c in p.items():
        for u in monomials:
            if not (m - u) & guard:
                break
        else:
            out[m] = c
    return out


def _combine(f: PackedPoly, df: int, a: int, g: PackedPoly, dg: int, b: int,
             cut: int, monomials: Sequence[int], guard: int) -> PackedPoly:
    """a*x^df*f - b*x^dg*g with every term at or above cut, and every term
    that one of the packed monomials divides, dropped, content removed: the
    one step that makes S-polynomials and reductions."""
    out = {k: a * c for m, c in f.items() if (k := m + df) < cut}
    for m, c in g.items():
        m += dg
        if m < cut:
            s = out.get(m, 0) - b * c
            if s:
                out[m] = s
            else:
                del out[m]
    if monomials:
        out = _drop_multiples(out, monomials, guard)
    return _strip_content(out)


def _mora_nf(h: PackedPoly, cut: int, exact: bool, basis: list, monomials: list[int],
             guard: int, shift: int) -> Optional[tuple[PackedPoly, int]]:
    """Mora's weak normal form of h with respect to the basis, with its
    lead, or None when it is 0; cut and exact are _std_int's.

    Reducers are chosen with minimal ecart, earliest-generated first;
    intermediate remainders with larger ecart join the reducer pool, which
    is what makes the loop terminate for local orders.  The pool is the
    basis itself until the first remainder joins it.
    """
    pool = basis
    while h:
        lm_h = min(h)
        best = None
        for r in pool:
            if (best is None or r[2] < best[2]) and not (lm_h - r[1]) & guard:
                best = r
                if not r[2]:
                    break
        if best is None:
            return h, lm_h
        g, lm_g, ec_g = best
        if ec_g:
            deg_h = lm_h >> shift
            if exact and deg_h + ec_g >= cut >> shift:
                raise _too_large(deg_h + ec_g)
            ec_h = (max(h) >> shift) - deg_h
            if ec_g > ec_h:
                if pool is basis:
                    pool = basis.copy()
                pool.append((h, lm_h, ec_h))
        cf, cg = h[lm_h], g[lm_g]
        d = gcd(cf, cg)
        h = _combine(h, 0, cg // d, g, lm_h - lm_g, cf // d, cut, monomials, guard)
    return None


def _std_int(gens: Iterable[PackedPoly], packing: _Packing
             ) -> tuple[list, list[int], list[Optional[int]]]:
    """Standard basis of the ideal generated by the packed gens (Buchberger
    + Mora NF, with the highest-corner cut): the (generator, lead, ecart)
    triples in the order they were produced, the packed leads in that
    order, and the least pure-power exponent among the leads of each
    variable (None where no lead is a pure power of it; all 0 after the
    lead 1).  A generator loses every term that the monomial of a one-term
    basis element divides, and one that loses all its terms does not enter.

    Each generator's lead, ecart and support mask are computed once, when
    it enters the basis, and nothing is unpacked.  Pending S-pairs sit
    on one heap as (lcm degree, seq, packed lcm, i, j): the least lcm
    degree first, and among ties the pair made last; seq falls by one per
    pair, so the lcm is never compared.  Once the highest corner is known,
    a pair whose lcm degree reaches it is never pushed.  For the chain
    criterion, `partners[i]` holds the k whose pair with i is on the heap,
    and `lms` the packed leads in basis order.  One loop enters the input
    generators, then the normal forms of the pairs, with no closure.
    """
    nvars, shift, guard, axes = packing.nvars, packing.shift, packing.guard, packing.axes
    support, lcm_of = packing.support, packing.lcm
    basis: list[tuple[PackedPoly, int, int]] = []
    lms: list[int] = []
    supports: list[int] = []
    pairs: list[tuple[int, int, int, int, int]] = []
    partners: list[set[int]] = []
    seq = 0
    pure: list[Optional[int]] = [None] * nvars  # least pure-power exponent per variable
    monomials: list[int] = []  # the packed monomials of the one-term basis elements
    # Terms of degree `top` or more are dropped.  Until the highest corner
    # is at most MAX_DEGREE + 1, `exact` holds and forming such a term
    # raises instead: dropping it would change the ideal.
    top, exact = MAX_DEGREE + 1, True
    gens = iter(gens)
    while True:
        g = next(gens, None)
        if g is not None:
            # the loop's own polynomials come from _combine, which drops these terms
            if monomials:
                g = _strip_content(_drop_multiples(g, monomials, guard))
            if not g:
                continue
            lm_j = min(g)
        elif pairs:
            degree, _, lcm, i, j = heappop(pairs)
            partners_i, partners_j = partners[i], partners[j]
            partners_i.remove(j)
            partners_j.remove(i)
            if degree >= top and not exact:
                break  # every term of this S-polynomial, and of all later ones, is cut
            (f, lm_f, ec_f), (g, lm_g, ec_g) = basis[i], basis[j]
            if exact and degree + max(ec_f, ec_g) >= top:
                raise _too_large(degree + max(ec_f, ec_g))
            # chain criterion: a lead k dividing the lcm whose pairs with i and j
            # are both done makes this S-polynomial redundant (module docstring)
            nf = None
            for k, lm_k in enumerate(lms):
                if (not (lcm - lm_k) & guard and k != i and k != j
                        and k not in partners_i and k not in partners_j):
                    break
            else:
                cf, cg = f[lm_f], g[lm_g]
                d = gcd(cf, cg)
                cut = top << shift
                nf = _mora_nf(_combine(f, lcm - lm_f, cg // d, g, lcm - lm_g, cf // d, cut,
                                       monomials, guard), cut, exact, basis, monomials,
                              guard, shift)
            if nf is None:
                continue
            g, lm_j = nf
        else:
            break
        # g enters the basis as element j, with lead lm_j
        j = len(basis)
        s_j = support(lm_j)
        partners_j = set()
        for i, lm_i in enumerate(lms):
            # product criterion: coprime lead monomials reduce to zero
            if supports[i] & s_j:
                lcm = lcm_of(lm_i, lm_j)
                degree = lcm >> shift
                if exact or degree < top:  # else every term is cut: never made
                    seq -= 1
                    heappush(pairs, (degree, seq, lcm, i, j))
                    partners[i].add(j)
                    partners_j.add(i)
        partners.append(partners_j)
        degree = lm_j >> shift
        basis.append((g, lm_j, (max(g) >> shift) - degree))
        lms.append(lm_j)
        supports.append(s_j)
        if len(g) == 1:
            monomials.append(lm_j)
        for v in axes.get(s_j, ()):  # a pure power of x_v, or 1
            if pure[v] is None or degree < pure[v]:
                pure[v] = degree
                if None not in pure:
                    corner = sum(pure) - nvars + 1
                    if corner <= top:
                        top, exact = corner, False
    return basis, lms, pure


def _colength_of_leads(lms: Sequence[int],
                       bounds: Sequence[Optional[int]]) -> Union[int, str]:
    """Number of monomials that no packed lead divides, or INFINITE without
    a pure power of every variable; bounds are the least pure-power
    exponents among the leads, as _std_int returns them (0 after the lead 1).

    Counted by slicing on the last variable (module docstring).  Between
    two cuts the leads that can divide a monomial stay the same, so each
    slice is its width times the count, in the fields below, under them.
    The pure powers of the other variables have last exponent 0, so every
    slice has a lead of each of them.
    """
    if None in bounds:
        return INFINITE
    if 0 in bounds:
        return 0
    *rest, last = bounds
    if not rest:  # the least exponent: in one variable the degree field, if
        return min(lms) & _FIELD_MASK  # any is left, repeats the exponent
    shift = len(rest) * FIELD_BITS  # the last variable's field
    exponents, lower = (1 << shift + FIELD_BITS) - 1, (1 << shift) - 1
    one = shift == FIELD_BITS  # one variable below: the count is its least exponent
    total, lo, below = 0, 0, []
    for m in sorted([m & exponents for m in lms]):
        e = m >> shift
        if e >= last:
            break
        if e > lo:
            total += (e - lo) * (min(below) if one else _colength_of_leads(below, rest))
            lo = e
        below.append(m & lower)
    return total + (last - lo) * (min(below) if one else _colength_of_leads(below, rest))


# --- public surface ---

def _shared_nvars(gens: Sequence[Poly]) -> int:
    nvars = {g.nvars for g in gens}
    if len(nvars) != 1:
        raise ValueError("need one or more generators, all in the same number of "
                         f"variables; got numbers {sorted(nvars)}")
    return nvars.pop()


class StdBasisResult(NamedTuple):
    """A standard basis, its lead exponents and its colength (an int or INFINITE)."""
    generators: tuple[Poly, ...]
    lead_exponents: tuple[Exponent, ...]
    colength: Union[int, str]


def local_std_basis(gens: Sequence[Poly]) -> StdBasisResult:
    """Standard basis under the local degree order, with its colength.

    Output is deterministic for fixed input: generators appear in the order
    they were produced, normalized to integer content-free form.  Those
    made once the highest corner is known have no term at or above it, and
    none has a term that the monomial of an earlier one-term generator
    divides (module docstring); an input generator left with no term is
    not returned.  TjspectraError for a term beyond MAX_DEGREE, in gens or on the way.
    """
    nvars = _shared_nvars(gens)
    packing = _PACKINGS[nvars]
    for g in gens:
        _check_degree(g.packed, packing.shift)
    basis, lms, pure = _std_int((_strip_content(g.packed) for g in gens), packing)
    return StdBasisResult(tuple(_unchecked(g, nvars) for g, _, _ in basis),
                          tuple(map(packing.unpack, lms)), _colength_of_leads(lms, pure))


def _check_degree(p: PackedPoly, shift: int) -> None:
    """TjspectraError naming p's degree, max(p)'s top field, past MAX_DEGREE."""
    top = max(p, default=0)
    if top >= (MAX_DEGREE + 1) << shift:
        raise _too_large(top >> shift)


def _colength(f: Poly, ideal: str, if_zero: str, with_f: bool = False) -> int:
    """Colength of the ideal of f's partial derivatives, with f itself when
    with_f is set (f's `ideal`); TjspectraError when no generator is
    nonzero or the colength is infinite, and when f has a term beyond
    MAX_DEGREE.  The partials are formed on f's packed map.  With f, where
    f's Euler remainder has at most one term, its monomial, if any, takes
    f's place (module docstring).
    """
    packing = _PACKINGS[f.nvars]
    guard, ones, axis, shift = packing.guard, packing.ones, packing.axis, packing.shift
    packed = f.packed
    _check_degree(packed, shift)  # within the limit, no exponent reaches a guard bit
    gens = []
    for k, x_v in zip(packing.offsets, packing.variables):  # as in Poly.derivative
        partial = {m - x_v: c * e for m, c in packed.items() if (e := (m >> k) & _FIELD_MASK)}
        if partial:
            gens.append(_strip_content(partial))
    if with_f and packed:
        powers: dict[int, int] = {}  # v -> the exponent of a pure power of x_v in f
        npure, others = 0, []        # the number of f's pure powers, and its other terms
        for m in packed:
            v = axis.get(((m | guard) - ones) & guard)
            if v is None:
                others.append(m)
            else:
                npure += 1
                powers[v] = m >> shift
        remainder = None
        if npure == len(powers) == f.nvars:  # one pure power x_v^(p_v) of each variable
            # the monomials of D*f - sum (D/p_v)*x_v*df/dx_v: f's terms of
            # weighted degree sum e_v/p_v other than 1
            d = lcm(*powers.values())
            weights = [(d // powers[v], k) for v, k in enumerate(packing.offsets)]
            remainder = [m for m in others
                         if sum(w * ((m >> k) & _FIELD_MASK) for w, k in weights) != d]
        if remainder is not None and len(remainder) < 2:
            gens.extend({m: 1} for m in remainder)
        else:
            gens.append(_strip_content(packed))
    if not gens:
        raise TjspectraError(if_zero)
    _, lms, pure = _std_int(gens, packing)
    colength = _colength_of_leads(lms, pure)
    if colength == INFINITE:
        raise TjspectraError(f"{ideal} of {f} has infinite colength")
    return colength


def milnor(f: Poly) -> int:
    """Milnor number: colength of the Jacobian ideal."""
    return _colength(f, "Jacobian ideal", "all partial derivatives vanish identically")


def tjurina(f: Poly) -> int:
    """Tjurina number: colength of the ideal (df, f)."""
    if f.constant_term() != 0:
        raise TjspectraError("tjurina number requires f(0) = 0")
    return _colength(f, "ideal (df, f)", "zero polynomial", with_f=True)


# --- independent brute-force oracle ---

def _monomials_up_to(nvars: int, cap: int) -> list[Exponent]:
    return [e for e in product(range(cap + 1), repeat=nvars) if sum(e) <= cap]


@lru_cache(maxsize=16)
def _columns(nvars: int, cap: int) -> tuple[tuple, tuple, tuple, tuple, tuple, tuple]:
    """The oracle's columns for (nvars, cap), kept for the last 16 pairs
    called: the monomials of degree <= cap sorted by :func:`_lead_key`,
    their base-(cap + 1) codes and degrees, the place values (cap + 1)^v,
    the rank of each code's monomial among the columns, None past cap, and
    the axis of each rank: v for a pure power x_v^k with k > 0, else None."""
    monomials = tuple(sorted(_monomials_up_to(nvars, cap), key=_lead_key))
    powers = tuple((cap + 1) ** v for v in range(nvars))
    codes = tuple(sum(map(mul, e, powers)) for e in monomials)
    rank: list[Optional[int]] = [None] * (cap + 1) ** nvars
    for r, code in enumerate(codes):
        rank[code] = r
    axis: list[Optional[int]] = [None] * len(monomials)
    for v, place in enumerate(powers):
        for k in range(1, cap + 1):
            axis[rank[k * place]] = v
    return monomials, codes, tuple(map(sum, monomials)), powers, tuple(rank), tuple(axis)


def _pivot_rows(gens: Sequence[Poly], cap: int) -> tuple[tuple, dict[int, dict[int, int]]]:
    """Row-reduce the monomial multiples of gens, truncated at total degree cap.

    Returns the columns of :func:`_columns`, and the pivot rows, keyed like
    their terms by column rank, so a row's lead is ``min(row)``.  A
    monomial's rank is read off its base-(cap + 1) code, the sum of
    e_v * (cap + 1)^v, so the code of a product is the sum of the codes.
    Before the rows of a generator, the multipliers that are leads of
    pivots made so far are skipped (module docstring).  Elimination is
    fraction-free: a row whose lead has a pivot becomes a*row - b*pivot,
    with a and b the two lead coefficients divided by their gcd, and a new
    pivot row is stored with its content divided out.
    """
    nvars = gens[0].nvars
    columns, codes, degrees, powers, rank, _ = _columns(nvars, cap)
    shift = nvars * FIELD_BITS  # a Poly's packed monomial: the degree above W-bit exponents
    places = tuple(zip(range(0, shift, FIELD_BITS), powers))
    pivots: dict[int, dict[int, int]] = {}
    for g in gens:
        terms = [(sum([((m >> k) & _FIELD_MASK) * place for k, place in places]), cap - d, c)
                 for m, c in g.packed.items() if (d := m >> shift) <= cap]  # room: cap - degree
        room = max((r for _, r, _ in terms), default=-1)
        spanned = set(pivots)
        for m in range(comb(room + nvars, nvars)):  # the multipliers of degree <= room
            if m in spanned:
                continue
            dm, cm = degrees[m], codes[m]
            row = {rank[ce + cm]: c for ce, r, c in terms if dm <= r}
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = _strip_content(row)
                    break
                d = gcd(row[lead], piv[lead])
                a, b = piv[lead] // d, row[lead] // d
                if a != 1:  # else the fresh row is updated in place
                    row = {k: a * c for k, c in row.items()}
                for k, c in piv.items():
                    s = row.get(k, 0) - b * c
                    if s:
                        row[k] = s
                    else:
                        del row[k]
    return columns, pivots


def colength_oracle(gens: Sequence[Poly], degree_cap: int) -> Optional[int]:
    """Truncated linear-algebra colength; None when not stabilized.

    Accepts the dimension only when caps N and N+1 agree and the reduced
    span contains a pure power of every variable, which guards against
    false convergence on non-isolated input.  Both dimensions come from one
    elimination at N+1 (see the module docstring), read off its pivot
    leads alone: there are comb(N + n, n) monomials of degree <= N in n
    variables, and they are the first columns.
    """
    nvars = _shared_nvars(gens)
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be at least 0, got {degree_cap}")
    columns, pivots = _pivot_rows(gens, degree_cap + 1)
    low = comb(degree_cap + nvars, nvars)
    leads = [r for r in pivots if r < low]
    dim_n = low - len(leads)
    dim_n1 = len(columns) - len(pivots)
    if dim_n != dim_n1:
        return None
    # the variables with a pure power among the leads
    axis = _columns(nvars, degree_cap + 1)[5]
    axes = {axis[r] for r in leads} - {None}
    return dim_n if len(axes) == nvars else None
