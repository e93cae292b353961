"""Local computer algebra at the origin: standard bases, Milnor and Tjurina numbers.

The monomial order is the local degree order: smaller total degree is
*larger*, ties broken by reverse lexicographic with x > y > z.  Standard
bases are computed with Mora's tangent-cone algorithm (ecart-controlled
weak normal form), which terminates for polynomial input.  Each basis
element's lead and ecart are computed once, when it enters the basis, and
every normal form starts its reducer pool from those stored triples.
Pending S-pairs wait on one heap ordered by the degree of their lead lcm,
ties going to the pair made last.  Colengths are counted from the leads
by staircase: for each exponent of the first n - 1 variables, the least
last exponent a lead allows.  An independent truncated linear-algebra
oracle (:func:`colength_oracle`) double-checks them.

Coefficient arithmetic is exact and integer throughout: the engine works
on the integer term maps of :class:`~tjspectra.poly.Poly` directly, with
the content divided out after every reduction to bound coefficient growth,
and the oracle row-reduces fraction-free, storing each pivot row
content-free.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, product
from math import gcd
from operator import add, le, mul, sub
from typing import Iterable, Optional, Sequence, Union

from .errors import NonIsolatedSingularity, NonzeroConstantTerm
from .poly import Exponent, IntPoly, Poly, add_terms, jacobian

INFINITE = "infinite"


# --- integer-coefficient plumbing ---

def _strip_content(p: IntPoly) -> IntPoly:
    g = gcd(*p.values())
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    return p


def _lead_key(e: Exponent):
    """Sort key: smaller key = larger monomial in the local degree order.
    The one encoding of the order, for the engine and the oracle alike."""
    return sum(e), e[::-1]


def _lead(p: IntPoly) -> Exponent:
    return min(p, key=_lead_key)


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _ecart(p: IntPoly, lm: Exponent) -> int:
    return max(map(sum, p)) - sum(lm)


def _mul_monomial(p: IntPoly, delta: Exponent, coeff: int) -> IntPoly:
    if not any(delta):
        return {e: coeff * c for e, c in p.items()}
    return {tuple(map(add, e, delta)): coeff * c for e, c in p.items()}


def _cancel(f: IntPoly, lm_f: Exponent, g: IntPoly, lm_g: Exponent,
            lcm: Exponent) -> IntPoly:
    """The combination of f and g whose terms at lcm cancel, content removed:
    their S-polynomial when lcm is the lcm of the leads, and one reduction
    step of f by g when lcm = lm_f."""
    cf, cg = f[lm_f], g[lm_g]
    d = gcd(cf, cg)
    return _strip_content(add_terms(_mul_monomial(f, tuple(map(sub, lcm, lm_f)), cg // d),
                                    _mul_monomial(g, tuple(map(sub, lcm, lm_g)), -(cf // d))))


Reducer = tuple[IntPoly, Exponent, int]  # (polynomial, lead, ecart)


def _mora_nf(f: IntPoly, basis: Sequence[Reducer]) -> IntPoly:
    """Mora's weak normal form of f with respect to basis.

    Reducers are chosen with minimal ecart, earliest-generated first;
    intermediate remainders with larger ecart join the reducer pool, which
    is what makes the loop terminate for local orders.  The pool starts as
    a copy of basis, whose leads and ecarts the caller computed once.
    """
    pool = list(basis)
    h = f
    while h:
        lm_h = _lead(h)
        best = None
        for r in pool:
            if (best is None or r[2] < best[2]) and _divides(r[1], lm_h):
                best = r
                if not r[2]:
                    break
        if best is None:
            return h
        if best[2]:
            ec_h = _ecart(h, lm_h)
            if best[2] > ec_h:
                pool.append((h, lm_h, ec_h))
        h = _cancel(h, lm_h, best[0], best[1], lm_h)
    return h


def _std_int(gens: Iterable[IntPoly]) -> list[Reducer]:
    """Standard basis of the ideal generated by gens (Buchberger + Mora NF),
    as (generator, lead, ecart) triples in the order they were produced.

    Each generator's lead and ecart are computed once, when it enters the
    basis.  Pending S-pairs sit on one heap keyed by (lcm degree, -seq): the
    least lcm degree first, and among ties the pair made last.
    """
    basis: list[Reducer] = []
    pairs: list[tuple[int, int, int, int]] = []
    seq = count()

    def enter(g: IntPoly) -> None:
        j = len(basis)
        lm_j = _lead(g)
        for i, (_, lm_i, _) in enumerate(basis):
            # product criterion: coprime lead monomials reduce to zero
            if any(map(mul, lm_i, lm_j)):
                heappush(pairs, (sum(map(max, lm_i, lm_j)), -next(seq), i, j))
        basis.append((g, lm_j, _ecart(g, lm_j)))

    for g in gens:
        if g:
            enter(dict(g))
    while pairs:
        _, _, i, j = heappop(pairs)
        (f, lm_f, _), (g, lm_g, _) = basis[i], basis[j]
        h = _mora_nf(_cancel(f, lm_f, g, lm_g, tuple(map(max, lm_f, lm_g))), basis)
        if h:
            enter(h)
    return basis


def _colength_of_leads(leads: Sequence[Exponent], nvars: int) -> Union[int, str]:
    """Number of standard monomials, or INFINITE without a pure power of
    every variable.

    Counted by staircase: over each point p of the box spanned by the first
    nvars - 1 exponents, the monomials (p, t) outside the lead ideal are
    those with t below the least last exponent of a lead whose other
    exponents divide p.  The pure power of the last variable always
    qualifies, so no count exceeds its exponent.  A lead that another lead
    divides lowers neither that least exponent nor a pure-power bound.
    """
    bounds = []
    for v in range(nvars):
        pure = [e[v] for e in leads if all(e[w] == 0 for w in range(nvars) if w != v)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    steps = sorted((e[-1], e[:-1]) for e in leads)
    total = 0
    for p in product(*(range(b) for b in bounds[:-1])):
        total += next(t for t, head in steps if _divides(head, p))
    return total


# --- public surface ---

def _shared_nvars(gens: Sequence[Poly]) -> int:
    nvars = {g.nvars for g in gens}
    if len(nvars) != 1:
        raise ValueError("need one or more generators, all in the same number of "
                         f"variables; got numbers {sorted(nvars)}")
    return nvars.pop()


@dataclass(frozen=True)
class StdBasisResult:
    generators: tuple[Poly, ...]
    lead_exponents: tuple[Exponent, ...]
    colength: Union[int, str]  # int or INFINITE


def local_std_basis(gens: Sequence[Poly]) -> StdBasisResult:
    """Standard basis under the local degree order, with its colength.

    Output is deterministic for fixed input: generators appear in the order
    they were produced, normalized to integer content-free form.
    """
    nvars = _shared_nvars(gens)
    basis = _std_int(_strip_content(g.terms) for g in gens)
    leads = tuple(lm for _, lm, _ in basis)
    return StdBasisResult(
        generators=tuple(Poly(g, nvars) for g, _, _ in basis),
        lead_exponents=leads,
        colength=_colength_of_leads(leads, nvars),
    )


def _colength(f: Poly, gens: list[Poly], ideal: str, if_zero: str) -> int:
    """Colength of the ideal that the nonzero gens generate (f's `ideal`);
    NonIsolatedSingularity when no gen is nonzero or the colength is infinite."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NonIsolatedSingularity(if_zero)
    result = local_std_basis(gens)
    if result.colength == INFINITE:
        raise NonIsolatedSingularity(f"{ideal} of {f} has infinite colength")
    return result.colength


def milnor(f: Poly) -> int:
    """Milnor number: colength of the Jacobian ideal."""
    return _colength(f, jacobian(f), "Jacobian ideal",
                     "all partial derivatives vanish identically")


def tjurina(f: Poly) -> int:
    """Tjurina number: colength of the ideal (df, f)."""
    if f.constant_term() != 0:
        raise NonzeroConstantTerm("tjurina number requires f(0) = 0")
    return _colength(f, jacobian(f) + [f], "ideal (df, f)", "zero polynomial")


# --- independent brute-force oracle ---

def _monomials_up_to(nvars: int, cap: int) -> list[Exponent]:
    return [e for e in product(range(cap + 1), repeat=nvars) if sum(e) <= cap]


def _span_pivots(gens: Sequence[Poly], cap: int) -> dict[Exponent, IntPoly]:
    """Row-reduce all monomial multiples of gens, truncated at total degree cap.

    Returns the pivot rows keyed by their lead monomial (local degree order).
    Elimination is fraction-free: a row whose lead has a pivot becomes
    a*row - b*pivot, with a and b the two lead coefficients divided by their
    gcd, and a new pivot row is stored with its content divided out.
    """
    pivots: dict[Exponent, IntPoly] = {}
    nvars = gens[0].nvars
    for g in gens:
        if g.is_zero():
            continue
        min_deg = min(sum(e) for e in g.terms)
        for m in _monomials_up_to(nvars, cap - min_deg):
            row = {}
            for e, c in g.terms.items():
                ee = tuple(map(add, e, m))
                if sum(ee) <= cap:
                    row[ee] = c
            while row:
                lead = _lead(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = _strip_content(row)
                    break
                d = gcd(row[lead], piv[lead])
                a, b = piv[lead] // d, row[lead] // d
                row = add_terms({e: a * c for e, c in row.items()},
                                {e: -b * c for e, c in piv.items()})
    return pivots


def _oracle_dim(gens: Sequence[Poly], cap: int) -> tuple[int, set[Exponent]]:
    pivots = _span_pivots(gens, cap)
    nmono = len(_monomials_up_to(gens[0].nvars, cap))
    return nmono - len(pivots), set(pivots)


def colength_oracle(gens: Sequence[Poly], degree_cap: int) -> Optional[int]:
    """Truncated linear-algebra colength; None when not stabilized.

    Accepts the dimension only when caps N and N+1 agree and the reduced
    span contains a pure power of every variable, which guards against
    false convergence on non-isolated input.
    """
    nvars = _shared_nvars(gens)
    dim_n, leads = _oracle_dim(gens, degree_cap)
    dim_n1, _ = _oracle_dim(gens, degree_cap + 1)
    if dim_n != dim_n1:
        return None
    for v in range(nvars):
        if not any(e[v] > 0 and all(e[w] == 0 for w in range(nvars) if w != v)
                   for e in leads):
            return None
    return dim_n
