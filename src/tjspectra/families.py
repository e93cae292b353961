"""Spectrum generators for the four explicit singularity families.

:data:`FAMILIES` maps each family name to its parameter class, whose
``instance`` method returns a :class:`TjurinaInstance`: the spectrum,
the Tjurina index subset, the defining polynomial that
:meth:`TjurinaInstance.cross_check` hands to the local-algebra engine, and
what only the family knows about them.

Index convention: within a group of equal spectral values the Tjurina
members are placed first, so the Tjurina subset is an initial run of each
level; this is the normal form the downstream index-based operations rely
on, and it does not change any value multiset.

Every spectrum is built from int numerators by :func:`_spectrum`, which
hands them to :func:`~tjspectra.spectra.spectrum_of_numerators`, marked as
ints by construction so that they are not scanned again, and turns a
failed range or symmetry check, the family's own fault and never the
input's, into InternalConsistencyError.  Brieskorn and Puiseux
produce them over their own denominator; the swh and three-monomial
lattices yield ``(Fraction, is_tjurina)`` pairs, which
:func:`_lattice_instance` maps to numerators once and sorts as int pairs.

A Puiseux f is a branch (``PuiseuxParams.validate``), so its engine tau must
have 4*tau > 3*mu, the answer to a question of Dimca and Greuel for branches
(M. Alberich-Carramiñana, P. Almirón, G. Blanco and A. Melle-Hernández,
Indiana Univ. Math. J. 70, 2021; Y. Genzmer and M. E. Hernandes, Trans.
Amer. Math. Soc. 373, 2020).
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from . import localg
from .errors import InternalConsistencyError, InvalidFamilyParameters
from .poly import Poly
from .spectra import Spectrum, _Checked, _numerators, spectrum_of_numerators


class TjurinaInstance(NamedTuple):
    spectrum: Spectrum
    tjurina_indices: frozenset[int]  # 1-based
    defining_poly: Poly
    family_tag: str
    swh: bool             # semi-weighted-homogeneous: Theorem 3.1 applies
    subset_assumed: bool  # tjurina_indices is assumed, not computed
    tau_checked: bool = False  # the engine computed or confirmed tau at build

    @property
    def mu(self) -> int:
        return self.spectrum.mu

    @property
    def tau(self) -> int:
        return len(self.tjurina_indices)

    def cross_check(self):
        """Recompute mu, and tau unless the engine computed or confirmed it
        at build, with the local-algebra engine; any mismatch is an
        internal error."""
        f = self.defining_poly
        self._engine_agrees("mu", localg.milnor(f))
        if not self.tau_checked:
            self._engine_agrees("tau", localg.tjurina(f))

    def _engine_agrees(self, name: str, number: int):
        """The one comparison with the engine: raise InternalConsistencyError
        unless ``number``, what the engine computes for the defining
        polynomial, equals this instance's ``name`` ("mu" or "tau")."""
        claimed = getattr(self, name)
        if number != claimed:
            raise InternalConsistencyError(
                f"{name} = {claimed} but the engine computes {number} for {self.defining_poly}")


class BrieskornParams(NamedTuple):
    """Weighted-homogeneous x^a + y^b."""
    a: int
    b: int

    def validate(self):
        if min(self.a, self.b) < 2:
            raise InvalidFamilyParameters(f"need a, b >= 2, got ({self.a}, {self.b})")

    def instance(self):
        return brieskorn_instance(self)


class SwhParams(NamedTuple):
    """Deformation x^a + y^b + x^(a-1-c) y^(b-1-d) of a Brieskorn point."""
    a: int
    b: int
    c: int
    d: int

    def validate(self):
        a, b, c, d = self
        BrieskornParams(a, b).validate()
        if c < 1 or d < 1:
            raise InvalidFamilyParameters("c and d must be positive")
        if not (2 * c < a and 2 * d < b):
            raise InvalidFamilyParameters(
                f"need c < a/2 and d < b/2, got (a,b,c,d)=({a},{b},{c},{d})")
        if (a - 1 - c) * b + (b - 1 - d) * a <= a * b:
            raise InvalidFamilyParameters(
                "the perturbing monomial is not above the weighted degree: "
                f"(a-1-c)/a + (b-1-d)/b <= 1 for (a,b,c,d)=({a},{b},{c},{d})")

    def instance(self):
        return swh_instance(self)


class ThreeMonomialParams(NamedTuple):
    """Newton non-degenerate f = x^a y^b + x^c + y^d."""
    a: int
    b: int
    c: int
    d: int

    def validate(self):
        a, b, c, d = self
        if not (2 <= a < b):
            raise InvalidFamilyParameters(f"need 2 <= a < b, got ({a}, {b})")
        if c < 1 or d < 1:
            raise InvalidFamilyParameters("c and d must be positive")
        if a * d + b * c >= c * d:  # a/c + b/d < 1
            raise InvalidFamilyParameters(
                f"need a/c + b/d < 1, got (a,b,c,d)=({a},{b},{c},{d})")

    def instance(self):
        return three_monomial_instance(self)


class PuiseuxParams(NamedTuple):
    """Irreducible plane curve branch with Puiseux pairs (a, b), (c, d)."""
    a: int
    b: int
    d: int
    q: int
    r: int

    @property
    def c(self) -> int:
        return self.b * self.q + self.a * self.r

    @property
    def e(self) -> int:
        return self.a * self.b * self.d + self.c

    def validate(self):
        if not (self.a > self.b > self.r > 0):
            raise InvalidFamilyParameters(f"need a > b > r > 0, got ({self.a}, {self.b}, {self.r})")
        if self.d < 1:
            raise InvalidFamilyParameters("d must be positive")
        if self.a * self.d + self.q <= 0:
            raise InvalidFamilyParameters(f"need a*d + q > 0, got {self.a * self.d + self.q}")
        if self.c <= 0:
            raise InvalidFamilyParameters(f"need c = b*q + a*r > 0, got {self.c}")
        if gcd(self.a, self.b) != 1:
            raise InvalidFamilyParameters(f"gcd(a, b) = {gcd(self.a, self.b)} != 1")
        if gcd(self.c, self.d) != 1:
            raise InvalidFamilyParameters(f"gcd(c, d) = {gcd(self.c, self.d)} != 1")

    def instance(self):
        return puiseux_instance(self)


# The instance methods call each generator by its module-level name, so a
# wrapper put in place of that name sees every call.
FAMILIES = {"brieskorn": BrieskornParams, "swh": SwhParams,
            "three-monomial": ThreeMonomialParams, "puiseux": PuiseuxParams}


def _spectrum(nums: list[int], L: int) -> Spectrum:
    """The family spectrum of the numerators k/L, values in (0, 2)."""
    try:
        return spectrum_of_numerators(_Checked(nums), L, 2)  # ints by construction
    except ValueError as exc:
        raise InternalConsistencyError(str(exc)) from None


def _lattice_instance(pairs, f: Poly, family_tag: str, swh: bool) -> TjurinaInstance:
    """The instance whose spectrum is the values of the (value, is_tjurina)
    pairs, sorted with the Tjurina members first among equal values, and
    whose Tjurina subset is the indices of the members.

    The values are mapped to int numerators k over their least common
    denominator L once, and the sort runs on the int pairs (k, not is_tjurina),
    so that no comparison goes through ``Fraction``."""
    pairs = list(pairs)
    nums, L = _numerators([v for v, _ in pairs], 1)
    ordered = sorted(zip(nums, [not tj for _, tj in pairs]))
    spectrum = _spectrum([k for k, _ in ordered], L)
    indices = frozenset(i for i, (_, later) in enumerate(ordered, 1) if not later)
    return TjurinaInstance(spectrum, indices, f, family_tag, swh=swh, subset_assumed=False)


def brieskorn_instance(params: BrieskornParams) -> TjurinaInstance:
    """Weighted-homogeneous instance x^a + y^b: its spectrum is {i/a + j/b},
    built from the numerators i*b + j*a over a*b, and mu = tau = (a-1)(b-1),
    so the Tjurina subset is the whole spectrum."""
    params.validate()
    a, b = params
    spectrum = _spectrum([i * b + j * a for i in range(1, a) for j in range(1, b)], a * b)
    return TjurinaInstance(spectrum, frozenset(range(1, spectrum.mu + 1)),
                           Poly({(a, 0): 1, (0, b): 1}, 2), f"brieskorn({a},{b})",
                           swh=True, subset_assumed=False)


def swh_instance(params: SwhParams) -> TjurinaInstance:
    """Semi-weighted-homogeneous instance x^a + y^b + x^(a-1-c) y^(b-1-d).

    The spectrum is that of x^a + y^b (invariance of the spectrum under
    mu-constant deformation); a pair (i, j) contributes a Tjurina index
    exactly when i < a - c or j < b - d.
    """
    params.validate()
    a, b, c, d = params
    pairs = [(Fraction(i, a) + Fraction(j, b), i < a - c or j < b - d)
             for i in range(1, a) for j in range(1, b)]
    inst = _lattice_instance(pairs, Poly({(a, 0): 1, (0, b): 1, (a - 1 - c, b - 1 - d): 1}, 2),
                             f"swh({a},{b},{c},{d})", swh=True)

    if inst.tau != (a - 1) * (b - 1) - c * d:
        raise InternalConsistencyError("Tjurina count disagrees with (a-1)(b-1) - cd")
    # closed-form check on the Tjurina value sum
    #   sum_T alpha_i = (a-1)(b-1) - ((2a-1-c)/a + (2b-1-d)/b) cd/2,
    # multiplied by 2ab L to run on the numerators alpha_i = k_i / L
    nums, L = inst.spectrum.nums, inst.spectrum.L
    actual_sum = sum(nums[i - 1] for i in inst.tjurina_indices)
    expected_sum = (2 * a * b * (a - 1) * (b - 1)
                    - ((2 * a - 1 - c) * b + (2 * b - 1 - d) * a) * c * d) * L
    if 2 * a * b * actual_sum != expected_sum:
        raise InternalConsistencyError("Tjurina value sum disagrees with the closed form")
    return inst


def _three_monomial_side(a, b, c, d):
    """Yield (spectral value, is_tjurina) over the points (i, j) under the
    diagonal, 0 < j < b and a*j/b < i < a*j/b + c, of value i/c + j(c-a)/(bc);
    the Tjurina part drops i > c and the wall {i = c, j > d - b}."""
    for j in range(1, b):
        for i in range(a * j // b + 1, -((-a * j - b * c) // b)):
            yield Fraction(i, c) + Fraction(j * (c - a), b * c), i < c or (i == c and j <= d - b)


def _three_monomial_lattice(params: ThreeMonomialParams):
    """Yield (spectral value, is_tjurina) over the lattice set Lambda:
    Lambda_0 on the diagonal i/a = j/b, Tjurina up to value 1, Lambda_1 under
    it and Lambda_2, its mirror with (a, b, c, d) and (i, j) swapped, over it.
    The walls {i = c, j > d - b} and {j = d, i > c - a} are empty unless
    2b > d + 1 and 2a > c + 1 respectively.  The rule is checked, not derived
    from the paper's condition 8.1.  :func:`three_monomial_instance` compares
    its tau with ``localg.tjurina`` at every build, one
    ``TjurinaInstance._engine_agrees`` call; that gate is what refused the
    292 tuples of a <= 8, b <= 11, c, d <= 30 that the rule miscounted
    before it had the wall over the diagonal, so it stays.  The tests check
    each level against colength(J_f + (f) + N_alpha)."""
    a, b, c, d = params
    g = gcd(a, b)
    for k in range(1, 2 * g):
        yield Fraction(k, g), k <= g  # point (k*a/g, k*b/g)
    yield from _three_monomial_side(a, b, c, d)
    yield from _three_monomial_side(b, a, d, c)


def three_monomial_instance(params: ThreeMonomialParams) -> TjurinaInstance:
    """Instance for f = x^a y^b + x^c + y^d via Newton-polygon lattice sets;
    a lattice tau the engine contradicts is an InternalConsistencyError."""
    params.validate()
    a, b, c, d = params
    f = Poly({(a, b): 1, (c, 0): 1, (0, d): 1}, 2)
    inst = _lattice_instance(_three_monomial_lattice(params), f,
                             f"three_monomial({a},{b},{c},{d})", swh=False)
    if inst.mu - inst.tau != (a - 1) * (b - 1) + max(2 * b - d - 1, 0) + max(2 * a - c - 1, 0):
        raise InternalConsistencyError("lattice exclusion count disagrees with the closed form")
    inst._engine_agrees("tau", localg.tjurina(f))
    return inst._replace(tau_checked=True)


def puiseux_spectrum(params: PuiseuxParams) -> Spectrum:
    """Spectrum from the Puiseux pairs (a, b), (c, d), on integer numerators
    over L = d*lcm(e, ab).

    The values below 1 are i/e + j/d = (i*d + j*e)/(ed) < 1 and
    (i/a + j/b + k)/d = (i*b + j*a + k*ab)/(abd) with i/a + j/b < 1 and
    0 <= k < d; the values above 1 are their reflections 2 - alpha, whose
    numerators are 2L - k.
    """
    params.validate()
    a, b, d, e = params.a, params.b, params.d, params.e
    m = lcm(e, a * b)
    L = d * m
    lower: list[int] = []
    per_ed = m // e  # 1/(ed) is per_ed/L
    for i in range(1, -(-e * (d - 1) // d)):  # i < e(d-1)/d, or no j gives a value below 1
        # j = 1, 2, ... while the value stays below 1, which forces j < d
        lower.extend(range((i * d + e) * per_ed, L, e * per_ed))
    per_abd = m // (a * b)  # 1/(abd) is per_abd/L
    for i in range(1, a):
        for t in range(i * b + a, a * b, a):  # t = i*b + j*a < ab
            lower.extend(range(t * per_abd, L, a * b * per_abd))  # k = 0, ..., d-1
    return _spectrum([*lower, *map(sub, repeat(2 * L), lower)], L)


def puiseux_instance(params: PuiseuxParams) -> TjurinaInstance:
    """Instance for f = (y^b - x^a)^d - x^(ad+q) y^r.

    tau comes from the local-algebra engine (there is no closed form
    here).  The Tjurina subset is not computed: it is assumed to be
    [1..tau], i.e. the missing spectral numbers are the top mu - tau.
    An engine tau outside [1, mu], or at most 3*mu/4, is an internal error.
    """
    spectrum = puiseux_spectrum(params)
    a, b, d, q, r = params
    f = (Poly.monomial((0, b)) - Poly.monomial((a, 0))) ** d - Poly.monomial((a * d + q, r))
    tau = localg.tjurina(f)
    if not 1 <= tau <= spectrum.mu:
        raise InternalConsistencyError(
            f"the engine computes tau = {tau} outside [1, mu = {spectrum.mu}] for {f}")
    if 4 * tau <= 3 * spectrum.mu:  # a branch has 4*tau > 3*mu (module docstring)
        raise InternalConsistencyError(f"the engine computes tau = {tau} <= 3*mu/4 for {f}")
    return TjurinaInstance(spectrum, frozenset(range(1, tau + 1)), f,
                           f"puiseux({a},{b},{d},q={q},r={r})", swh=False, subset_assumed=True,
                           tau_checked=True)
