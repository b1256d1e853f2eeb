"""Exact arithmetic and norms for the supported normed division algebras.

Supported substrates: R, C, H over the reals, and Q_p together with its
unramified extensions Q_{p^d}.  Everything is computed at a fixed working
precision: the finest scale is radix^-m with radix 2 (real base) or p
(p-adic base).

Representation conventions:

* Real base: an element is a vector of integers in units of 2^-m, so the
  value of coordinate j is coords[j] * 2^-m.
* p-adic base: coords[j] * p^-unit_exp, with coords reduced modulo
  p^(m + unit_exp).  Integral elements have unit_exp = 0 and are plain
  residues mod p^m; quotients of small elements may carry unit_exp > 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByNegligible,
    NonPrime,
    ParameterRangeError,
    ReduciblePoly,
    UnsupportedRealDim,
)

REAL = "R"
PADIC = "Qp"


# ---------------------------------------------------------------------------
# small number-theory helpers

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer; raises on 0."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vq(q, p: int):
    """p-adic valuation of a rational (int or Fraction); None for 0."""
    q = Fraction(q)
    return None if q == 0 else vp(q.numerator, p) - vp(q.denominator, p)


def round_half_away(num: int, den: int) -> int:
    """Round num/den to the nearest integer, halves away from zero."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


# ---------------------------------------------------------------------------
# GF(p)[x] arithmetic (dense coefficient lists, low degree first)

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mulmod(a, b, f, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce modulo monic f
    d = len(f) - 1
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c:
            for j in range(d + 1):
                res[k - d + j] = (res[k - d + j] - c * f[j]) % p
    return _poly_trim(res[:d]) or [0]


def _poly_powmod(a, e, f, p):
    result = [1]
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_mod(a, b, p):
    """Remainder of a divided by b over GF(p); b need not be monic."""
    r = _poly_trim([c % p for c in a]) or [0]
    b = _poly_trim([c % p for c in b]) or [0]
    inv_lead = pow(b[-1], -1, p)
    while r != [0] and len(r) >= len(b):
        c = (r[-1] * inv_lead) % p
        shift = len(r) - len(b)
        for j in range(len(b)):
            r[shift + j] = (r[shift + j] - c * b[j]) % p
        r = _poly_trim(r) or [0]
    return r


def _poly_gcd(a, b, p):
    a = _poly_trim([c % p for c in a]) or [0]
    b = _poly_trim([c % p for c in b]) or [0]
    while b != [0]:
        a, b = b, _poly_mod(a, b, p)
    return a


def poly_is_irreducible(f, p) -> bool:
    """Rabin test for a monic polynomial over GF(p)."""
    f = list(f)
    d = len(f) - 1
    if d < 1 or f[-1] % p != 1:
        return False
    x = [0, 1]
    # x^(p^d) == x mod f
    h = x
    for _ in range(d):
        h = _poly_powmod(h, p, f, p)
    if _poly_trim([(a - b) % p for a, b in itertools.zip_longest(h, x, fillvalue=0)]) not in ([], [0]):
        return False
    # gcd(x^(p^(d/q)) - x, f) == 1 for prime divisors q of d
    for q in sorted({q for q in range(2, d + 1) if d % q == 0 and is_prime(q)}):
        h = x
        for _ in range(d // q):
            h = _poly_powmod(h, p, f, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(h, x, fillvalue=0)]
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


def find_irreducible_poly(p: int, d: int):
    """Lexicographically first monic irreducible polynomial of degree d mod p."""
    if d == 1:
        return (0, 1)
    for coeffs in itertools.product(range(p), repeat=d):
        f = list(coeffs) + [1]
        if poly_is_irreducible(f, p):
            return tuple(f)
    raise ReduciblePoly(f"no irreducible polynomial of degree {d} mod {p}")


# ---------------------------------------------------------------------------
# descriptors and elements

@dataclass(frozen=True)
class AlgebraDescriptor:
    base: str                 # REAL or PADIC
    p: int | None             # prime for PADIC, None for REAL
    d: int                    # dimension over the base field
    m: int                    # precision exponent: finest scale radix^-m
    structure_constants: tuple  # d x d table of length-d coefficient tuples
    poly: tuple | None = None  # defining polynomial (p-adic extensions)

    @property
    def radix(self) -> int:
        return 2 if self.base == REAL else self.p

    @property
    def is_real_base(self) -> bool:
        return self.base == REAL

    def kind(self) -> str:
        if self.base == REAL:
            return _real_kind(self.d)
        return "Qp" if self.d == 1 else "Qp_ext"


def _real_kind(d: int) -> str:
    """The real algebra of dimension d: R, C or H (KeyError otherwise)."""
    return {1: "R", 2: "C", 4: "H"}[d]


@dataclass(frozen=True)
class Element:
    coords: tuple
    unit_exp: int

    def __iter__(self):
        return iter(self.coords)


_QUATERNION_TABLE = (
    # e1=1, e2=i, e3=j, e4=k
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)),
    ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
)

_COMPLEX_TABLE = (
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
)


def _padic_structure_constants(poly, p, d, m):
    """e_i e_j = x^(i+j-2) reduced modulo the (lifted, monic) poly, mod p^m."""
    mod = p ** m
    # powers[t] = coeff vector of x^t mod poly, t = 0 .. 2d-2
    powers = []
    cur = [0] * d
    cur[0] = 1
    for t in range(2 * d - 1):
        powers.append(tuple(c % mod for c in cur))
        # multiply by x
        carry = cur[d - 1]
        cur = [0] + cur[:-1]
        if carry:
            for j in range(d):
                cur[j] = (cur[j] - carry * poly[j]) % mod
    table = tuple(
        tuple(powers[i + j] for j in range(d)) for i in range(d)
    )
    return table


def make_algebra(spec: str, p: int | None = None, d: int | None = None,
                 m: int = 8, poly=None) -> AlgebraDescriptor:
    """Construct a descriptor for one of R, C, H, Qp, Qp_ext."""
    if m < 1:
        raise ParameterRangeError("precision exponent m must be >= 1")
    if spec == "R":
        alg = AlgebraDescriptor(REAL, None, 1, m, (((1,),),))
    elif spec == "C":
        alg = AlgebraDescriptor(REAL, None, 2, m, _COMPLEX_TABLE)
    elif spec == "H":
        alg = AlgebraDescriptor(REAL, None, 4, m, _QUATERNION_TABLE)
    elif spec in ("Qp", "Qp_ext"):
        if p is None or not is_prime(p):
            raise NonPrime(f"p={p} is not prime")
        dd = 1 if spec == "Qp" else d
        if dd is None or dd < 1:
            raise ParameterRangeError("extension degree d must be >= 1")
        if dd == 1:
            poly = (0, 1)
        elif poly is None:
            poly = find_irreducible_poly(p, dd)
        else:
            poly = tuple(int(c) % p for c in poly[:-1]) + (1,)
            if len(poly) != dd + 1:
                raise ParameterRangeError("defining polynomial degree mismatch")
            if not poly_is_irreducible(list(poly), p):
                raise ReduciblePoly(f"{poly} is reducible mod {p}")
        sc = _padic_structure_constants(poly, p, dd, m) if dd > 1 else (((1,),),)
        alg = AlgebraDescriptor(PADIC, p, dd, m, sc, poly)
    else:
        raise UnsupportedRealDim(
            f"unknown algebra spec {spec!r}; the real base supports R, C, H")
    _check_invariants(alg)
    return alg


def _check_invariants(alg: AlgebraDescriptor) -> None:
    d = alg.d
    sc = alg.structure_constants
    ident = tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))
    for j in range(d):
        got = _reduce_vec(alg, sc[0][j], 0)
        want = _reduce_vec(alg, ident[j], 0)
        if got != want:
            raise ParameterRangeError("e_1 is not the multiplicative identity")
    # associativity, exhaustive over basis triples
    for i, j, k in itertools.product(range(d), repeat=3):
        left = _vec_mul(alg, _vec_mul(alg, _unit_vec(d, i), _unit_vec(d, j)),
                        _unit_vec(d, k))
        right = _vec_mul(alg, _unit_vec(d, i),
                         _vec_mul(alg, _unit_vec(d, j), _unit_vec(d, k)))
        if _reduce_vec(alg, left, 0) != _reduce_vec(alg, right, 0):
            raise ParameterRangeError("structure constants are not associative")


def _unit_vec(d, i):
    return tuple(1 if j == i else 0 for j in range(d))


def _vec_mul(alg, x, y):
    """Bilinear product of plain integer coefficient vectors (no rescaling)."""
    d = alg.d
    sc = alg.structure_constants
    out = [0] * d
    for i in range(d):
        xi = x[i]
        if not xi:
            continue
        for j in range(d):
            yj = y[j]
            if not yj:
                continue
            c = sc[i][j]
            w = xi * yj
            for k in range(d):
                if c[k]:
                    out[k] += w * c[k]
    return tuple(out)


def _reduce_vec(alg, v, unit_exp):
    if alg.is_real_base:
        return tuple(int(c) for c in v)
    mod = alg.p ** (alg.m + unit_exp)
    return tuple(int(c) % mod for c in v)


# ---------------------------------------------------------------------------
# element constructors and canonical form

def element(alg: AlgebraDescriptor, coords, unit_exp: int | None = None) -> Element:
    if unit_exp is None:
        unit_exp = alg.m if alg.is_real_base else 0
    coords = tuple(int(c) for c in coords)
    if len(coords) != alg.d:
        raise ParameterRangeError("coordinate length mismatch")
    return _canonical(alg, coords, unit_exp)


def _canonical(alg, coords, unit_exp) -> Element:
    if alg.is_real_base:
        return Element(tuple(coords), unit_exp)
    p = alg.p
    coords = list(coords)
    while unit_exp > 0 and all(c % p == 0 for c in coords):
        coords = [c // p for c in coords]
        unit_exp -= 1
    mod = p ** (alg.m + unit_exp)
    return Element(tuple(c % mod for c in coords), unit_exp)


def zero(alg: AlgebraDescriptor) -> Element:
    return element(alg, (0,) * alg.d)


def one(alg: AlgebraDescriptor) -> Element:
    if alg.is_real_base:
        return element(alg, (2 ** alg.m,) + (0,) * (alg.d - 1))
    return element(alg, (1,) + (0,) * (alg.d - 1))


def basis_element(alg: AlgebraDescriptor, j: int) -> Element:
    unit = 2 ** alg.m if alg.is_real_base else 1
    return element(alg, tuple(unit if i == j else 0 for i in range(alg.d)))


def _units_to_values(alg, row, unit_exp):
    """Exact rational values of integer coordinates in units radix^-unit_exp
    (unit_exp < 0: units radix^|unit_exp|)."""
    unit = Fraction(alg.radix) ** -unit_exp
    return tuple(int(c) * unit for c in row)


def value_coords(alg: AlgebraDescriptor, x: Element):
    """Exact rational coordinates of x in the standard basis."""
    return _units_to_values(alg, x.coords, x.unit_exp)


def _value_to_grid(alg, vals, scale_exp, radius_exp, op="_value_to_grid"):
    """Snap exact rational coordinates onto a grid (single rounding): real
    base rounded half away from zero to units 2^-scale_exp; p-adic base in
    units p^-radius_exp mod p^(scale_exp + radius_exp), with the units of
    every denominator inverted there.  A p-adic value below p^-radius_exp
    raises ParameterRangeError naming op."""
    if alg.is_real_base:
        scale = 2 ** scale_exp
        return tuple(round_half_away(v.numerator * scale, v.denominator)
                     for v in vals)
    p = alg.p
    mod = p ** (scale_exp + radius_exp)
    out = []
    for v in vals:
        num, den = v.numerator, v.denominator
        kv = vp(den, p)
        if kv > radius_exp:
            raise ParameterRangeError(f"{op}: value finer than p^-{radius_exp}")
        out.append(num * p ** (radius_exp - kv) * pow(den // p ** kv, -1, mod) % mod)
    return tuple(out)


def from_value_coords(alg: AlgebraDescriptor, values, padic_precision=None) -> Element:
    """Snap exact rational coordinates back to a representable element.

    Real base: one round-half-away-from-zero per coordinate onto the 2^-m
    grid.  p-adic base: denominators must be p-powers times units; units
    are inverted modulo the working precision.
    """
    values = [Fraction(v) for v in values]
    if alg.is_real_base:
        return Element(_value_to_grid(alg, values, alg.m, 0), alg.m)
    k = max((vp(v.denominator, alg.p) for v in values), default=0)
    prec = alg.m if padic_precision is None else padic_precision
    if prec < 1:
        raise DivisionByNegligible("no representable precision left")
    return _canonical(alg, _value_to_grid(alg, values, prec, k), k)


# ---------------------------------------------------------------------------
# ring operations

def _align(alg, x: Element, y: Element):
    if x.unit_exp == y.unit_exp:
        return x.coords, y.coords, x.unit_exp
    k = max(x.unit_exp, y.unit_exp)
    r = alg.radix
    xc = tuple(c * r ** (k - x.unit_exp) for c in x.coords)
    yc = tuple(c * r ** (k - y.unit_exp) for c in y.coords)
    return xc, yc, k


def add(alg: AlgebraDescriptor, x: Element, y: Element) -> Element:
    xc, yc, k = _align(alg, x, y)
    return _canonical(alg, tuple(a + b for a, b in zip(xc, yc)), k)


def neg(alg: AlgebraDescriptor, x: Element) -> Element:
    return _canonical(alg, tuple(-c for c in x.coords), x.unit_exp)


def sub(alg: AlgebraDescriptor, x: Element, y: Element) -> Element:
    return add(alg, x, neg(alg, y))


def mul(alg: AlgebraDescriptor, x: Element, y: Element) -> Element:
    """Algebra product; real base computes at doubled precision and rounds once."""
    raw = _vec_mul(alg, x.coords, y.coords)
    if alg.is_real_base:
        # raw is in units radix^-(ux+uy); round once to the 2^-m grid
        shift = x.unit_exp + y.unit_exp - alg.m
        if shift < 0:
            coords = tuple(c * 2 ** (-shift) for c in raw)
        else:
            q = 2 ** shift
            coords = tuple(round_half_away(c, q) for c in raw)
        return Element(coords, alg.m)
    return _canonical(alg, raw, x.unit_exp + y.unit_exp)


# ---------------------------------------------------------------------------
# norms, inverses, determinants

def norm_sq(alg: AlgebraDescriptor, x: Element) -> Fraction:
    """Exact squared Euclidean norm (real base only)."""
    if not alg.is_real_base:
        raise NotImplementedError("norm_sq is a real-base quantity")
    s = sum(c * c for c in x.coords)
    return Fraction(s, 4 ** x.unit_exp)


def norm_exp(alg: AlgebraDescriptor, x: Element):
    """-log_radix of the norm: min coordinate valuation (p-adic); None for 0."""
    if alg.is_real_base:
        raise NotImplementedError("norm_exp is a p-adic quantity")
    if all(c == 0 for c in x.coords):
        return None
    v = min(vp(c, alg.p) for c in x.coords if c != 0)
    return v - x.unit_exp


def _int_det(mat):
    """Exact determinant of a square integer matrix by Laplace expansion along
    the first row (d! terms: small for d <= 4)."""
    if not mat:
        return 1
    return sum((-1) ** j * c * _int_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, c in enumerate(mat[0]) if c)


def _int_inverse(alg: AlgebraDescriptor, coords):
    """(num, den) with w * (num / den) = e_1 for the integer vector w = coords.

    num is the first column of the adjugate of the integer left-multiplication
    matrix L_w (column j is w e_j) and den = det L_w, both divided by their
    gcd, with den > 0; on C and H this is conj(w) / |w|^2 in lowest terms.
    Raises DivisionByNegligible when det L_w = 0.
    """
    d = alg.d
    sc = alg.structure_constants
    L = [[sum(coords[i] * sc[i][j][k] for i in range(d)) for j in range(d)]
         for k in range(d)]
    # adj(L)[r][0] is the cofactor of L[0][r]; expanding det along row 0
    num = [(-1) ** r * _int_det([row[:r] + row[r + 1:] for row in L[1:]])
           for r in range(d)]
    det = sum(a * c for a, c in zip(L[0], num))
    if det == 0:
        raise DivisionByNegligible("difference is a zero divisor")
    g = math.gcd(det, *num) * (1 if det > 0 else -1)
    return tuple(c // g for c in num), det // g


def inv(alg: AlgebraDescriptor, x: Element) -> Element:
    """Multiplicative inverse, guarded by the inversion floor radix^-floor(m/2)."""
    m = alg.m
    floor_exp = m // 2
    if alg.is_real_base:
        if norm_sq(alg, x) < Fraction(1, 4 ** floor_exp):
            raise DivisionByNegligible("norm below the inversion floor")
        prec = None
    else:
        e = norm_exp(alg, x)
        if e is None or e > floor_exp or m - 2 * max(e, 0) < 1:
            raise DivisionByNegligible("norm below the inversion floor")
        prec = m - 2 * max(e, 0)
    try:
        num, den = _int_inverse(alg, x.coords)
    except DivisionByNegligible:
        raise DivisionByNegligible(
            "element is a zero divisor at this precision") from None
    # x = coords * radix^-unit_exp, so x^-1 = radix^unit_exp * num / den
    scale = alg.radix ** x.unit_exp
    return from_value_coords(alg, [Fraction(scale * c, den) for c in num],
                             padic_precision=prec)


def det_fraction(mat):
    """Exact determinant of a square matrix of Fractions."""
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        invp = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * invp
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def det_basis(alg: AlgebraDescriptor, vs):
    """Determinant of d candidate basis vectors.

    Real base: signed value, normalized so the standard basis gives 1.
    p-adic base: p-adic absolute value of the determinant.
    """
    if len(vs) != alg.d:
        raise ParameterRangeError(f"expected exactly {alg.d} elements")
    mat = [list(value_coords(alg, v)) for v in vs]
    det = det_fraction(mat)
    if alg.is_real_base:
        return det
    return Fraction(0) if det == 0 else Fraction(alg.p) ** -vq(det, alg.p)

