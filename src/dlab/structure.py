"""Sub-algebra avoidance, escape bases, and the dense/sparse dichotomy.

Real sub-algebra families are finite nets of linear spans; p-adic
families are the proper unramified subfields, with Teichmueller-lift
bases.  All distance comparisons are exact (rational squared distances
over the reals, valuations over the p-adics).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra as al
from .algebra import AlgebraDescriptor, Element
from .dset import DSet, point_budget
from .errors import (
    BudgetExceeded,
    NotRealBase,
    ParameterRangeError,
    SubAlgebraTrapped,
)


# ---------------------------------------------------------------------------
# sub-algebra families

@dataclass(frozen=True)
class SubAlgebra:
    """Proper sub-algebra given by a spanning set in value coordinates."""
    name: str
    basis: tuple  # tuple of d-tuples of Fractions; empty tuple = {0}

    @property
    def dim(self):
        return len(self.basis)


@dataclass(frozen=True)
class SubAlgebraFamily:
    alg: AlgebraDescriptor
    members: tuple
    net_exp: int | None = None


def _imaginary_net(net_exp: int):
    """Directions on the unit sphere of Im(H): cube-surface grid points at
    spacing 2^-net_exp, unnormalized (spans are scale-invariant)."""
    n = 2 ** net_exp
    seen = set()
    out = []
    for face_axis in range(3):
        for sign in (1, -1):
            for u in range(-n, n + 1):
                for v in range(-n, n + 1):
                    vec = [0, 0, 0]
                    vec[face_axis] = sign * n
                    vec[(face_axis + 1) % 3] = u
                    vec[(face_axis + 2) % 3] = v
                    g = math.gcd(math.gcd(abs(vec[0]), abs(vec[1])), abs(vec[2]))
                    prim = tuple(c // g for c in vec)
                    if prim not in seen and tuple(-c for c in prim) not in seen:
                        seen.add(prim)
                        out.append(prim)
    return out


def _gf_mul(alg, a, b):
    """Product in the residue field F_p[x]/f via the structure constants."""
    return tuple(c % alg.p for c in al._vec_mul(alg, a, b))


def _gf_pow(alg, a, e):
    r = tuple([1] + [0] * (alg.d - 1))
    base = a
    while e:
        if e & 1:
            r = _gf_mul(alg, r, base)
        base = _gf_mul(alg, base, base)
        e >>= 1
    return r


def _prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1 by trial division up to sqrt(n)."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def residue_field_generator(alg):
    """Smallest multiplicative generator of F_{p^d} under the power basis."""
    p, d = alg.p, alg.d
    order = p ** d - 1
    one = tuple([1] + [0] * (d - 1))
    primes = _prime_factors(order)
    for coords in itertools.product(range(p), repeat=d):
        g = tuple(reversed(coords))  # low-degree-last iteration order
        if all(c == 0 for c in g):
            continue
        if all(_gf_pow(alg, g, order // q) != one for q in primes):
            return g
    raise RuntimeError("no generator found")  # unreachable for a field


def teichmuller_lift(alg, residue_coords, power: int = 1):
    """Element t with t reducing to residue_coords^power mod p and
    t^(p^d) = t mod p^m (Teichmueller representative)."""
    p, d, m = alg.p, alg.d, alg.m
    r = _gf_pow(alg, residue_coords, power)
    t = al.element(alg, r)
    for _ in range(m + 1):
        # x -> x^(p^d) contracts onto the Teichmueller point
        y = t
        for _ in range(d):
            z = y
            for _ in range(p - 1):
                z = al.mul(alg, z, y)
            y = z
        t = y
    return t


def subfield_basis(alg, e: int):
    """Basis {1, t, ..., t^(e-1)} of the unramified subfield of degree e."""
    p, d = alg.p, alg.d
    g = residue_field_generator(alg)
    t = teichmuller_lift(alg, g, (p ** d - 1) // (p ** e - 1))
    basis = [al.one(alg)]
    cur = al.one(alg)
    for _ in range(e - 1):
        cur = al.mul(alg, cur, t)
        basis.append(cur)
    return [al.value_coords(alg, b) for b in basis]


def subalgebra_family(alg, net_exp: int | None = None) -> SubAlgebraFamily:
    """All proper sub-algebras: {0}, R when present, spans of (1, u) over an
    imaginary-direction net (H), proper unramified subfields (p-adic)."""
    members = [SubAlgebra("zero", ())]
    d = alg.d
    if alg.is_real_base:
        one = tuple(Fraction(int(i == 0)) for i in range(d))
        if d >= 2:
            members.append(SubAlgebra("R", (one,)))
        if d == 4:
            if net_exp is None:
                net_exp = min((alg.m + 1) // 2, 4)
            for u in _imaginary_net(net_exp):
                vec = (Fraction(0),) + tuple(Fraction(c) for c in u)
                members.append(SubAlgebra(f"C[{u[0]},{u[1]},{u[2]}]", (one, vec)))
    else:
        for e in range(1, d):
            if d % e == 0:
                basis = tuple(tuple(v) for v in subfield_basis(alg, e))
                members.append(SubAlgebra(f"Qp^{e}", basis))
    return SubAlgebraFamily(alg, tuple(members), net_exp)


# ---------------------------------------------------------------------------
# distances

def _real_dist_sq(alg, vals, basis) -> Fraction:
    """Exact squared Euclidean distance to the span (normal equations)."""
    if not basis:
        return sum(v * v for v in vals)
    k = len(basis)
    gram = [[sum(basis[i][t] * basis[j][t] for t in range(alg.d))
             for j in range(k)] for i in range(k)]
    rhs = [sum(basis[i][t] * vals[t] for t in range(alg.d)) for i in range(k)]
    sol = al._solve_fraction(gram, rhs)
    proj = [sum(sol[i] * basis[i][t] for i in range(k)) for t in range(alg.d)]
    return sum((vals[t] - proj[t]) ** 2 for t in range(alg.d))


def _padic_val_of_fraction(p, v: Fraction):
    if v == 0:
        return None
    return al.vp(v.numerator, p) - al.vp(v.denominator, p)


def _padic_isometry_data(alg, basis):
    """Complete the basis to a mod-p invertible matrix with standard vectors;
    returns (matrix columns as Fractions, number of span columns)."""
    p, d = alg.p, alg.d
    cols = [list(b) for b in basis]
    # greedily extend by standard vectors keeping mod-p rank full
    def rank_mod_p(columns):
        mat = [[int(c[i] * 1) % p if isinstance(c[i], int)
                else (c[i].numerator * pow(c[i].denominator, -1, p)) % p
                for c in columns] for i in range(d)]
        r = 0
        rows = list(range(d))
        m2 = [row[:] for row in mat]
        for c in range(len(columns)):
            piv = next((i for i in rows if m2[i][c] % p), None)
            if piv is None:
                return -1  # dependent column
            rows.remove(piv)
            inv = pow(m2[piv][c], -1, p)
            for i in rows:
                f = m2[i][c] * inv % p
                for cc in range(len(columns)):
                    m2[i][cc] = (m2[i][cc] - f * m2[piv][cc]) % p
            r += 1
        return r
    for k in range(d):
        e = [Fraction(int(i == k)) for i in range(d)]
        if rank_mod_p(cols + [e]) == len(cols) + 1:
            cols.append(e)
        if len(cols) == d:
            break
    if len(cols) < d:
        raise RuntimeError("could not complete p-adic basis")
    return cols


def _padic_dist(alg, vals, basis) -> Fraction:
    """Exact p-adic distance to the Q_p-span (0 for membership at full
    rational precision)."""
    p = alg.p
    if not basis:
        vs = [v for v in vals if v != 0]
        if not vs:
            return Fraction(0)
        kmin = min(_padic_val_of_fraction(p, v) for v in vs)
        return Fraction(p) ** (-kmin)
    cols = _padic_isometry_data(alg, basis)
    d = alg.d
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    sol = al._solve_fraction(mat, list(vals))
    tail = [sol[j] for j in range(len(basis), d) if sol[j] != 0]
    if not tail:
        return Fraction(0)
    kmin = min(_padic_val_of_fraction(p, v) for v in tail)
    return Fraction(p) ** (-kmin)


def distance_sq_or_exact(alg, a: Element, member: SubAlgebra):
    """Exact comparator value: squared distance (real) or distance (p-adic)."""
    vals = al.value_coords(alg, a)
    if alg.is_real_base:
        return _real_dist_sq(alg, vals, member.basis)
    return _padic_dist(alg, vals, member.basis)


def distance_to_subalgebra(alg, a: Element, member: SubAlgebra) -> float:
    v = distance_sq_or_exact(alg, a, member)
    return math.sqrt(float(v)) if alg.is_real_base else float(v)


def _dist_ge(alg, a, member, thresh: Fraction) -> bool:
    """d(a, member) >= thresh, exactly."""
    v = distance_sq_or_exact(alg, a, member)
    return v >= thresh * thresh if alg.is_real_base else v >= thresh


# ---------------------------------------------------------------------------
# avoidance

@dataclass
class AvoidanceReport:
    passed: bool
    C: Fraction
    trapped: dict          # member name -> count within 1/C
    worst_member: str | None
    max_distance: dict     # member name -> float of the best escape distance
    sharp_passed: bool | None = None      # trapped < ceil(|A|/C) everywhere
    necessary_passed: bool | None = None  # trapped <= |A| - ceil(|A|/C)

    def to_dict(self):
        return {
            "passed": self.passed,
            "C": str(self.C),
            "trapped": self.trapped,
            "worst_member": self.worst_member,
            "max_distance": self.max_distance,
            "sharp_passed": self.sharp_passed,
            "necessary_passed": self.necessary_passed,
        }


def avoids_subalgebras(A: DSet, C, family: SubAlgebraFamily | None = None):
    """Some element of A is 1/C-far from every proper sub-algebra."""
    alg = A.alg
    if family is None:
        family = subalgebra_family(alg)
    thresh = Fraction(1) / Fraction(C)
    elems = A.elements()
    maxd = {}
    worst = None
    ok = True
    for mem in family.members:
        best = max((distance_to_subalgebra(alg, a, mem) for a in elems),
                   default=0.0)
        maxd[mem.name] = best
        good = any(_dist_ge(alg, a, mem, thresh) for a in elems)
        if not good:
            ok = False
            if worst is None or best < maxd.get(worst, float("inf")):
                worst = mem.name
    return AvoidanceReport(ok, Fraction(C), {}, worst, maxd)


def strongly_avoids(A: DSet, C, family: SubAlgebraFamily | None = None):
    """Every C-dense subset of A escapes every sub-algebra.  Sharp form:
    trapped(F) < ceil(|A|/C) for all F; the weaker necessary bound
    trapped(F) <= |A| - ceil(|A|/C) is reported alongside."""
    alg = A.alg
    if family is None:
        family = subalgebra_family(alg)
    thresh = Fraction(1) / Fraction(C)
    elems = A.elements()
    n = len(elems)
    need = -(-n * Fraction(C).denominator // Fraction(C).numerator)  # ceil(n/C)
    trapped = {}
    worst = None
    for mem in family.members:
        t = sum(0 if _dist_ge(alg, a, mem, thresh) else 1 for a in elems)
        trapped[mem.name] = t
        if worst is None or t > trapped[worst]:
            worst = mem.name
    sharp = all(t < need for t in trapped.values())
    necessary = all(t <= n - need for t in trapped.values())
    rep = AvoidanceReport(sharp, Fraction(C), trapped, worst, {},
                          sharp_passed=sharp, necessary_passed=necessary)
    return rep


# ---------------------------------------------------------------------------
# escape basis

def _candidate_pool(A: DSet, depth: int, cap: int = 100_000):
    """Products of at most `depth` elements of A, deterministic order."""
    alg = A.alg
    elems = sorted(A.elements(), key=lambda e: e.coords)
    pool = list(elems)
    seen = {(e.coords, e.unit_exp) for e in pool}
    frontier = list(elems)
    for _ in range(depth - 1):
        nxt = []
        for f in frontier:
            for a in elems:
                prod = al.mul(alg, f, a)
                key = (prod.coords, prod.unit_exp)
                if key not in seen:
                    seen.add(key)
                    pool.append(prod)
                    nxt.append(prod)
                if len(pool) >= cap:
                    return pool
        frontier = nxt
    return pool


def escape_basis(A: DSet, floor) -> list:
    """Greedy almost-orthogonal basis from products of <= d elements of A;
    certificate is det_basis >= floor."""
    alg = A.alg
    d = alg.d
    floor = Fraction(floor)
    pool = _candidate_pool(A, d)
    chosen = []
    chosen_vals = []
    for _ in range(d):
        best = None
        best_key = None
        for cand in pool:
            vals = al.value_coords(alg, cand)
            mem = SubAlgebra("span", tuple(chosen_vals))
            score = (_real_dist_sq(alg, vals, chosen_vals) if alg.is_real_base
                     else _padic_dist(alg, vals, chosen_vals))
            key = (score, tuple(-abs(v) for v in vals))
            if score > 0 and (best is None or key > best_key):
                best = (cand, vals)
                best_key = key
        if best is None:
            raise SubAlgebraTrapped("candidate pool spans a proper subspace",
                                    span=[c.coords for c in chosen])
        chosen.append(best[0])
        chosen_vals.append(best[1])
    det = al.det_basis(alg, chosen)
    if alg.is_real_base:
        det = abs(det)
    if det < floor:
        raise SubAlgebraTrapped(f"greedy determinant {det} below floor {floor}",
                                span=[c.coords for c in chosen])
    return chosen


# ---------------------------------------------------------------------------
# halving / translate maps

def basis_coordinates(alg, v: list, x: Element):
    """Coordinates of x relative to the basis v, as exact Fractions."""
    d = alg.d
    mat = [[al.value_coords(alg, v[j])[i] for j in range(d)] for i in range(d)]
    sol = al._solve_fraction(mat, list(al.value_coords(alg, x)))
    if sol is None:
        raise ParameterRangeError("v is not a basis")
    return tuple(sol)


def halving_map(alg, v: list, ibits, x: Element) -> Element:
    """f_i(x) = sum_j ((x_j + i_j)/2) v_j in coordinates relative to v."""
    if not alg.is_real_base:
        raise NotRealBase("halving maps require the real base")
    xc = basis_coordinates(alg, v, x)
    vals = [Fraction(0)] * alg.d
    for j in range(alg.d):
        w = (xc[j] + ibits[j]) / 2
        bv = al.value_coords(alg, v[j])
        for t in range(alg.d):
            vals[t] += w * bv[t]
    return al.from_value_coords(alg, vals)


def _halving_value(alg, v, ibits, xvals):
    """f_i on exact value coordinates: (x + sum_{i_j=1} v_j) / 2."""
    shift = [Fraction(0)] * alg.d
    for j, b in enumerate(ibits):
        if b:
            bv = al.value_coords(alg, v[j])
            for t in range(alg.d):
                shift[t] += bv[t]
    return tuple((x + s) / 2 for x, s in zip(xvals, shift)), shift


# ---------------------------------------------------------------------------
# dichotomy

@dataclass
class DichotomyOutcome:
    case: str                       # "Dense" | "Sparse"
    mode: str                       # "halving" | "translate" | "field"
    witness: dict | None            # sparse: x, map index, (p, q) or (u, v)
    dense_audit: dict | None        # measured covering vs the predicted bound

    def to_json(self):
        return json.dumps({"case": self.case, "mode": self.mode,
                           "witness": self.witness,
                           "dense_audit": self.dense_audit}, default=str)


def _q_value(alg, coords, scale_exp, radius_exp):
    unit = scale_exp if alg.is_real_base else radius_exp
    return tuple(Fraction(int(c), alg.radix ** unit) for c in coords)


def _near_q_real(Qset, scale_exp, yvals):
    """Exists q in Q with |y_k - q_k * Delta| <= Delta for all k, exactly."""
    Delta = Fraction(1, 2 ** scale_exp)
    ranges = []
    for y in yvals:
        r = y / Delta
        lo = math.ceil(r - 1)
        hi = math.floor(r + 1)
        ranges.append(range(lo, hi + 1))
    return any(c in Qset for c in itertools.product(*ranges))


def _near_q_padic(alg, Qset, scale_exp, radius_exp, yvals):
    """Exists q in Q with |y - q|_p <= p^-scale_exp (same cell), exactly."""
    p = alg.p
    mod = p ** (scale_exp + radius_exp)
    coords = []
    for y in yvals:
        v = y * p ** radius_exp
        den = v.denominator
        if den % p == 0:
            return False  # finer than representable: cannot be near the grid
        coords.append(v.numerator * pow(den, -1, mod) % mod)
    return tuple(coords) in Qset


def _witness_values(alg, wit_key):
    """Value coordinates (a, b, c, d) of a stored witness quadruple."""
    out = []
    for coords in wit_key:
        out.append(al.value_coords(alg, al.element(alg, coords)))
    return out


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def dichotomy_check(Q: DSet, v: list, delta_exp: int, rho_exp: int,
                    witnesses: dict | None = None,
                    mode: str | None = None) -> DichotomyOutcome:
    """Either every halving/translate/field image of Q lands within Delta of Q
    (Dense: Q must essentially fill the ball), or some image escapes (Sparse:
    the witness carries a (p, q) or (u, v) decomposition built from the
    quotient-set witnesses)."""
    from . import setops as so
    alg = Q.alg
    d = alg.d
    if mode is None:
        mode = "halving" if alg.is_real_base else "translate"
    scale, radius = Q.scale_exp, Q.radius_exp
    n_maps = {"halving": 2 ** d, "translate": d, "field": 2}[mode]
    if len(Q) * n_maps * (1 if not alg.is_real_base else 3 ** d) > point_budget():
        raise BudgetExceeded("dichotomy scan too large",
                             {"points": len(Q) * n_maps})
    Qset = {tuple(int(c) for c in row) for row in Q.points}
    near = ((lambda y: _near_q_real(Qset, scale, y)) if alg.is_real_base
            else (lambda y: _near_q_padic(alg, Qset, scale, radius, y)))

    def sparse(xc, map_label, decomp):
        wit = {"x": [str(t) for t in _q_value(alg, xc, scale, radius)],
               "x_coords": list(map(int, xc)), "map": map_label}
        wit.update(decomp)
        return DichotomyOutcome("Sparse", mode, wit, None)

    rows = sorted(tuple(int(c) for c in row) for row in Q.points)
    if mode in ("halving", "translate"):
        labels = (list(itertools.product((0, 1), repeat=d)) if mode == "halving"
                  else list(range(d)))
        for xc in rows:
            xvals = _q_value(alg, xc, scale, radius)
            for lab in labels:
                if mode == "halving":
                    yvals, shift = _halving_value(alg, v, lab, xvals)
                else:
                    bv = al.value_coords(alg, v[lab])
                    yvals = _vadd(xvals, bv)
                if not near(yvals):
                    decomp = {}
                    if witnesses is not None and xc in witnesses:
                        a, b, c, dd = _witness_values(alg, witnesses[xc])
                        num, den = _vsub(a, b), _vsub(c, dd)
                        if mode == "halving":
                            w = shift
                            pval = _vadd(num, so.mul_value_coords(alg, w, den))
                            qval = tuple(2 * t for t in den)
                        else:
                            bv = al.value_coords(alg, v[lab])
                            pval = _vadd(num, so.mul_value_coords(alg, bv, den))
                            qval = den
                        decomp = {"p": [str(t) for t in pval],
                                  "q": [str(t) for t in qval],
                                  "abcd": [list(map(int, w)) for w in witnesses[xc]]}
                    return sparse(xc, list(lab) if mode == "halving" else lab,
                                  decomp)
    else:  # field closure: Q_Delta + Q_Delta and Q_Delta * Q_Delta
        for xc in rows:
            xvals = _q_value(alg, xc, scale, radius)
            for yc in rows:
                yvals = _q_value(alg, yc, scale, radius)
                for opname, img in (("sum", _vadd(xvals, yvals)),
                                    ("prod", so.mul_value_coords(alg, xvals, yvals))):
                    if not near(img):
                        decomp = {"y_coords": list(map(int, yc)), "op": opname}
                        if (witnesses is not None and xc in witnesses
                                and yc in witnesses):
                            a1, b1, c1, d1 = _witness_values(alg, witnesses[xc])
                            a2, b2, c2, d2 = _witness_values(alg, witnesses[yc])
                            n1, e1 = _vsub(a1, b1), _vsub(c1, d1)
                            n2, e2 = _vsub(a2, b2), _vsub(c2, d2)
                            vden = so.mul_value_coords(alg, e1, e2)
                            if opname == "sum":
                                u = _vadd(so.mul_value_coords(alg, n1, e2),
                                          so.mul_value_coords(alg, e1, n2))
                            else:
                                u = so.mul_value_coords(alg, n1, n2)
                            decomp.update({"u": [str(t) for t in u],
                                           "v": [str(t) for t in vden]})
                        return sparse(xc, opname, decomp)

    # dense: audit the covering of Q at its own scale against the volume bound
    measured = len(Q)
    if alg.is_real_base:
        det = abs(al.det_basis(alg, v)) if v else Fraction(1)
        bound = Fraction(det, 2 ** d) * Fraction(2 ** scale) ** d
    else:
        det = al.det_basis(alg, v) if v else Fraction(1)
        bound = det * Fraction(alg.p ** scale) ** d
    audit = {"measured": measured, "bound": float(bound),
             "Delta_exp": scale, "det": str(det),
             "passed": Fraction(measured) >= bound}
    return DichotomyOutcome("Dense", mode, None, audit)


def dyadic_induction(Q: DSet, v: list, n: int = 4):
    """Constructive dense-case content: level-by-level membership of the
    dyadic-rational points sum_j v_j k_j 2^-level within Delta of Q."""
    alg = Q.alg
    if not alg.is_real_base:
        raise NotRealBase("dyadic induction applies to the real base")
    if n > 6:
        raise ParameterRangeError("induction depth capped at 6")
    d = alg.d
    Qset = {tuple(int(c) for c in row) for row in Q.points}
    bvals = [al.value_coords(alg, b) for b in v]
    report = {}
    for level in range(n + 1):
        total = hits = 0
        for ks in itertools.product(range(2 ** level + 1), repeat=d):
            vals = [Fraction(0)] * d
            for j, k in enumerate(ks):
                w = Fraction(k, 2 ** level)
                for t in range(d):
                    vals[t] += w * bvals[j][t]
            total += 1
            if _near_q_real(Qset, Q.scale_exp, tuple(vals)):
                hits += 1
        report[level] = (hits, total)
    return report
