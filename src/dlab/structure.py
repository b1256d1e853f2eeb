"""Sub-algebra avoidance, escape bases, and the dense/sparse dichotomy.

Real sub-algebra families are finite nets of linear spans; p-adic
families are the proper unramified subfields, with Teichmueller-lift
bases.  Avoidance, strong avoidance and escape bases compare distances
exactly through one array kernel, _span_distances: integer numerators
over one denominator (squared distances over the reals, p-powers over the
p-adics), on int64 while a bound proves that they fit, else Python ints.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import setops as so
from .algebra import AlgebraDescriptor
from .dset import DSet, _abs_max, _row_lookup, _row_mins, pass_rows, point_budget
from .errors import (
    BudgetExceeded,
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


def _gf_pow(alg, a, e):
    """a^e in the residue field F_p[x]/poly, as a d-tuple."""
    r = al._poly_powmod(list(a), e, list(alg.poly), alg.p)
    return tuple(r) + (0,) * (alg.d - len(r))


def residue_field_generator(alg):
    """Smallest multiplicative generator of F_{p^d} under the power basis."""
    p, d = alg.p, alg.d
    order = p ** d - 1
    one = tuple([1] + [0] * (d - 1))
    primes = al._prime_factors(order)
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

def _scaled(vec):
    """A rational vector times the lcm of its denominators: integers."""
    L = math.lcm(*(Fraction(c).denominator for c in vec))
    return [int(c * L) for c in vec]


def _adjugate(M):
    """adj(M) of a square integer matrix: the transposed cofactors."""
    return [[(-1) ** (i + j) * al._int_det([r[:i] + r[i + 1:]
                                            for t, r in enumerate(M) if t != j])
             for j in range(len(M))] for i in range(len(M))]


def _padic_isometry_data(alg, basis):
    """d columns in Z_p^d (Fractions) of unit determinant whose first k
    span the Q_p-span of the k basis vectors: Gaussian elimination
    whose pivot is an entry of least valuation, its row divided by it, gives
    Z_p rows with a unit pivot at distinct columns t, each row zero at the
    pivots before it; the standard vectors e_t of the other columns
    complete them.  One vector becomes a Z_p-unit multiple of its primitive
    integral form (3 -> 1, 1/9 -> 1 at p = 3).  ParameterRangeError when
    the basis is dependent."""
    p, d = alg.p, alg.d
    rows, cols, pivots = [[Fraction(c) for c in b] for b in basis], [], set()
    while rows:
        piv = min(((al.vq(c, p), i, t) for i, r in enumerate(rows)
                   for t, c in enumerate(r) if c), default=None)
        if piv is None:
            raise ParameterRangeError("sub-algebra basis is not independent")
        _, i, t = piv
        row = rows.pop(i)
        cols.append([c / row[t] for c in row])
        pivots.add(t)
        rows = [[c - r[t] * e for c, e in zip(r, cols[-1])] for r in rows]
    return cols + [[Fraction(int(i == t)) for i in range(d)]
                   for t in range(d) if t not in pivots]


def _span_distances(alg, basis, rows, u):
    """(num, den): the exact distance of every row to the span of basis (a
    tuple of rational d-vectors) as num[i] / den over one integer den > 0;
    rows are integer coordinates in units radix^-u (int64 or object).
    Real base, squared: with the basis scaled to integer rows B, G = B B^T
    and g = det G, (g |v|^2 - (Bv)^T adj(G) (Bv)) / (g 4^u).  p-adic base:
    p^(u - w), w the least valuation of the entries of adj(M) v outside the
    span, M the integer completion of the basis (_padic_isometry_data),
    or 0 when they vanish: num = p^(W - w) over den = p^(W - u), W = max(u,
    w).  int64 while a bound on |v| and the matrices proves that every
    intermediate fits; Python ints in object arrays otherwise."""
    d, k, big = alg.d, len(basis), _abs_max(rows)
    if alg.is_real_base:
        B = [_scaled(b) for b in basis]
        G = [[sum(x * y for x, y in zip(bi, bj)) for bj in B] for bi in B]
        g, adj = al._int_det(G), _adjugate(G)
        if g == 0:
            raise ParameterRangeError("sub-algebra basis is not independent")
        bmax, amax = _abs_max(B), _abs_max(adj)
        top = max(g * d * big ** 2 + k * k * amax * (d * bmax * big) ** 2, g, 2 * amax, bmax)
        V = rows.astype(np.int64 if top < 2 ** 63 else object, copy=False)
        BV = [sum(V[:, t] * c for t, c in enumerate(b)) for b in B]
        num = g * sum(V[:, t] * V[:, t] for t in range(d))
        for i in range(k):
            num -= adj[i][i] * BV[i] * BV[i]
            for j in range(i + 1, k):
                num -= 2 * adj[i][j] * BV[i] * BV[j]
        return num, g * 4 ** u
    p = alg.p
    cols = [_scaled(c) for c in _padic_isometry_data(alg, basis)]
    R = _adjugate([list(r) for r in zip(*cols)])[k:] or [[0] * d]
    top = d * max(abs(c) for r in R for c in r) * big
    V = rows.astype(np.int64 if top < 2 ** 63 else object, copy=False)
    E = [sum(V[:, t] * c for t, c in enumerate(r)) for r in R]
    zero = np.logical_and.reduce([e == 0 for e in E])
    w, live = np.zeros(len(rows), dtype=np.int64), ~zero
    while live.any():
        live &= np.logical_and.reduce([e % p == 0 for e in E])
        w += live
        E = [e // p for e in E]
    W = max(u, int(w.max(initial=0)))
    num = p ** (W - w).astype(np.int64 if p ** W < 2 ** 63 else object) * ~zero
    return num, p ** (W - u)


def _cut(alg, den, thresh):
    """The least integer num with num / den >= thresh^2 (real) or thresh."""
    t = Fraction(thresh) ** (2 if alg.is_real_base else 1)
    return -(-den * t.numerator // t.denominator)


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
        return {**asdict(self), "C": str(self.C)}


def _member_distances(A: DSet, C, family):
    """(member, num, den, cut) per member of family (by default
    subalgebra_family): A's rows with num >= cut are 1/C-far from it."""
    if family is None:
        family = subalgebra_family(A.alg)
    for mem in family.members:
        num, den = _span_distances(A.alg, mem.basis, A.points, A.unit_exp())
        yield mem, num, den, _cut(A.alg, den, Fraction(1) / Fraction(C))


def avoids_subalgebras(A: DSet, C, family: SubAlgebraFamily | None = None):
    """Some element of A is 1/C-far from every proper sub-algebra;
    max_distance is the float of each member's largest exact distance."""
    maxd, worst, ok = {}, None, True
    for mem, num, den, cut in _member_distances(A, C, family):
        top = int(num.max(initial=0))
        v = float(Fraction(top, den))
        best = maxd[mem.name] = math.sqrt(v) if A.alg.is_real_base else v
        if not (len(A) and top >= cut):
            ok = False
            if worst is None or best < maxd[worst]:
                worst = mem.name
    return AvoidanceReport(ok, Fraction(C), {}, worst, maxd)


def strongly_avoids(A: DSet, C, family: SubAlgebraFamily | None = None):
    """Every C-dense subset of A escapes every sub-algebra.  Sharp form:
    trapped(F) < ceil(|A|/C) for all F; the weaker necessary bound
    trapped(F) <= |A| - ceil(|A|/C) is reported alongside."""
    n = len(A)
    need = -(-n * Fraction(C).denominator // Fraction(C).numerator)  # ceil(n/C)
    trapped, worst = {}, None
    for mem, num, _, cut in _member_distances(A, C, family):
        t = trapped[mem.name] = int(np.count_nonzero(num < cut))
        if worst is None or t > trapped[worst]:
            worst = mem.name
    sharp = all(t < need for t in trapped.values())
    necessary = all(t <= n - need for t in trapped.values())
    return AvoidanceReport(sharp, Fraction(C), trapped, worst, {},
                           sharp_passed=sharp, necessary_passed=necessary)


# ---------------------------------------------------------------------------
# escape basis

def _candidate_pool(A: DSet, depth: int, cap: int = 100_000):
    """(rows, u, element): the products of at most `depth` elements of A as
    rows in units radix^-u (int64 while they fit), and element(i), row i as
    the Element that al.mul gives.  A's Elements come first, sorted by their
    coordinates; then each depth's new products f a, row-major over the last
    depth's new f and A's a, up to the one that brings the pool to `cap`.
    The f go in passes of pass_rows, at most the room left under `cap`
    products too, one _raw_products and _grid_exact pass each.  A product is
    new unless an earlier candidate is the same Element (real Elements
    compare with their unit: scale_exp for A's, m for products)."""
    alg, r, m, u0 = A.alg, A.alg.radix, A.alg.m, A.unit_exp()
    elems = sorted(A.elements(), key=lambda e: e.coords)
    u = max(u0, m) if alg.is_real_base else depth * u0
    X = np.array([[c * r ** (u - e.unit_exp) for c in e.coords] for e in elems],
                 dtype=object).reshape(-1, alg.d)
    P = X = X.astype(np.int64) if _abs_max(X) < 2 ** 63 else X
    skip = len(X) if alg.is_real_base and u0 != m else 0
    f = r ** (u - m) if alg.is_real_base else 1   # grid rows of scale m to unit u
    den, start, full = r ** (2 * u), 0, False
    for _ in range(depth - 1):
        frontier, start, i = P[start:], len(P), 0
        while i < len(frontier) and not full:
            F = frontier[i:i + pass_rows(len(X), min(point_budget(), cap - len(P)))]
            i += len(F)
            big = so._product_bound(alg, _abs_max(F), _abs_max(X)) * f   # and Y * f
            raw = so._raw_products(alg, F, X, "Left", so._grid_dtype(alg, big, den, m, u))
            Y = so._grid_exact(alg, raw, den, m, u, "escape_basis") * f
            new = np.zeros(len(P) - skip + len(Y), dtype=bool)
            new[_row_mins(np.concatenate([P[skip:], Y]))] = True
            new = new[len(P) - skip:]
            cut = len(P) + np.cumsum(new) >= cap     # cut after the product that fills it
            new &= np.cumsum(cut) - cut == 0
            P, full = np.concatenate([P, Y[new]]), cut.any()

    def element(i):
        e = m if alg.is_real_base else u
        return elems[i] if i < len(elems) else al.element(alg, P[i] // r ** (u - e), e)
    return P, u, element


def escape_basis(A: DSet, floor) -> list:
    """Greedy almost-orthogonal basis from products of <= d elements of A
    (_candidate_pool); certificate is det_basis >= floor.  Each step scores
    the pool's rows by their distance to the span of the rows chosen so far
    in one _span_distances call and takes the first candidate of largest
    (score, -|coords|); Elements are made for the d chosen rows only."""
    alg, d, floor = A.alg, A.alg.d, Fraction(floor)
    rows, u, element = _candidate_pool(A, d)
    neg_abs, picks = -np.abs(rows), []
    for _ in range(d):
        score = _span_distances(alg, rows[picks].tolist(), rows, u)[0]
        top = score.max(initial=0)
        if top <= 0:
            raise SubAlgebraTrapped("candidate pool spans a proper subspace",
                                    span=[element(i).coords for i in picks])
        best = score == top
        for t in range(d):
            best &= neg_abs[:, t] == neg_abs[best, t].max()
        picks.append(int(np.flatnonzero(best)[0]))
    chosen = [element(i) for i in picks]
    det = al.det_basis(alg, chosen)
    det = abs(det) if alg.is_real_base else det
    if det < floor:
        raise SubAlgebraTrapped(f"greedy determinant {det} below floor {floor}",
                                span=[c.coords for c in chosen])
    return chosen


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


def _image_dtype(Q: DSet, bound: int):
    """int64 when image rows of absolute value <= bound, the candidates
    _near_rows derives from them and its p-adic residue products all fit in
    int64; object (Python ints) otherwise."""
    mod = 1 if Q.alg.is_real_base else Q.alg.p ** (Q.scale_exp + Q.radius_exp)
    return np.int64 if bound + 2 < 2 ** 63 and (mod - 1) ** 2 < 2 ** 63 else object


def _near_rows(Q: DSet, Y: np.ndarray, den: int, lookup) -> np.ndarray:
    """near[i]: the image Y[i] / den, in Q's units radix^-Q.unit_exp(), lies
    within Delta of Q, decided exactly on integers; lookup is
    _row_lookup(Q.points).  Real base: some q in Q has |Y/den - q| <= 1 in
    every coordinate, so q runs over ceil(Y/den) - 1 + {0,1,2}^d up to
    floor(Y/den) + 1.  p-adic base: Y/den must be integral (p^K divides Y
    for den = p^K u), and its cell (Y / p^K) u^-1 mod p^(scale_exp +
    radius_exp) must be a point of Q."""
    alg = Q.alg
    if alg.is_real_base:
        lo, hi = -(-Y // den) - 1, Y // den + 1
        near = np.zeros(len(Y), dtype=bool)
        for off in itertools.product(range(3), repeat=alg.d):
            cand = lo + off
            near |= np.all(cand <= hi, axis=1) & (lookup(cand) > 0)
        return near
    pk = alg.p ** al.vp(den, alg.p)
    mod = alg.p ** (Q.scale_exp + Q.radius_exp)
    cell = Y // pk % mod * pow(den // pk, -1, mod) % mod
    return np.all(Y % pk == 0, axis=1) & (lookup(cell) > 0)


def _basis_rows(Q: DSet, v):
    """(e, B): the elements of v as integer rows B[j] in Q's units refined
    by radix^e, radix^-(Q.unit_exp() + e), with the least e >= 0."""
    r, unit = Q.alg.radix, Q.unit_exp()
    e = max([0] + [b.unit_exp - unit for b in v])
    B = [[c * r ** (unit + e - b.unit_exp) for c in b.coords] for b in v]
    while e > 0 and all(c % r == 0 for row in B for c in row):
        e, B = e - 1, [[c // r for c in row] for row in B]
    return e, B


def _first_far(n: int, near_block):
    """The first (row, map) in row-major order at which near_block(lo, hi),
    the near mask of rows lo..hi-1 against every map, is False; None when
    every image is near.  Rows go in blocks of doubling size 1, 2, 4, ..."""
    lo, size = 0, 1
    while lo < n:
        hi = min(n, lo + size)
        near = near_block(lo, hi)
        far = np.flatnonzero(~near.reshape(-1))
        if len(far):
            i, j = divmod(int(far[0]), near.shape[1])
            return lo + i, j
        lo, size = hi, 2 * size
    return None


def dichotomy_check(Q: DSet, v: list, delta_exp: int, rho_exp: int,
                    witnesses: dict | None = None,
                    mode: str | None = None) -> DichotomyOutcome:
    """Either every halving/translate/field image of Q lands within Delta of Q
    (Dense: Q must essentially fill the ball), or some image escapes (Sparse:
    the witness carries a (p, q) or (u, v) decomposition built from the
    quotient-set witnesses, read at A's unit: 2^-delta_exp on the real base,
    p^-(Q.radius_exp - rho_exp) on the p-adic base).

    The images of Q's rows are integer rows over one denominator in Q's
    units, tested by _near_rows; the first escaping (row, map) in Q's row
    order, then map order, is the witness."""
    alg = Q.alg
    d = alg.d
    mode = mode or ("halving" if alg.is_real_base else "translate")
    n_maps = {"halving": 2 ** d, "translate": d, "field": 2 * len(Q)}[mode]
    n_off = 3 ** d if alg.is_real_base else 1
    if len(Q) * n_maps * n_off > point_budget():
        raise BudgetExceeded("dichotomy scan too large",
                             {"points": len(Q), "images": len(Q) * n_maps * n_off})
    P, unit, lookup = Q.points, Q.unit_exp(), _row_lookup(Q.points)
    if mode == "field":     # x + y over 1 and the raw x y over radix^unit
        dt_sum = _image_dtype(Q, 2 * _abs_max(P))
        dt_prod = _image_dtype(Q, so._product_bound(alg, _abs_max(P), _abs_max(P)))

        def near_block(lo, hi):
            X = P[lo:hi]
            sums = X.astype(dt_sum)[:, None, :] + P.astype(dt_sum)[None, :, :]
            prods = so._raw_products(alg, X, P, "Left", dt_prod)
            return np.stack([_near_rows(Q, sums.reshape(-1, d), 1, lookup),
                             _near_rows(Q, prods, alg.radix ** unit, lookup)],
                            axis=1).reshape(hi - lo, -1)
        labels = [(y, op) for y in range(len(P)) for op in ("sum", "prod")]
    else:                   # (L x + S) / 2L (halving) or (L x + S) / L
        e, B = _basis_rows(Q, v)
        if mode == "halving":
            labels = list(itertools.product((0, 1), repeat=d))
            S = [[sum(b[t] for b, bit in zip(B, lab) if bit) for t in range(d)]
                 for lab in labels]
        else:
            labels, S = list(range(d)), B[:d]
        L, den = alg.radix ** e, alg.radix ** e * (2 if mode == "halving" else 1)
        big = max((abs(c) for row in S for c in row), default=0)
        dt = _image_dtype(Q, L * _abs_max(P) + big)
        S_arr = np.array(S, dtype=dt)

        def near_block(lo, hi):
            Y = (P[lo:hi].astype(dt) * L)[:, None, :] + S_arr[None, :, :]
            return _near_rows(Q, Y.reshape(-1, d), den, lookup).reshape(hi - lo, -1)
    hit = _first_far(len(P), near_block)
    if hit is not None:
        xc = tuple(P[hit[0]].tolist())
        wit = {"x": [str(t) for t in al._units_to_values(alg, xc, unit)],
               "x_coords": list(xc)}
        w_unit = delta_exp if alg.is_real_base else Q.radius_exp - rho_exp

        def split(key):     # (a - b, c - d) of a quotient witness, as values
            a, b, c, dd = (al.value_coords(alg, al.element(alg, w, w_unit))
                           for w in witnesses[key])
            return [[s - t for s, t in zip(f, g)] for f, g in ((a, b), (c, dd))]
        mul = al._vec_mul
        if mode == "field":
            y, op = labels[hit[1]]
            yc = tuple(P[y].tolist())
            wit.update({"map": op, "y_coords": list(yc), "op": op})
            if witnesses is not None and xc in witnesses and yc in witnesses:
                (n1, e1), (n2, e2) = split(xc), split(yc)
                u = (mul(alg, n1, n2) if op == "prod" else
                     [s + t for s, t in zip(mul(alg, n1, e2), mul(alg, e1, n2))])
                wit.update({"u": [str(t) for t in u],
                            "v": [str(t) for t in mul(alg, e1, e2)]})
        else:
            lab = labels[hit[1]]
            wit["map"] = list(lab) if mode == "halving" else lab
            if witnesses is not None and xc in witnesses:
                num, dv = split(xc)
                # the image is (num/dv + w)/2 = p/q or num/dv + w = p/q
                w = al._units_to_values(alg, S[hit[1]], unit + e)
                q = [2 * t for t in dv] if mode == "halving" else dv
                wit.update({"p": [str(s + t) for s, t in zip(num, mul(alg, w, dv))],
                            "q": [str(t) for t in q],
                            "abcd": [list(map(int, t)) for t in witnesses[xc]]})
        return DichotomyOutcome("Sparse", mode, wit, None)

    # dense: audit the covering of Q at its own scale against the volume
    # bound |det| (2^scale / 2)^d (real) or |det|_p (p^scale)^d (p-adic)
    det = abs(al.det_basis(alg, v)) if v else Fraction(1)
    bound = det * Fraction(alg.radix ** Q.scale_exp, 2 if alg.is_real_base else 1) ** d
    audit = {"measured": len(Q), "bound": float(bound), "Delta_exp": Q.scale_exp,
             "det": str(det), "passed": len(Q) >= bound}
    return DichotomyOutcome("Dense", mode, None, audit)
