"""Acceptance battery: one test (and one printed pass/fail line) per criterion.

Exact constructions are verified by enumeration, counting engines against
unpruned brute-force oracles, formulas against independent rational
arithmetic, and inequality suites at zero tolerance.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from dlab import algebra as al
from dlab import energy as en
from dlab import lab
from dlab import setops as so
from dlab import structure as st
from dlab.dset import covering_number, make_dset, uniform_subset, uniformity_audit

from oracles import halving_value


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# --------------------------------------------------------------------------

def test_criterion_1_flat_product_projections():
    """m=6: real directions give ~|G|^(1/2) projections; i gives all of |G|."""
    t0 = time.time()
    m = 6
    G, X = lab.gen_counterexample("One", m)
    n_a = 2 ** m + 1
    bound = 2 * math.isqrt(len(G)) + 1
    ok = True
    worst = 0
    for x in X.elements():
        cnt = covering_number(so.project(x, G), m)
        if x.coords == (0, 2 ** m):
            ok &= cnt == n_a ** 2
        else:
            worst = max(worst, cnt)
            ok &= cnt <= bound
    elapsed = time.time() - t0
    ok &= elapsed < 5
    _report(1, ok, f"|G|={len(G)}, worst real projection {worst} <= {bound}, "
                   f"pi_i exact, {elapsed:.1f}s")


def test_criterion_2_two_block_alternative():
    """m=6: each direction is small on one block; x=i is large on the flat one."""
    t0 = time.time()
    m = 6
    G0, G1, X = lab.gen_counterexample_parts("Two", m)
    total = len(G0) + len(G1)
    bound = 2 * math.isqrt(total) + 1
    ok = True
    for x in X.elements():
        c0 = covering_number(so.project(x, G0), m)
        c1 = covering_number(so.project(x, G1), m)
        ok &= min(c0, c1) <= bound
    big = covering_number(so.project(al.element(G0.alg, (0, 2 ** m)), G0), m)
    ok &= big == (2 ** m + 1) ** 2
    elapsed = time.time() - t0
    ok &= elapsed < 10
    _report(2, ok, f"all {len(X)} directions small on one block, "
                   f"pi_i(G0)={big}, {elapsed:.1f}s")


def test_criterion_3_uniformization_suite():
    """100 seeded sets, both bases: audit passes and mass bound holds."""
    m = 8
    fails = 0
    configs = ([("R", None)] * 25 + [("C", None)] * 25
               + [("Qp", 2)] * 25 + [("Qp", 3)] * 25)
    for idx, (kind, p) in enumerate(configs):
        if kind in ("R", "C"):
            alg = al.make_algebra(kind, m=m)
        else:
            alg = al.make_algebra("Qp", p=p, d=1, m=m)
        s = 0.6 + 0.4 * (idx % 5) / 5 * alg.d
        A = lab.gen_random_dset(alg, m, s, seed=1000 + idx)
        U = uniform_subset(A, T=1)
        audit = uniformity_audit(U, T=1)
        if not all(bool(v[2]) for v in audit.values()):
            fails += 1
            continue
        if len(U) * (alg.d + 1) ** m < len(A):
            fails += 1
    _report(3, fails == 0, f"100 instances, {fails} failures")


def test_criterion_4_oracle_equivalence():
    """Counting engines equal unpruned brute-force enumeration."""
    t0 = time.time()
    rnd = random.Random(4242)
    mismatches = []

    def rand_dset(alg, n, hi):
        pts = {tuple(rnd.randrange(hi) for _ in range(alg.d)) for _ in range(n)}
        return make_dset(alg, sorted(pts))

    R5 = al.make_algebra("R", m=5)
    C4 = al.make_algebra("C", m=4)
    Q3 = al.make_algebra("Qp", p=3, m=3)

    # additive energy: 7 instances vs four-loop enumeration
    for k in range(7):
        alg = (R5, C4, Q3)[k % 3]
        A = rand_dset(alg, 3 + 2 * (k % 4) + (0 if alg is not R5 else 20), 16)
        E = en.additive_energy(A, A)
        elems = A.elements()
        brute = sum(1 for a, ap, b, bp in itertools.product(elems, repeat=4)
                    if al.add(alg, a, b).coords == al.add(alg, ap, bp).coords
                    and al.add(alg, a, b).unit_exp == al.add(alg, ap, bp).unit_exp)
        if E != brute:
            mismatches.append(("energy", k))

    # quintuple counts: 6 instances
    from tests.test_energy import _brute_quintuple
    for k in range(6):
        alg = (R5, Q3)[k % 2]
        A = rand_dset(alg, 5, 14)
        X = rand_dset(alg, 3, 14)
        for sym in (False, True) if k == 0 else ((False,)):
            rep = en.quintuple_count_tv(A, X, rho_exp=1, symmetric=sym)
            if rep.total != _brute_quintuple(A, X, sym):
                mismatches.append(("quintuple", k))

    # quadruple counts: 6 instances
    from tests.test_energy import _brute_quadruple
    for k in range(6):
        alg = (R5, C4)[k % 2]
        A = rand_dset(alg, 5, 12)
        p = al.element(alg, tuple(rnd.randrange(1, 16) for _ in range(alg.d)))
        q = al.element(alg, tuple(rnd.randrange(8, 24) for _ in range(alg.d)))
        rep = en.quadruple_count_sparse(A, p, q)
        if rep.total != _brute_quadruple(A, p, q):
            mismatches.append(("quadruple", k))

    # quotient sets: 6 instances vs four-loop enumeration
    R9 = al.make_algebra("R", m=9)
    for k in range(6):
        pts = sorted(rnd.sample(range(513), 10 + k))
        A = make_dset(R9, [(i,) for i in pts])
        rho_exp = 2
        Q = so.quotient_set(A, rho_exp)
        cells = set()
        for a, b, c, d in itertools.product(pts, repeat=4):
            if Fraction(abs(c - d), 512) > Fraction(1, 4):
                v = Fraction(a - b, c - d)
                cells.add(al.round_half_away(v.numerator * 2 ** Q.scale_exp,
                                             v.denominator))
        if {int(p0[0]) for p0 in Q.points} != cells:
            mismatches.append(("quotient", k))

    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60
    _report(4, ok, f"25 instances exact, {elapsed:.1f}s"
            + (f", mismatches={mismatches}" if mismatches else ""))


def test_criterion_5_formula_reproduction():
    """Parameter formulas against independent rational recomputation."""
    ok = lab.choose_c1(1, 2) == Fraction(1, 8)
    rnd = random.Random(55)
    for _ in range(20):
        s = Fraction(rnd.randrange(1, 63), 64)
        d = rnd.choice([1, 2, 4])
        if s >= d:
            continue
        ok &= lab.choose_c1(s, d) == s * (1 - Fraction(s, d)) / 4
        _, exact = (lab.choose_rho_expand(s, d, 64)
                    if round(64 * (d - s) / (3 * (d + s))) >= 1 else (1, (d - s) / (3 * (d + s))))
        ok &= exact == Fraction(d - s, 3 * (d + s))
    for _ in range(10):
        sig = Fraction(rnd.randrange(1, 32), 64)
        t = sig + Fraction(rnd.randrange(1, 16), 64)
        s = sig
        eps = Fraction(rnd.randrange(0, 4), 64)
        _, c = lab.choose_rho_tv(s, sig, t, eps, 64)
        ok &= c == s * (t - sig + eps) / t
    # recursion: strictly increasing, terminating for 10 random triples
    for _ in range(10):
        s = Fraction(rnd.randrange(8, 48), 64)
        t = s + Fraction(rnd.randrange(1, 8), 64)
        d = 2
        n, _, inner = lab.iteration_budget(s, t, d)
        ok &= n >= 1 and inner == 20 ** n
    _report(5, ok, "c1, rho, c formulas exact; recursion terminates on "
                   "10 random triples")


def test_criterion_6_exact_inequality_suites():
    """Ruzsa/Plunnecke slack >= 1 on 200 triples; CS energy bound; p-adic
    norm axioms on 10^4 pairs."""
    rnd = random.Random(66)
    R = al.make_algebra("R", m=6)
    violations = 0
    for _ in range(200):
        env = {}
        for name in "ABC":
            pts = {(rnd.randrange(-20, 21),) for _ in range(rnd.randrange(3, 10))}
            env[name] = make_dset(R, sorted(pts))
        rows = en.ledger_rows(env, [en.ruzsa_triangle_instance()])
        if rows[0]["slack"] < 1:
            violations += 1
        if en.plunnecke_row(env["A"], env["B"])["slack"] < 1:
            violations += 1
        if en.energy_cs_row(env["A"])["slack"] < 1:
            violations += 1
    # p-adic axioms: ultrametric and norm multiplicativity
    algs = []
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            algs.append(al.make_algebra("Qp" if d == 1 else "Qp_ext",
                                        p=p, d=d, m=4))
    checked = 0
    for i in range(10_000):
        alg = algs[i % len(algs)]
        mod = alg.p ** alg.m
        x = al.element(alg, tuple(rnd.randrange(mod) for _ in range(alg.d)))
        y = al.element(alg, tuple(rnd.randrange(mod) for _ in range(alg.d)))
        ex, ey = al.norm_exp(alg, x), al.norm_exp(alg, y)
        es = al.norm_exp(alg, al.add(alg, x, y))
        if ex is not None and ey is not None:
            if es is not None and es < min(ex, ey):
                violations += 1
            ep = al.norm_exp(alg, al.mul(alg, x, y))
            # multiplicativity holds whenever the product is visible at
            # precision m
            if ep is not None and ex + ey < alg.m and ep != ex + ey:
                violations += 1
        checked += 1
    _report(6, violations == 0,
            f"200 triples + {checked} p-adic pairs, {violations} violations")


def test_criterion_7_expansion_growth():
    """Circle net at m=7: one (2,2) round grows the exponent by >= 0.05."""
    t0 = time.time()
    m = 7
    C = al.make_algebra("C", m=m)
    net = lab.circle_net(C, m)
    sched = lab.Schedule(s=1, sigma=1, t=Fraction(3, 2), d=2, delta_exp=m,
                         n_iters=1, n_sum=2, n_prod=2, C=4)
    recs = lab.run_expansion(net, sched, seed=0)
    gain = recs[1].exponent - recs[0].exponent
    elapsed = time.time() - t0
    ok = gain >= 0.05 and elapsed < 300
    _report(7, ok, f"exponent {recs[0].exponent:.3f} -> {recs[1].exponent:.3f} "
                   f"(gain {gain:.3f}), {elapsed:.1f}s")


def test_criterion_8_escape_and_dichotomy():
    """Escape determinants >= 0.5; sparse witnesses re-verify; dense audits."""
    ok = True
    C7 = al.make_algebra("C", m=7)
    A_ci = make_dset(C7, [(128, 0), (0, 128)])
    basis = st.escape_basis(A_ci, Fraction(1, 2))
    ok &= abs(al.det_basis(C7, basis)) >= Fraction(1, 2)
    Q9 = al.make_algebra("Qp_ext", p=3, d=2, m=4)
    basis_p = st.escape_basis(make_dset(Q9, [(1, 0), (0, 1)]), Fraction(1, 2))
    ok &= al.det_basis(Q9, basis_p) >= Fraction(1, 2)

    rnd = random.Random(88)
    v = [al.one(C7), al.basis_element(C7, 1)]
    sparse_seen = dense_seen = 0
    for k in range(10):
        pts = {(rnd.randrange(0, 129), rnd.randrange(0, 129))
               for _ in range(4 + k % 3)}
        A = make_dset(C7, sorted(pts))
        try:
            Q, wit = so.quotient_set(A, 1, with_witnesses=True)
        except Exception:
            continue
        out = st.dichotomy_check(Q, v, 7, 1, witnesses=wit)
        if out.case == "Sparse":
            sparse_seen += 1
            xvals = tuple(Fraction(s) for s in out.witness["x"])
            img, _ = halving_value(C7, v, out.witness["map"], xvals)
            Delta = Fraction(1, 2 ** Q.scale_exp)
            for row in Q.points:
                qv = tuple(Fraction(int(c)) * Delta for c in row)
                if max(abs(a - b) for a, b in zip(img, qv)) <= Delta:
                    ok = False
        else:
            dense_seen += 1
            ok &= out.dense_audit["passed"]
    # a dense instance with an explicit audit against the volume bound
    import numpy as np
    Qfull = so.DSet(C7, 1, 1, np.array([[x, y] for x in range(-4, 5)
                                        for y in range(-4, 5)]))
    outd = st.dichotomy_check(Qfull, v, 7, 2)
    ok &= outd.case == "Dense" and outd.dense_audit["passed"]
    _report(8, ok, f"escape dets >= 1/2; {sparse_seen} sparse re-verified, "
                   f"{dense_seen + 1} dense audits pass")


def test_criterion_9_planted_extraction_recovery():
    """20 planted block+noise graphs: >= 1/4 of the block recovered."""
    R = al.make_algebra("R", m=8)
    fails = 0
    for seed in range(20):
        rnd = random.Random(900 + seed)
        step = rnd.choice([2, 3, 4])
        size = rnd.randrange(10, 17)
        ap = [(step * i,) for i in range(size)]
        hi = 256 - 64
        noise_a = [(rnd.randrange(128, hi),) for _ in range(6)]
        noise_b = [(rnd.randrange(128, hi),) for _ in range(6)]
        A = make_dset(R, ap + noise_a)
        B = make_dset(R, ap + noise_b)
        planted = [(a[0], b[0]) for a in ap for b in ap]
        noise = [(x[0], y[0]) for x, y in zip(noise_a, noise_b)]
        H = so.make_pairset(R, planted + noise)
        res = en.bsg_extract(H, A, B)
        a_keep = {tuple(p) for p in res.A_sub.points}
        b_keep = {tuple(p) for p in res.B_sub.points}
        rec = sum(1 for a, b in planted if (a,) in a_keep and (b,) in b_keep)
        if rec < len(planted) / 4:
            fails += 1
            continue
        if res.sumset_count != len(so.sumset(res.A_sub, res.B_sub)):
            fails += 1
    _report(9, fails == 0, f"20 planted instances, {fails} failures")
