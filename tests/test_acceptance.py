"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen; without ``-s`` they appear in the captured output of any
failing test.  The heavy enumerations are shared across tests through
session fixtures.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from chordshapes import (
    BishapeSampler,
    Diagram,
    EnumSpec,
    IntPolynomial,
    ShapeClass,
    boundary_components,
    canonical_code,
    enumerate_matchings,
    enumerate_shapes,
    eta,
    eta_inv,
    fiber_gf,
    genus,
    kappa,
    plant,
    project_shape,
    shape_class,
    shape_poly_1bb,
    shape_poly_2bb,
    theta,
    theta_inv,
    w_gf,
)

import series_oracle as oracle
from conftest import all_matchings, components, disjoint_union
from test_series import KAPPA_TABLE, Q0, Q1, Q2, S1, S2, S3, poly_dict


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c1_kappa_reproduction():
    t0 = time.perf_counter()
    bad = [
        (g, t, kappa(g, t), v) for (g, t), v in KAPPA_TABLE.items() if kappa(g, t) != v
    ]
    elapsed = time.perf_counter() - t0
    report(
        "C1",
        not bad and elapsed < 1.0,
        f"15/15 tabulated kappa values exact in {elapsed:.3f}s"
        + (f"; mismatches {bad}" if bad else ""),
    )


def test_c2_shape_polynomials_one_backbone():
    t0 = time.perf_counter()
    ok = (
        poly_dict(shape_poly_1bb(1)) == S1
        and poly_dict(shape_poly_1bb(2)) == S2
        and poly_dict(shape_poly_1bb(3)) == S3
    )
    elapsed = time.perf_counter() - t0
    report("C2", ok and elapsed < 1.0, f"S_1, S_2, S_3 exact in {elapsed:.3f}s")


def test_c3_shape_polynomials_two_backbones():
    t0 = time.perf_counter()
    ok = (
        poly_dict(shape_poly_2bb(0)) == Q0
        and poly_dict(shape_poly_2bb(1)) == Q1
        and poly_dict(shape_poly_2bb(2)) == Q2
    )
    # (Q_g + sum_i S_i S_{g+1-i}) (1+z) = S_{g+1}, by multiplication only
    s = {i: shape_poly_1bb(i) for i in range(1, 8)}
    identity_ok = True
    for g in range(7):
        pairs = ()
        for i in range(1, g + 1):
            pairs = oracle.add(pairs, oracle.poly_mul(s[i].coeffs, s[g + 1 - i].coeffs))
        back = oracle.poly_mul(oracle.add(shape_poly_2bb(g).coeffs, pairs), (1, 1))
        identity_ok &= IntPolynomial(back) == s[g + 1]
    elapsed = time.perf_counter() - t0
    report(
        "C3",
        ok and identity_ok and elapsed < 1.0,
        f"Q_0, Q_1, Q_2 exact; (Q_g + sum S_i S_(g+1-i))(1+z) = S_(g+1) "
        f"for g = 0..6; {elapsed:.3f}s",
    )


def test_c4_enumeration_oracle_vs_formulas(shape_sets):
    t0 = time.perf_counter()

    def profile(shapes):
        out: dict[int, int] = {}
        for s in shapes:
            out[s.n_arcs] = out.get(s.n_arcs, 0) + 1
        return out

    s11 = shape_sets(1, 1)
    s12 = shape_sets(1, 2)
    s20 = shape_sets(2, 0)
    s21 = shape_sets(2, 1)
    checks = {
        "shapes(1,1) profile": profile(s11) == S1,
        "shapes(1,2) count": len(s12) == 3696,
        "shapes(1,2) profile": profile(s12) == S2,
        "shapes(2,0) count": len(s20) == 2,
        "shapes(2,1) count": len(s21) == 1832,
        "shapes(2,1) profile": profile(s21) == Q1,
    }
    elapsed = time.perf_counter() - t0
    bad = [k for k, v in checks.items() if not v]
    report(
        "C4",
        not bad and elapsed < 600,
        f"exhaustive shape tabulation equals S_1/S_2/Q_0/Q_1 exactly in {elapsed:.1f}s"
        + (f"; failed {bad}" if bad else ""),
    )


def test_c5_bijection_round_trips(shape_sets):
    t0 = time.perf_counter()
    problems: list[str] = []

    one_bb = {1: shape_sets(1, 1), 2: shape_sets(1, 2)}
    for g, shapes in one_bb.items():
        a_set = {canonical_code(s.diagram) for s in shapes if shape_class(s) is ShapeClass.A}
        b_set = {canonical_code(s.diagram) for s in shapes if shape_class(s) is ShapeClass.B}
        theta_images = set()
        for s in shapes:
            if shape_class(s) is ShapeClass.A:
                out = theta(s)
                if out.genus != s.genus or out.n_arcs != s.n_arcs - 1:
                    problems.append(f"theta bookkeeping at g={g}")
                if canonical_code(theta_inv(out).diagram) != canonical_code(s.diagram):
                    problems.append(f"theta_inv . theta != id at g={g}")
                theta_images.add(canonical_code(out.diagram))
            else:
                out = theta_inv(s)
                if canonical_code(theta(out).diagram) != canonical_code(s.diagram):
                    problems.append(f"theta . theta_inv != id at g={g}")
        if theta_images != b_set:
            problems.append(f"theta is not onto the B-shapes at g={g}")

        # |A_g(n+2)| = |B_g(n+1)| for all n, straight from the tabulation
        a_by_arcs: dict[int, int] = {}
        b_by_arcs: dict[int, int] = {}
        for s in shapes:
            d = a_by_arcs if shape_class(s) is ShapeClass.A else b_by_arcs
            d[s.n_arcs] = d.get(s.n_arcs, 0) + 1
        for n in range(0, 6 * g + 2):
            if a_by_arcs.get(n + 2, 0) != b_by_arcs.get(n + 1, 0):
                problems.append(f"|A_{g}({n + 2})| != |B_{g}({n + 1})|")

    # eta: Q'_g <-> A_{g+1} for g = 0, 1
    for g in (0, 1):
        q_prime = [s.diagram for s in shape_sets(2, g)]
        for i in range(1, g + 1):
            for s1 in shape_sets(1, i):
                for s2 in shape_sets(1, g + 1 - i):
                    q_prime.append(disjoint_union(s1.diagram, s2.diagram))
        # the enumeration oracle, run without the connectivity filter, must
        # find exactly the connected shapes plus the disconnected pairs
        oracle = {
            canonical_code(s.diagram)
            for s in enumerate_shapes(2, g, connected=False)
        }
        if oracle != {canonical_code(q) for q in q_prime}:
            problems.append(f"disconnected enumeration != Q'_{g}")
        a_target = {
            canonical_code(s.diagram)
            for s in shape_sets(1, g + 1)
            if shape_class(s) is ShapeClass.A
        }
        images = set()
        for q in q_prime:
            out = eta(q)
            if out.genus != genus(q) + 1 or out.n_arcs != q.n_arcs + 1:
                problems.append(f"eta bookkeeping at g={g}")
            if canonical_code(eta_inv(out)) != canonical_code(q):
                problems.append(f"eta_inv . eta != id at g={g}")
            images.add(canonical_code(out.diagram))
        if images != a_target:
            problems.append(f"eta is not a bijection onto A_{g + 1}")
        if len(images) != len(q_prime):
            problems.append(f"eta not injective at g={g}")
        for s in shape_sets(1, g + 1):
            if shape_class(s) is ShapeClass.A:
                if canonical_code(eta(eta_inv(s)).diagram) != canonical_code(s.diagram):
                    problems.append(f"eta . eta_inv != id at g={g}")

    elapsed = time.perf_counter() - t0
    report(
        "C5",
        not problems,
        f"theta/eta round trips, bookkeeping and |A(n+2)|=|B(n+1)| on all "
        f"tabulated shapes (1bb g=1,2; 2bb g=0,1) in {elapsed:.1f}s"
        + (f"; failed {sorted(set(problems))}" if problems else ""),
    )


def test_c6_fiber_and_w_series_vs_brute_force():
    t0 = time.perf_counter()
    problems: list[str] = []

    w0 = w_gf(0, 30)
    w1 = w_gf(1, 30)
    w2 = w_gf(2, 30)

    def brute(arcs: int, g: int) -> int:
        return enumerate_matchings(
            EnumSpec(
                backbones=2,
                arcs_min=arcs,
                arcs_max=arcs,
                genus_cap=g,
                genus_exact=g,
                connected_only=True,
            )
        )

    for m in range(3, 10):
        if brute(m - 2, 0) != w0[m]:
            problems.append(f"[z^{m}]W_0 != brute force")
    for m in range(5, 10):
        if brute(m - 2, 1) != w1[m]:
            problems.append(f"[z^{m}]W_1 != brute force")
    if (w0[3], w0[4], w0[5]) != (1, 8, 48):
        problems.append("W_0 closed-form values 1, 8, 48")

    # sum-over-l construction vs closed rational forms, exactly to order 30
    q = oracle.truncate((1, -4), 30)
    closed0 = oracle.rational_series((0, 0, 0, 1), oracle.power(q, 2), 30)
    closed1 = oracle.rational_series((0,) * 5 + (21, 20), oracle.power(q, 5), 30)
    closed2 = oracle.rational_series(
        (0,) * 7 + (1485, 6096, 1696), oracle.power(q, 8), 30
    )
    if w0.coeffs != closed0:
        problems.append("W_0 sum-over-l != closed form")
    if w1.coeffs != closed1:
        problems.append("W_1 sum-over-l != closed form")
    if w2.coeffs != closed2:
        problems.append("W_2 sum-over-l != closed form")

    elapsed = time.perf_counter() - t0
    report(
        "C6",
        not problems and elapsed < 300,
        f"W series match brute-force counts (m<=9) and closed forms (order 30) "
        f"in {elapsed:.1f}s" + (f"; failed {problems}" if problems else ""),
    )


def test_c7_asymptotic_growth():
    t0 = time.perf_counter()
    ratios = {}
    ok = True
    for l in range(1, 5):
        f = fiber_gf(l, 401)
        r = Fraction(f[401], f[400])
        ratios[l] = float(r)
        if abs(r - 4) > Fraction(4, 50):  # 2% of 4
            ok = False
    elapsed = time.perf_counter() - t0
    report(
        "C7",
        ok and elapsed < 5.0,
        f"fiber coefficient ratios at n=400 within 2% of 4: "
        f"{ {l: round(v, 4) for l, v in ratios.items()} } in {elapsed:.2f}s",
    )


def test_c8_sampler_uniformity(shape_sets):
    scipy_stats = pytest.importorskip("scipy.stats")
    t0 = time.perf_counter()
    n_draws = 500_000

    q1_shapes = shape_sets(2, 1)
    index_of = {s.code: k for k, s in enumerate(q1_shapes)}
    sampler = BishapeSampler(1, seed=20260809)

    cat_counts = [0] * len(q1_shapes)
    arc_counts: dict[int, int] = {}
    idx_cache: dict[int, int] = {}
    for _ in range(n_draws):
        s = sampler.draw()
        key = id(s)
        idx = idx_cache.get(key)
        if idx is None:
            idx = index_of[canonical_code(s.diagram)]
            idx_cache[key] = idx
        cat_counts[idx] += 1
        arc_counts[s.n_arcs] = arc_counts.get(s.n_arcs, 0) + 1

    problems: list[str] = []

    chi2, pvalue = scipy_stats.chisquare(cat_counts)
    if not (0.001 <= pvalue <= 0.999):
        problems.append(f"chi-square p={pvalue:.5f} outside [0.001, 0.999]")

    q1 = shape_poly_2bb(1)
    total_shapes = q1(1)
    for arcs in range(5, 11):
        p = q1[arcs] / total_shapes
        expected = n_draws * p
        sigma = math.sqrt(n_draws * p * (1 - p))
        observed = arc_counts.get(arcs, 0)
        if abs(observed - expected) > 3 * sigma:
            problems.append(
                f"arc bin {arcs}: observed {observed}, expected {expected:.0f}"
            )

    p_accept = Fraction(3664, 3696)
    attempts = sampler.attempts
    sigma_acc = math.sqrt(float(p_accept) * (1 - float(p_accept)) / attempts)
    observed_acc = sampler.connected_hits / attempts
    if abs(observed_acc - float(p_accept)) > 3 * sigma_acc:
        problems.append(
            f"acceptance {observed_acc:.6f} vs {float(p_accept):.6f}"
        )

    elapsed = time.perf_counter() - t0
    report(
        "C8",
        not problems and elapsed < 120,
        f"N={n_draws} genus-1 draws: chi-square p={pvalue:.4f} over 1832 bins, "
        f"arc histogram within 3 sigma, acceptance "
        f"{observed_acc:.6f} ~ 3664/3696 in {elapsed:.1f}s"
        + (f"; failed {problems}" if problems else ""),
    )


def test_c9_invariant_suite():
    t0 = time.perf_counter()
    violations: list[str] = []

    pool: list[Diagram] = []
    for b in (1, 2):
        for n in range(1, 6):
            pool.extend(all_matchings(b, n))

    for d in pool:
        g = genus(d)
        dec = boundary_components(d)
        if sum(len(c) for c in dec.cycles) != 2 * d.n_arcs:
            violations.append(f"boundary length sum at {canonical_code(d)}")
        if genus(plant(d)) != g:
            violations.append(f"plant changes genus at {canonical_code(d)}")
        if project_shape(d).genus != g:
            violations.append(f"projection changes genus at {canonical_code(d)}")
        for a in d.arcs:
            # genus monotonicity under single-arc insertion, read as removal
            g2 = genus(Diagram(d.backbone_lengths, d.arcs - {a}))
            if g - g2 not in (0, 1):
                violations.append(f"monotonicity at {canonical_code(d)} minus {a}")

    small = [d for d in pool if d.n_arcs <= 3]
    for a in small[::7]:
        for b_ in small[::11]:
            u = disjoint_union(a, b_)
            if genus(u) != genus(a) + genus(b_) - 1:
                violations.append("pairwise additivity")
            parts = components(u)
            if genus(u) != sum(genus(p) for p in parts) - (len(parts) - 1):
                violations.append("component additivity")

    elapsed = time.perf_counter() - t0
    report(
        "C9",
        not violations,
        f"monotonicity, projection/plant genus preservation, additivity and "
        f"boundary-length sum hold on {len(pool)} matchings (<=5 arcs, all "
        f"splits) in {elapsed:.1f}s"
        + (f"; violations {sorted(set(violations))[:5]}" if violations else ""),
    )
