"""Acceptance suite: one test per criterion, one PASS/FAIL line per check.

Every tolerance is pinned here.  Criterion 1.4 (the pointwise sqrt(2)/2
identity between the Neumann and free area functions) is asserted exactly as
stated; it fails for generic data because the cone-halving step behind it
swaps the cone vertex for its reflection, and only the two-sided band
sqrt(1/2) S <= S_N <= S is an identity.  The failure is reported honestly
rather than the test being loosened; the README carries the analysis.
"""

from pathlib import Path

import numpy as np
from operator_oracles import dense_weighted_norm, reflected_spectral_oracle, sided_kernel_sums, sparse_operator_matrix
from tree_oracles import bmo_good_function, cell_count, cell_indices, dyadic_local_bmo, haar_reconstruct, parent
from weight_oracles import cube_average, doubling_ratio

from wharm import bmo as bmo_mod
from wharm import harness
from wharm.dyadic import DyadicCube, build_lattice, haar_coefficients, lattice_family, random_haar_sum
from wharm.grid import Grid, GridFunction, constant, extend_even, restrict
from wharm.kernels import heat_free, qt_free
from wharm.operators import OperatorHandle, apply, commutator, riesz
from wharm.sparse import build_sparse_from_recursion, carleson_to_sparse, cz_stopping
from wharm.squarefn import ConeSpec, TimeGrid, area_function
from wharm.weights import ap_constant, ap_quotient_on_box, one_sided_power_weight, power_weight

Q0_1D = DyadicCube(0, (0,))


def _report(lines, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""), flush=True)
    if not ok:
        lines.append(name + (": " + detail if detail else ""))


# -------------------------------------------------------------------------
# Criterion 1: exact structural identities (1e-10 unless noted)

def test_criterion_1_structural_identities(rng):
    # 1.1-1.3 against independent oracles of the reflection path: the
    # quadrature backend against the same-side kernel sums built from the
    # kernel formulas, the Fourier backend against the DCT/DST diagonalization
    # of the even (odd) extension
    failures = []
    oracles = {"quadrature": sided_kernel_sums, "fourier": reflected_spectral_oracle}

    def err(kind, family, f, t=None, j=None):
        """Largest deviation over both backends of the operator from its oracle."""
        return max(
            np.max(np.abs(apply(OperatorHandle(kind, family, t=t, j=j, backend=backend), f).values
                          - oracle(kind, family, f, t=t, j=j)))
            for backend, oracle in oracles.items()
        )

    for n, N in ((1, 128), (2, 24)):
        gu = Grid(n, 1.0, N, "upper")
        f = GridFunction(gu, rng.standard_normal(gu.shape))
        e = err("semigroup", "neumann", f, t=0.02)
        _report(failures, f"1.1 semigroup reflection identity n={n}", e <= 1e-10, f"max err {e:.2e}")

        for j in range(1, n + 1):
            e1, e2 = err("riesz", "neumann", f, j=j), err("riesz", "dirichlet", f, j=j)
            _report(failures, f"1.2 Riesz reductions n={n} j={j}", max(e1, e2) <= 1e-10, f"errs {e1:.2e}/{e2:.2e}")

        # [b, R_{N,j}] f = b O(f) - O(b f), O the oracle of R_{N,j}
        b = GridFunction(gu, rng.standard_normal(gu.shape))
        bf = GridFunction(gu, b.values * f.values)
        for j in range(1, n + 1):
            e = 0.0
            for backend, oracle in oracles.items():
                got = apply(commutator(b, riesz("neumann", j, backend=backend)), f).values
                want = b.values * oracle("riesz", "neumann", f, j=j) - oracle("riesz", "neumann", bf, j=j)
                e = max(e, np.max(np.abs(got - want)))
            _report(failures, f"1.3 commutator reduction n={n} j={j}", e <= 1e-10, f"max err {e:.2e}")

    # 1.5 Heaviside locality at 1e-12
    g = Grid(1, 1.0, 128)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0)
    f = GridFunction(g, rng.standard_normal(g.shape))
    sn = area_function(f, "qt", ConeSpec("neumann"), tg)
    up = g.points()[..., 0] > 0
    f2 = GridFunction(g, f.values + np.where(~up, rng.standard_normal(g.shape), 0.0))
    sn2 = area_function(f2, "qt", ConeSpec("neumann"), tg)
    e_cone = np.max(np.abs(sn.values[up] - sn2.values[up]))
    k1 = apply(riesz("neumann", 1, backend="quadrature"), f)
    k2 = apply(riesz("neumann", 1, backend="quadrature"), f2)
    e_ker = np.max(np.abs(k1.values[up] - k2.values[up]))
    _report(failures, "1.5 Heaviside locality", max(e_cone, e_ker) <= 1e-12, f"errs {e_cone:.2e}/{e_ker:.2e}")

    assert not failures, "; ".join(failures)


def test_criterion_1_4_pointwise_sqrt2_identity(rng):
    """S_N(f) = (sqrt(2)/2) S(f_{+-,e}) pointwise at rel 1e-8, as stated.

    This fails for generic data and the failure is genuine: substituting
    y -> y~ maps the missing half of the cone at x onto the upper half of the
    cone at the reflected vertex x~, not at x, so the halving of the cone
    integral behind the stated identity is valid under integration against
    even weights but not pointwise.  What does hold pointwise, exactly, is
    sqrt(1/2) S(f_{+,e}) <= S_N(f) <= S(f_{+,e}) (both bounds attained; the
    measured deviation below reaches sqrt(2) - 1).  The assertion is kept as
    stated rather than loosened; the README carries the analysis.
    """
    failures = []
    g = Grid(1, 1.0, 128)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0)
    f = GridFunction(g, rng.standard_normal(g.shape))
    sn = area_function(f, "qt", ConeSpec("neumann"), tg)
    up = g.points()[..., 0] > 0
    rels = []
    band_ok = True
    for mask, ext in ((up, "upper"), (~up, "lower")):
        se = area_function(extend_even(restrict(f, ext)), "qt", ConeSpec("free"), tg)
        target = np.sqrt(0.5) * se.values[mask]
        rels.append(np.max(np.abs(sn.values[mask] - target) / target))
        band_ok &= bool(
            np.all(sn.values[mask] >= target * (1 - 1e-12))
            and np.all(sn.values[mask] <= se.values[mask] * (1 + 1e-12))
        )
    rel = max(rels)
    _report(
        failures,
        "1.4 pointwise sqrt(2)/2 Neumann area identity (not an identity; only the band holds)",
        rel <= 1e-8,
        f"max rel dev {rel:.3f}; true band sqrt(1/2) S<=S_N<=S holds: {band_ok}",
    )
    assert not failures, "; ".join(failures)


# -------------------------------------------------------------------------
# Criterion 2: oracle equivalences on small instances

def test_criterion_2_oracles(rng):
    failures = []

    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 5)
    w = GridFunction(g, np.exp(0.7 * rng.standard_normal(g.shape)))
    impl = ap_constant(w, 2.0, lats)
    oracle = 0.0
    for lat in lats:
        for cube in lat.cubes:
            idx = np.ix_(*cell_indices(lat, cube))
            oracle = max(oracle, w.values[idx].mean() * (w.values[idx] ** -1.0).mean())
    _report(failures, "2.1 A^p constant vs exhaustive scan", abs(impl - oracle) <= 1e-12 * oracle)

    lat = lats[0]
    ok = True
    for _ in range(20):
        dens = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
        alpha = rng.uniform(1.5, 3.0)
        fam = cz_stopping(dens, lat, Q0_1D, alpha)
        base = dens.values.mean()
        sel = set(fam.selected)
        for cube in lat.cubes:
            if cube.generation == 0:
                continue
            avg = dens.values[np.ix_(*cell_indices(lat, cube))].mean()
            anc, anc_hit = parent(cube), False
            while anc is not None and anc.generation > 0:
                if dens.values[np.ix_(*cell_indices(lat, anc))].mean() > alpha * base:
                    anc_hit = True
                    break
                anc = parent(anc)
            if (cube in sel) != (avg > alpha * base and not anc_hit):
                ok = False
    _report(failures, "2.2 CZ stopping vs brute-force rescan", ok)

    lat6 = build_lattice(Grid(1, 1.0, 64), 6)
    dens = GridFunction(Grid(1, 1.0, 64), np.exp(1.2 * rng.standard_normal((64,))))
    coll = build_sparse_from_recursion(lambda c: cz_stopping(dens, lat6, c, 2.0).selected, lat6, Q0_1D, 2.0)
    lam = coll.carleson_constant()
    ok = coll.verify() and lam <= 1.0 / coll.eta + 1e-12
    back = carleson_to_sparse(lat6, coll.cubes, 1.0 / lam)
    ok = ok and back is not None and back.verify()
    _report(failures, "2.3 sparse <-> Carleson both directions", ok, f"Lambda {lam:.3f}")

    f = GridFunction(g, rng.standard_normal(g.shape))
    lat_full = build_lattice(g, 6)
    co = haar_coefficients(f, lat_full)
    mean = float(f.values.mean())
    rec = haar_reconstruct(co, lat_full, mean)
    par = sum(c * c for c in co.values())
    l2 = float(np.sum((f.values - mean) ** 2) * g.cell_volume)
    ok = np.max(np.abs(rec.values - f.values)) <= 1e-10 * np.max(np.abs(f.values)) and abs(par - l2) <= 1e-10 * l2
    _report(failures, "2.4 Haar reconstruction and Parseval", ok)

    ok = True
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        y = rng.uniform(-1, 1, size=2)
        t = rng.uniform(0.05, 0.6)
        d = 1e-5 * t * t
        fd = -t * t * (heat_free(x, y, t * t + d, 2) - heat_free(x, y, t * t - d, 2)) / (2 * d)
        if abs(qt_free(x, y, t, 2) - fd) > 1e-6 * max(abs(fd), 1e-12):
            ok = False
    _report(failures, "2.5 q_t closed form vs finite differences", ok)

    assert not failures, "; ".join(failures)


# -------------------------------------------------------------------------
# Criterion 3: quantitative inequalities with fitted constants

def test_criterion_3_quantitative(rng):
    failures = []
    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 5)
    lat = lats[0]

    rho_ok, fitted = True, 0.0
    for i in range(200):
        w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
        b = random_haar_sum(lat, rng, max_generation=3)
        n1 = bmo_mod.bmo_norm(b, w, "classical-w", lats)
        if n1 == 0:
            continue
        nr = bmo_mod.bmo_norm(b, w, "classical-wr", lats, r=2.0)
        rho = nr / n1
        rho_ok &= rho >= 1.0 - 1e-12
        fitted = max(fitted, rho / ap_constant(w, 2.0, lats))
    _report(failures, "3.1 John-Nirenberg: rho >= 1 and fitted C", rho_ok and fitted <= 100.0, f"fitted C {fitted:.3f}")

    lat6 = build_lattice(g, 6)
    fitted = 0.0
    for i in range(50):
        dens = GridFunction(g, np.exp(rng.uniform(0.5, 1.5) * rng.standard_normal(g.shape)))
        coll = build_sparse_from_recursion(lambda c: cz_stopping(dens, lat6, c, 2.0).selected, lat6, Q0_1D, 2.0)
        w = GridFunction(g, np.exp(0.6 * rng.standard_normal(g.shape)))
        M = sparse_operator_matrix(coll, g)
        val = dense_weighted_norm(M, w, w)
        fitted = max(fitted, val * coll.eta / ap_constant(w, 2.0, [lat6]))
    _report(failures, "3.2 sparse operator A^2 bound", fitted <= 16.0, f"fitted C {fitted:.3f}")

    ok = True
    worst = 0.0
    for i in range(50):
        b = random_haar_sum(lat6, rng, max_generation=4)
        w = GridFunction(g, np.exp(0.8 * rng.standard_normal(g.shape)))
        a, fam = bmo_good_function(b, w, lat6, Q0_1D, 2.0)
        na = dyadic_local_bmo(a, lat6, Q0_1D)
        nb = dyadic_local_bmo(b, lat6, Q0_1D, w=w)
        bound = 2.0 * 2.0 * cube_average(w, lat6, Q0_1D) * nb
        worst = max(worst, na / bound)
        ok &= na <= bound * (1 + 1e-9)
        # stopping-family bounds, exact
        base = cube_average(w, lat6, Q0_1D)
        for R in fam.selected:
            avg = cube_average(w, lat6, R)
            ok &= 2.0 * base < avg <= 2.0 * 2.0 * base * (1 + 1e-12)
        ok &= cell_count(lat6, fam.selected) <= 64 / 2.0 * (1 + 1e-12)
    _report(failures, "3.3 good-function and stopping-family bounds", ok, f"worst slack {worst:.3f}")

    assert not failures, "; ".join(failures)


# -------------------------------------------------------------------------
# Criterion 4: theorem-level two-sided bands at n=1, N=256, p=2, 50 symbols

def test_criterion_4_bands():
    failures = []
    cfg = {
        "points_per_axis": 256,
        "max_generation": 7,
        "symbols": 50,
        "seed": 7,
        "band_cap": 50.0,
        "weight_pairs": [
            {"mu": {"kind": "one"}, "lambda": {"kind": "one"}},
            {"mu": {"kind": "one-sided-power", "alpha": 0.5}, "lambda": {"kind": "one"}},
            {"mu": {"kind": "power", "alpha": 0.25}, "lambda": {"kind": "one-sided-power", "alpha": 0.5}},
        ],
    }
    rep = harness.run("two-weight-commutator", cfg)
    for band in rep["bands"]:
        spread = band["spread"]
        _report(
            failures,
            f"4.1 two-weight commutator band {band['pair']['mu']['kind']}/{band['pair']['lambda']['kind']}",
            spread is not None and spread <= 50.0,
            f"[c,C]=[{band['c']:.3f},{band['C']:.3f}] spread {spread:.2f}",
        )

    rep2 = harness.run(
        "bmo-coincidence",
        {"points_per_axis": 256, "max_generation": 7, "symbols": 17, "seed": 7, "band_cap": 50.0},
    )
    for name, band in rep2["bands"].items():
        _report(
            failures,
            f"4.2 flavor-pair band {name}",
            band["spread"] <= 50.0,
            f"spread {band['spread']:.2f}",
        )
    assert not failures, "; ".join(failures)


# -------------------------------------------------------------------------
# Criterion 5: counterexample behaviors

def test_criterion_5_counterexamples():
    failures = []

    # non-doubling one-sided power weight against the closed-form antiderivative
    g = Grid(1, 1.0, 8192)
    w = one_sided_power_weight(g, 0.5)
    b = 16 * g.h
    got = doubling_ratio(w, [b / 16.0], [11.0 * b / 16.0])
    wq = (2.0 / 3.0) * ((11 * b / 16) ** 1.5 - (b / 16) ** 1.5)
    w2q = b / 4.0 + (2.0 / 3.0) * b ** 1.5
    closed = w2q / wq
    ok = got > 10.0 and abs(got - closed) <= 1e-8 * closed
    _report(failures, "5.1 non-doubling weight ratio", ok, f"ratio {got:.2f} vs closed {closed:.2f}")

    # classical quotient grows with the box, Neumann quotient stable to 5%
    gw = Grid(1, 64.0, 4096)
    w_os = one_sided_power_weight(gw, 0.5)
    boxes = [8.0, 16.0, 32.0, 64.0]
    qs = [ap_quotient_on_box(w_os, 2.0, [-a], [a]) for a in boxes]
    up = power_weight(gw, 0.5)
    lo = constant(gw, 1.0)
    qn = [
        ap_quotient_on_box(up, 2.0, [-a], [a]) + ap_quotient_on_box(lo, 2.0, [-a], [a])
        for a in boxes
    ]
    ok = all(qs[i] < qs[i + 1] for i in range(3)) and max(qn) / min(qn) <= 1.05
    _report(failures, "5.2 one-sided power growth vs Neumann stability", ok,
            f"classical {qs[0]:.3f}->{qs[-1]:.3f}, neumann spread {max(qn)/min(qn):.4f}")

    # Dirichlet counterexample: log x_n
    rep = harness.run("dirichlet-counterexample", {"refinements": [64, 256, 1024]})
    ch = rep["checks"]
    ok = ch["odd_growth_ok"] and ch["commutator_ok"] and ch["half_bmo_stable"]
    _report(
        failures,
        "5.3 Dirichlet counterexample behaviors",
        bool(ok),
        f"odd growth/doubling {['%.3f' % gg for gg in ch['odd_growth_per_doubling']]}, "
        f"commutator variation {ch['commutator_variation']:.3f}",
    )
    assert not failures, "; ".join(failures)


# -------------------------------------------------------------------------
# Criterion 6: determinism

def test_criterion_6_determinism(tmp_path):
    failures = []
    for name, cfg in (
        ("john-nirenberg", {"points_per_axis": 64, "instances": 8, "max_generation": 5, "seed": 3}),
        (
            "two-weight-commutator",
            {
                "points_per_axis": 64,
                "symbols": 3,
                "seed": 3,
                "max_generation": 5,
                "weight_pairs": [{"mu": {"kind": "one"}, "lambda": {"kind": "one"}}],
            },
        ),
        ("bmo-coincidence", {"points_per_axis": 64, "symbols": 2, "max_generation": 5, "seed": 9}),
        ("riesz-ap", {"points_per_axis": 64, "max_generation": 5}),
        ("dirichlet-counterexample", {"refinements": [64, 256]}),
    ):
        p1 = str(tmp_path / f"{name}-1.json")
        p2 = str(tmp_path / f"{name}-2.json")
        harness.write_report(harness.run(name, cfg), p1)
        harness.write_report(harness.run(name, cfg), p2)
        same = Path(p1).read_bytes() == Path(p2).read_bytes()
        _report(failures, f"6 determinism {name}", same)
    assert not failures, "; ".join(failures)
