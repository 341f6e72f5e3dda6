"""Experiment harness: reproducible probes of the two-weight commutator
equivalence, the Riesz/A^p characterization, the Dirichlet counterexample,
BMO flavor coincidences, and the John-Nirenberg inequality.

Each experiment's keyword parameters are its config schema: run binds a
config to the experiment's signature, refusing a key it does not take and a
value not of its default's type (grid.checked_config), and calls it with
the checked values.

Reports are deterministic: a fixed seed fixes every number, reductions run
in fixed orders, and the report JSON carries the config as given, its
content hash and the tolerance table in force.  Wall-clock goes to the
log, never into the report file, so identical config + seed reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import logging
import time
from pathlib import Path

import numpy as np

from . import bmo as bmo_mod
from .dyadic import lattice_family, random_haar_sums
from .errors import ParameterError, RangeError
from .grid import Grid, GridFunction, checked_config, restrict
from .operators import commutator, commutator_norms, riesz, weighted_operator_norm
from .squarefn import TimeGrid
from .weights import ap_constant_per_lattice, ap_deltaN_constant, ap_quotient_on_box, bloom_weight, weight_from_spec

log = logging.getLogger("wharm.harness")

EXPERIMENTS = {}


def experiment(name):
    def wrap(fn):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


def canonical_json(obj) -> str:
    def scrub(o):
        if isinstance(o, np.generic):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON-serializable: {type(o)}")

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=scrub)


def content_hash(cfg: dict) -> str:
    """Hash of the canonical config plus the bytes of any referenced files."""
    h = hashlib.sha256(canonical_json(cfg).encode())

    def walk(obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                if key == "file" and isinstance(obj[key], str):
                    try:
                        h.update(Path(obj[key]).read_bytes())
                    except OSError:
                        h.update(b"<missing>")
                walk(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(cfg)
    return h.hexdigest()


def write_report(report: dict, out_path: str, csv_path: str = None) -> None:
    with open(out_path, "w") as fh:
        fh.write(canonical_json(report))
    if csv_path:
        rows = report.get("rows", [])
        keys = sorted({k for r in rows if isinstance(r, dict) for k in r})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for r in rows:
                if isinstance(r, dict):
                    writer.writerow({k: r.get(k, "") for k in keys})


def _normalized_symbols(grid, lattices, nu, count, seed, norm_fn):
    """Random Haar sums with coefficients scaled by sqrt|Q| <nu>_Q, normalized:
    (stack of the symbols of nonzero norm, number skipped).  The symbols are
    one random_haar_sums stack on lattices[0], the stream of one
    random_haar_sum call per symbol, drawn to generation 4; norm_fn takes the
    whole stack and returns one norm per row."""
    rng = np.random.default_rng(seed)
    drawn = random_haar_sums(lattices[0], rng, count, weight=nu, max_generation=4)
    norms = norm_fn(drawn)
    kept = norms > 0
    if not kept.any():
        raise ParameterError(f"max_generation {lattices[0].max_generation} is too shallow: "
                             f"all {count} symbols drawn on its lattices have norm 0")
    return drawn[kept] / norms[kept].reshape((-1,) + (1,) * grid.dim), int(np.sum(~kept))


DEFAULT_PAIRS = (
    {"mu": {"kind": "one"}, "lambda": {"kind": "one"}},
    {"mu": {"kind": "one-sided-power", "alpha": 0.5}, "lambda": {"kind": "one"}},
    {"mu": {"kind": "power", "alpha": 0.25}, "lambda": {"kind": "one-sided-power", "alpha": 0.5}},
)


@experiment("two-weight-commutator")
def run_two_weight_commutator(dim=1, halfwidth=1.0, points_per_axis=256, max_generation=None, p=2.0,
                              symbols=50, seed=0, band_cap=50.0, half_space=False, weight_pairs=DEFAULT_PAIRS) -> dict:
    """Theorem-level band: ||[b, R_{N,l}]||_{mu->lambda} against ||b||_{BMO_{Delta_N, nu}}."""
    grid = Grid(dim, halfwidth, points_per_axis)
    lattices = lattice_family(grid, max_generation)
    tg = TimeGrid.geometric(grid)

    # half-space variant: the operators act on the upper half grid directly
    base = grid.with_domain("upper") if half_space else grid
    transforms = [riesz("neumann", j + 1) for j in range(grid.dim)]

    rows = []
    bands = []
    for pair in weight_pairs:
        if not isinstance(pair, dict) or sorted(pair) != ["lambda", "mu"]:
            raise ParameterError(f"a weight pair holds the keys mu and lambda, got {pair!r}")
        mu = weight_from_spec(pair["mu"], grid)
        lam = weight_from_spec(pair["lambda"], grid)
        nu = bloom_weight(mu, lam, p)
        # the weights the norms read: their upper halves in the half-space variant
        muv, lamv = (restrict(v, "upper") if half_space else v for v in (mu, lam))

        def bmo_nu(stack):
            return bmo_mod.bmo_norms(stack, grid, nu, "carleson-heat-neumann", lattices, tg=tg)

        drawn, skipped = _normalized_symbols(grid, lattices, nu, symbols, seed, bmo_nu)
        # symbols carry unit BMO norm, so the measured norm is the ratio itself
        bv = drawn[..., grid.points_per_axis // 2:] if half_space else drawn
        totals = np.zeros(len(drawn))
        for R in transforms:
            norms, certs = commutator_norms(bv, R, base, muv, lamv, seed=seed, p=p)
            totals += norms
        ratios = [float(t) for t in totals]
        lo, hi = (min(ratios), max(ratios)) if ratios else (0.0, 0.0)
        bands.append({"pair": pair, "c": lo, "C": hi, "spread": hi / lo if lo > 0 else None,
                      "skipped_constant_symbols": skipped})
        for i, r in enumerate(ratios):
            rows.append({"pair": canonical_json(pair), "symbol": i, "ratio": r})
    ok = all(b["spread"] is not None and b["spread"] <= band_cap for b in bands)
    # p = 2 gets top singular values; the ascent's norms at other p are
    # certified lower bounds only, and the report says so
    method = certs[0]["method"]
    return {
        "norm_method": method,
        "norms_are_lower_bounds": method == "ascent",
        "tolerances": {"band_cap": band_cap},
        "bands": bands,
        "rows": rows,
        "pass": bool(ok),
    }


@experiment("riesz-ap")
def run_riesz_ap_characterization(dim=1, halfwidth=1.0, points_per_axis=256, max_generation=None, p=2.0,
                                  alphas=(0.2, 0.5, 0.8, 0.9, 0.95)) -> dict:
    """Co-divergence of ||R_{N,l}||_{L^2_w} and the Neumann A^2 characteristic.

    The Riesz norms are top singular values, so the experiment runs at p = 2
    only: any other p would pair A^p constants with L^2 norms."""
    if p != 2.0:
        raise ParameterError(f"riesz-ap computes its Riesz norms at p = 2 only, got p = {p!r}")
    grid = Grid(dim, halfwidth, points_per_axis)
    lattices = lattice_family(grid, max_generation)
    R = riesz("neumann", grid.dim)
    rows = []
    for alpha in alphas:
        w = weight_from_spec({"kind": "power", "alpha": alpha}, grid)
        apn = ap_deltaN_constant(w, p, lattices)
        val, _ = weighted_operator_norm(R, grid, w, w)
        rows.append(
            {
                "alpha": alpha,
                "ap_deltaN": apn,
                "riesz_norm": val,
                "ap_per_lattice": ap_constant_per_lattice(w, p, lattices),
            }
        )
    mono_ap = all(rows[i]["ap_deltaN"] <= rows[i + 1]["ap_deltaN"] * (1 + 1e-9) for i in range(len(rows) - 1))
    mono_norm = all(rows[i]["riesz_norm"] <= rows[i + 1]["riesz_norm"] * (1 + 1e-9) for i in range(len(rows) - 1))

    # contrast: the one-sided power weight is Neumann-admissible while its
    # classical quotient on growing boxes diverges; the box scan runs on a wide
    # grid so the boxes sit past the crossover scale of the two power terms
    w_os = weight_from_spec({"kind": "one-sided-power", "alpha": 0.5}, grid)
    wide = Grid(grid.dim, 64.0, 4096 if grid.dim == 1 else 64)
    w_os_wide = weight_from_spec({"kind": "one-sided-power", "alpha": 0.5}, wide)
    boxes = [8.0, 16.0, 32.0, 64.0]
    quotients = [ap_quotient_on_box(w_os_wide, p, [-a] * wide.dim, [a] * wide.dim) for a in boxes]
    ap_os = ap_deltaN_constant(w_os, p, lattices)
    norm_os, _ = weighted_operator_norm(R, grid, w_os, w_os)
    contrast = {
        "boxes": boxes,
        "classical_quotients": quotients,
        "quotient_growth": quotients[-1] / quotients[0],
        "ap_deltaN": ap_os,
        "riesz_norm": norm_os,
    }
    ok = mono_ap and mono_norm and quotients[-1] > quotients[0]
    return {
        "tolerances": {"monotone_slack": 1e-9},
        "rows": rows,
        "contrast": contrast,
        "pass": bool(ok),
    }


@experiment("dirichlet-counterexample")
def run_dirichlet_counterexample(refinements=(64, 256, 1024), halfwidth=1.0, growth_floor=0.5,
                                 commutator_variation_cap=2.0) -> dict:
    """b0 = log x_n: bounded half-space BMO and commutator norm, exploding odd-extension BMO."""
    # refinement factors of 4 keep floor(N/3) odd, so the finest shifted cube
    # straddles the interface at every size and the log divergence is sampled
    # cleanly; growth is normalized per doubling
    grids = [Grid(1, halfwidth, N) for N in refinements]
    if any(fine.points_per_axis <= coarse.points_per_axis for coarse, fine in zip(grids, grids[1:])):
        raise ParameterError(f"refinements must be strictly increasing, got {list(refinements)}")
    rows = []
    for grid in grids:
        N = grid.points_per_axis
        lattices = lattice_family(grid)
        gu = grid.with_domain("upper")
        x = gu.axis_coords(0)
        b0 = GridFunction(gu, np.log(x))
        half_norm = bmo_mod.bmo_norm(b0, None, "unweighted-half", lattices)
        odd_norm = bmo_mod.bmo_norm(b0, None, "odd-ext-half", lattices)
        even_norm = bmo_mod.bmo_norm(b0, None, "even-ext-half", lattices)
        R = riesz("dirichlet", 1)
        val, _ = weighted_operator_norm(commutator(b0, R), gu)
        rows.append(
            {
                "N": N,
                "half_bmo": half_norm,
                "odd_extension_bmo": odd_norm,
                "even_extension_bmo": even_norm,
                "commutator_norm": val,
            }
        )
    growths = [
        (rows[i + 1]["odd_extension_bmo"] - rows[i]["odd_extension_bmo"])
        / np.log2(rows[i + 1]["N"] / rows[i]["N"])
        for i in range(len(rows) - 1)
    ]
    comm_vals = [r["commutator_norm"] for r in rows]
    if not all(v > 0.0 for v in comm_vals):
        # the commutator norms are ratios' denominators; they vanish when the
        # grid's frequencies overflow or underflow
        raise ParameterError(f"halfwidth={halfwidth!r} gives commutator norms {comm_vals}; "
                             "their variation needs them positive, so take a halfwidth nearer 1")
    half_vals = [r["half_bmo"] for r in rows]
    even_vals = [r["even_extension_bmo"] for r in rows]
    checks = {
        "odd_growth_per_doubling": growths,
        # no growth measured is no evidence of growth
        "odd_growth_ok": bool(growths) and all(g >= growth_floor for g in growths),
        "half_bmo_stable": max(half_vals) / min(half_vals) < 1.5,
        "even_extension_stable": max(even_vals) / min(even_vals) < 1.5,
        "commutator_variation": max(comm_vals) / min(comm_vals),
        "commutator_ok": max(comm_vals) / min(comm_vals) < commutator_variation_cap,
    }
    # flat control symbol
    gridc = Grid(1, halfwidth, refinements[0]).with_domain("upper")
    control = GridFunction(gridc, np.ones(gridc.shape))
    ctrl_val, _ = weighted_operator_norm(commutator(control, R), gridc)
    checks["constant_control_commutator"] = ctrl_val
    ok = checks["odd_growth_ok"] and checks["half_bmo_stable"] and checks["commutator_ok"]
    return {
        "tolerances": {"growth_floor": growth_floor, "commutator_variation_cap": commutator_variation_cap},
        "rows": rows,
        "checks": checks,
        "pass": bool(ok),
    }


@experiment("bmo-coincidence")
def run_bmo_coincidence(dim=1, halfwidth=1.0, points_per_axis=256, max_generation=None, symbols=20, seed=0,
                        band_cap=50.0, weights=({"kind": "one"}, {"kind": "power", "alpha": 0.25},
                                                {"kind": "one-sided-power", "alpha": 0.3})) -> dict:
    """Flavor-pair ratio bands: classical vs semigroup vs Haar-Carleson vs Neumann."""
    grid = Grid(dim, halfwidth, points_per_axis)
    lattices = lattice_family(grid, max_generation)
    dyadic = lattices[0]
    tg = TimeGrid.geometric(grid)
    rng = np.random.default_rng(seed)
    pair_ratios = {"classical_vs_heat": [], "haar_vs_wr2": [], "neumann_vs_sides": []}
    rows = []
    for wspec in weights:
        w = weight_from_spec(wspec, grid)
        drawn = random_haar_sums(dyadic, rng, symbols, max_generation=4)
        n_cl = bmo_mod.bmo_norms(drawn, grid, w, "classical-w", lattices)
        kept = np.flatnonzero(n_cl != 0.0)
        stack = drawn[kept]
        n_heat = bmo_mod.bmo_norms(stack, grid, w, "carleson-heat-free", lattices, tg=tg)
        n_haar = bmo_mod.bmo_norms(stack, grid, w, "carleson-haar", dyadic)
        n_wr2 = bmo_mod.bmo_norms(stack, grid, w, "classical-wr", lattices, r=2.0)
        n_neu = bmo_mod.bmo_norms(stack, grid, w, "carleson-heat-neumann", lattices, tg=tg)
        s_p, s_m = bmo_mod.bmo_deltaN_sides_norms(stack, grid, w, lattices, tg=tg)
        if np.any(s_p + s_m == 0.0):
            raise ParameterError(f"max_generation {dyadic.max_generation} is too shallow: "
                                 "a symbol drawn on its lattices has Delta_N sides norm 0")
        for j, i in enumerate(kept):
            heat, haar, wr2, neu = float(n_heat[j]), float(n_haar[j]), float(n_wr2[j]), float(n_neu[j])
            sides = float(s_p[j]) + float(s_m[j])
            classical = float(n_cl[i])
            pair_ratios["classical_vs_heat"].append(heat / classical)
            pair_ratios["haar_vs_wr2"].append(haar / wr2)
            pair_ratios["neumann_vs_sides"].append(neu / sides)
            rows.append(
                {
                    "weight": canonical_json(wspec),
                    "symbol": int(i),
                    "classical": classical,
                    "heat": heat,
                    "haar": haar,
                    "wr2": wr2,
                    "neumann": neu,
                    "sides_sum": sides,
                }
            )
    bands = {}
    ok = True
    for name, vals in pair_ratios.items():
        lo, hi = min(vals), max(vals)
        bands[name] = {"c": lo, "C": hi, "spread": hi / lo}
        ok &= hi / lo <= band_cap
    return {
        "tolerances": {"band_cap": band_cap},
        "bands": bands,
        "rows": rows,
        "pass": bool(ok),
    }


@experiment("john-nirenberg")
def run_john_nirenberg(dim=1, halfwidth=1.0, points_per_axis=256, max_generation=None, instances=200, seed=0,
                       p=2.0, r=2.0, weights=({"kind": "one"}, {"kind": "power", "alpha": 0.3},
                                              {"kind": "one-sided-power", "alpha": 0.4})) -> dict:
    """Thin wrapper over the BMO module's John-Nirenberg report."""
    grid = Grid(dim, halfwidth, points_per_axis)
    lattices = lattice_family(grid, max_generation)
    rng = np.random.default_rng(seed)
    # instance i takes weight i % len(weights); the report batches each weight's instances
    ws = [weight_from_spec(spec, grid) for spec in weights]
    symbols = random_haar_sums(lattices[0], rng, instances, max_generation=3)
    rep = bmo_mod.john_nirenberg_report(symbols, grid, ws, p, r, lattices)
    rhos = [row["rho"] for row in rep["rows"] if "rho" in row]
    return {
        "tolerances": {"rho_floor": 1.0},
        "rows": rep["rows"],
        "fitted_C": rep["fitted_C"],
        "rho_min": min(rhos),
        "rho_max": max(rhos),
        "pass": bool(min(rhos) >= 1.0 - 1e-12),
    }


def run(name: str, cfg: dict) -> dict:
    """The report of experiment name on cfg, which echoes the config as given.

    A Python float error the experiment raises (OverflowError,
    ZeroDivisionError, FloatingPointError) leaves it as a RangeError that
    names the experiment."""
    if name not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}")
    t0 = time.perf_counter()
    params = inspect.signature(EXPERIMENTS[name]).parameters
    checked = checked_config(cfg, {key: p.default for key, p in params.items()}, name)
    try:
        report = EXPERIMENTS[name](**checked)
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise RangeError(f"experiment {name} left the floating-point range: {type(exc).__name__}: {exc}") from exc
    report.update(experiment=name, config=cfg, input_hash=content_hash(cfg))
    report.setdefault("schema_version", 1)
    # wall-clock stays in the log so identical config + seed reproduces the
    # report file byte for byte
    log.info("experiment %s finished in %.2fs", name, time.perf_counter() - t0)
    return report
