import numpy as np
import pytest

from wharm import harness
from wharm.errors import ParameterError, RangeError
from wharm.operators import commutator_norms


def test_john_nirenberg_experiment():
    rep = harness.run("john-nirenberg", {"points_per_axis": 64, "instances": 12, "max_generation": 5, "seed": 3})
    assert rep["pass"]
    assert rep["rho_min"] >= 1.0 - 1e-12
    assert np.isfinite(rep["fitted_C"])


def test_bmo_coincidence_experiment():
    rep = harness.run("bmo-coincidence", {"points_per_axis": 64, "symbols": 3, "max_generation": 5, "seed": 2})
    assert rep["pass"]
    for band in rep["bands"].values():
        assert band["spread"] <= 50.0


def test_riesz_ap_experiment():
    rep = harness.run("riesz-ap", {"points_per_axis": 64, "max_generation": 5})
    assert rep["pass"]
    norms = [r["riesz_norm"] for r in rep["rows"]]
    aps = [r["ap_deltaN"] for r in rep["rows"]]
    assert norms == sorted(norms) and aps == sorted(aps)
    assert rep["contrast"]["quotient_growth"] > 1.0


def test_dirichlet_experiment_small():
    rep = harness.run("dirichlet-counterexample", {"refinements": [64, 256]})
    assert rep["checks"]["odd_growth_ok"]
    assert rep["checks"]["commutator_ok"]


def test_two_weight_experiment_small():
    cfg = {
        "points_per_axis": 64,
        "symbols": 4,
        "seed": 1,
        "max_generation": 5,
        "weight_pairs": [
            {"mu": {"kind": "one"}, "lambda": {"kind": "one"}},
            {"mu": {"kind": "one-sided-power", "alpha": 0.5}, "lambda": {"kind": "one"}},
        ],
    }
    rep = harness.run("two-weight-commutator", cfg)
    assert rep["pass"]
    for band in rep["bands"]:
        assert band["C"] / band["c"] <= 50.0


def test_two_weight_half_space_variant():
    cfg = {
        "points_per_axis": 64,
        "symbols": 3,
        "seed": 5,
        "max_generation": 5,
        "half_space": True,
        "weight_pairs": [{"mu": {"kind": "one"}, "lambda": {"kind": "one"}}],
    }
    rep = harness.run("two-weight-commutator", cfg)
    assert rep["bands"][0]["C"] > 0


def test_unknown_experiment():
    with pytest.raises(ParameterError):
        harness.run("nope", {})


def test_determinism_byte_identical(tmp_path):
    cfg = {"points_per_axis": 64, "instances": 6, "max_generation": 5, "seed": 11}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    harness.write_report(harness.run("john-nirenberg", cfg), str(p1), str(tmp_path / "a.csv"))
    harness.write_report(harness.run("john-nirenberg", cfg), str(p2), str(tmp_path / "b.csv"))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_report_embeds_hash_and_tolerances():
    cfg = {"points_per_axis": 64, "instances": 4, "max_generation": 4, "seed": 0}
    rep = harness.run("john-nirenberg", cfg)
    assert rep["input_hash"] == harness.content_hash(cfg)
    assert "tolerances" in rep


def test_two_weight_general_p_is_labeled_lower_bound():
    cfg = {
        "points_per_axis": 32,
        "symbols": 2,
        "seed": 4,
        "max_generation": 4,
        "p": 3.0,
        "weight_pairs": [{"mu": {"kind": "one"}, "lambda": {"kind": "one"}}],
    }
    rep = harness.run("two-weight-commutator", cfg)
    assert rep["norm_method"] == "ascent"
    assert rep["norms_are_lower_bounds"] is True
    assert rep["bands"][0]["C"] > 0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_two_weight_norm_method_is_the_certificates(p, monkeypatch):
    # the report names the method of the certificates its norms came with
    methods = []

    def recording(*args, **kwargs):
        norms, certs = commutator_norms(*args, **kwargs)
        methods.extend(cert["method"] for cert in certs)
        return norms, certs

    monkeypatch.setattr(harness, "commutator_norms", recording)
    pair = {"mu": {"kind": "one"}, "lambda": {"kind": "one"}}
    cfg = {**SMALL_CONFIGS["two-weight-commutator"], "p": p, "weight_pairs": [pair]}
    rep = harness.run("two-weight-commutator", cfg)
    assert methods and set(methods) == {rep["norm_method"]}
    assert rep["norm_method"] == ("svd" if p == 2.0 else "ascent")
    assert rep["norms_are_lower_bounds"] is (p != 2.0)


def test_two_weight_ascent_out_of_range_raises():
    # p - 1 = 1e-7: the ascent's power (|z| / mu)^(1/(p-1)) overflows; a
    # report of NaN ratios could not be written
    cfg = {"points_per_axis": 8, "seed": 0, "p": 1.0000001}
    with np.errstate(over="ignore", under="ignore"), pytest.raises(RangeError, match="p = 1.0000001"):
        harness.run("two-weight-commutator", cfg)


def test_content_hash_tracks_referenced_files(tmp_path):
    import json as _json

    from wharm.grid import Grid, GridFunction, save_csv

    g = Grid(1, 1.0, 16)
    p1 = str(tmp_path / "w1.csv")
    save_csv(GridFunction(g, np.full(g.shape, 2.0)), p1)
    cfg = {"weight": {"kind": "grid", "file": p1}}
    h1 = harness.content_hash(cfg)
    save_csv(GridFunction(g, np.full(g.shape, 3.0)), p1)
    h2 = harness.content_hash(cfg)
    assert h1 != h2  # same config text, different file bytes


def test_two_weight_experiment_2d_smoke():
    cfg = {
        "dim": 2,
        "points_per_axis": 16,
        "symbols": 2,
        "seed": 2,
        "max_generation": 3,
        "weight_pairs": [{"mu": {"kind": "one"}, "lambda": {"kind": "one-sided-power", "alpha": 0.4}}],
    }
    rep = harness.run("two-weight-commutator", cfg)
    assert rep["bands"][0]["C"] > 0
    assert rep["bands"][0]["spread"] <= 50.0


def test_two_weight_golden_band():
    # deterministic full-pipeline run: the band for the one-sided-power /
    # unit pair at N=256, p=2, seed 7 is pinned (1e-6 slack absorbs BLAS
    # variation across platforms)
    import json as _json
    import pathlib

    cfg = _json.loads(pathlib.Path("configs/two_weight.json").read_text())
    cfg["weight_pairs"] = [cfg["weight_pairs"][1]]
    rep = harness.run("two-weight-commutator", cfg)
    band = rep["bands"][0]
    assert abs(band["c"] - 4.083094776669019) <= 1e-6 * band["c"]
    assert abs(band["C"] - 6.327841800588562) <= 1e-6 * band["C"]


# one small config per experiment, under each case of a bad config
SMALL_CONFIGS = {
    "two-weight-commutator": {"points_per_axis": 32, "max_generation": 4, "symbols": 2},
    "bmo-coincidence": {"points_per_axis": 32, "max_generation": 4, "symbols": 2},
    "john-nirenberg": {"points_per_axis": 32, "max_generation": 4, "instances": 2},
    "riesz-ap": {"points_per_axis": 32, "max_generation": 4},
    "dirichlet-counterexample": {"refinements": [32, 128]},
}

BAD_CONFIGS = [
    pytest.param("two-weight-commutator", {"points_per_axis": 64.9}, "points_per_axis", id="float-size"),
    pytest.param("two-weight-commutator", {"points_per_axis": 64.0}, "points_per_axis", id="integral-float-size"),
    pytest.param("john-nirenberg", {"dim": 1.7}, "dim", id="float-dim"),
    pytest.param("two-weight-commutator", {"half_space": "false"}, "half_space", id="string-flag"),
    pytest.param("two-weight-commutator", {"half_space": 1}, "half_space", id="int-flag"),
    pytest.param("riesz-ap", {"p": 3.0}, "p = 3.0", id="riesz-ap-p3"),
    pytest.param("john-nirenberg", {"max_generation": 3.7}, "max_generation", id="float-generation"),
    pytest.param("john-nirenberg", {"instances": 10.9}, "instances", id="float-instances"),
    pytest.param("john-nirenberg", {"seed": 1.0}, "seed", id="integral-float-seed"),
    pytest.param("bmo-coincidence", {"symbols": 2.5}, "symbols", id="float-symbols"),
    pytest.param("two-weight-commutator", {"seed": True}, "seed", id="bool-seed"),
    pytest.param("riesz-ap", {"max_generation": "3"}, "max_generation", id="string-generation"),
    pytest.param("riesz-ap", {"alphs": [0.5]}, "'alphs'", id="unknown-key"),
    pytest.param("john-nirenberg", {"symbols": 2}, "'symbols'", id="another-experiments-key"),
    pytest.param("two-weight-commutator", {"p": "3"}, "^p must be a real number", id="string-number"),
    pytest.param("john-nirenberg", {"r": True}, "^r must be a real number", id="bool-number"),
    pytest.param("riesz-ap", {"alphas": []}, "alphas", id="empty-list"),
    pytest.param("dirichlet-counterexample", {"refinements": 64}, "refinements", id="number-for-list"),
    pytest.param("dirichlet-counterexample", {"refinements": [64, 64]}, "refinements", id="repeated-refinement"),
    pytest.param("dirichlet-counterexample", {"refinements": [128, 32]}, "refinements", id="falling-refinements"),
    # the grid frequencies underflow: every commutator norm is 0
    pytest.param("dirichlet-counterexample", {"halfwidth": 1e300, "refinements": [8, 16]}, "halfwidth",
                 id="vanishing-commutator"),
    # h^2 or (2L)^2 leaves the normal float range
    *[pytest.param(name, {"halfwidth": hw}, "halfwidth", id=f"{name}-halfwidth-{hw:g}")
      for name in SMALL_CONFIGS for hw in (1e300, 1e-300)],
    # at depth 1 every symbol is constant on each side of x_n = 0: its Delta_N norm is 0
    pytest.param("two-weight-commutator", {"max_generation": 1}, "max_generation", id="two-weight-too-shallow"),
    pytest.param("bmo-coincidence", {"max_generation": 1}, "max_generation", id="bmo-coincidence-too-shallow"),
    pytest.param("two-weight-commutator", {"symbols": 0}, "symbols", id="zero-symbols"),
    pytest.param("bmo-coincidence", {"symbols": -3}, "symbols", id="negative-symbols"),
    pytest.param("john-nirenberg", {"instances": 0}, "instances", id="zero-instances"),
    pytest.param("john-nirenberg", {"seed": -1}, "seed", id="negative-seed"),
    pytest.param("bmo-coincidence", {"seed": -2}, "seed", id="negative-seed-bmo"),
    pytest.param("john-nirenberg", {"p": 1.0}, "p = 1.0", id="john-nirenberg-p1"),
    pytest.param("two-weight-commutator", {"p": 1}, "p must lie", id="two-weight-p1"),
    pytest.param("two-weight-commutator", {"weight_pairs": [{"mu": {"kind": "one"}}]}, "mu and lambda",
                 id="pair-without-lambda"),
    pytest.param("bmo-coincidence", {"weights": [{"kind": "power", "alpha": "0.5"}]}, "alpha",
                 id="string-alpha"),
    # json.load reads NaN, Infinity and -Infinity
    pytest.param("john-nirenberg", {"r": float("nan")}, "^r must be finite", id="nan-number"),
    pytest.param("two-weight-commutator", {"band_cap": float("inf")}, "^band_cap must be finite", id="inf-number"),
    pytest.param("john-nirenberg", {"p": -float("inf")}, "^p must be finite", id="minus-inf-number"),
    pytest.param("bmo-coincidence", {"weights": [{"kind": "power", "alpha": float("nan")}]}, "^alpha must be finite",
                 id="nan-alpha"),
    pytest.param("two-weight-commutator",
                 {"weight_pairs": [{"mu": {"kind": "exp_bmo", "file": "b.json", "delta": float("inf")},
                                    "lambda": {"kind": "one"}}]}, "^delta must be finite", id="inf-delta"),
]


@pytest.mark.parametrize("name,cfg,key", BAD_CONFIGS)
def test_harness_rejects_a_config_it_would_misread(name, cfg, key):
    # a key is one of the experiment's parameters, a value has its default's
    # type, a count is >= 1 and a seed >= 0, and riesz-ap never pairs A^p
    # constants with L^2 norms
    with pytest.raises(ParameterError, match=key):
        harness.run(name, {**SMALL_CONFIGS[name], **cfg})


# h^2 and (2L)^2 stay normal floats, yet the Carleson sums overflow: at 1e150
# the semigroup sums' t^n weights, at 6e153 the Haar sums' energy |Q|
CARLESON_OUT_OF_RANGE = [
    pytest.param("two-weight-commutator", 1e150, id="two-weight-commutator-1e+150"),
    pytest.param("bmo-coincidence", 6e153, id="bmo-coincidence-6e+153"),
]


@pytest.mark.parametrize("name,halfwidth", [(name, hw) for name in sorted(SMALL_CONFIGS) for hw in (1e150, 1e-150)
                                            if (name, hw) != ("two-weight-commutator", 1e150)])
def test_harness_runs_far_from_unit_halfwidth_to_a_finite_report(name, halfwidth):
    # well inside the range where h^2 and (2L)^2 stay normal floats
    # canonical_json refuses NaN and infinities
    harness.canonical_json(harness.run(name, {**SMALL_CONFIGS[name], "halfwidth": halfwidth}))


@pytest.mark.parametrize("name,halfwidth", CARLESON_OUT_OF_RANGE)
def test_carleson_sums_out_of_range_raise(name, halfwidth):
    # an error, not bands c = C = 0.0 (inf - inf = NaN, skipped as a cube
    # outside the domain) or a report canonical_json cannot write
    with np.errstate(all="ignore"), pytest.raises(RangeError, match="Carleson sums left the floating-point range"):
        harness.run(name, {**SMALL_CONFIGS[name], "halfwidth": halfwidth})


# the Python float power A_p^max(1, 1/(p-1)) of the predictor overflows
FLOAT_OVERFLOW = [
    pytest.param("john-nirenberg", {"points_per_axis": 32, "halfwidth": 1e10, "p": 1.001, "seed": 43},
                 id="john-nirenberg-1d-p1.001"),
    pytest.param("john-nirenberg", {"points_per_axis": 16, "dim": 2, "halfwidth": 1e150, "p": 1.1, "seed": 92},
                 id="john-nirenberg-2d-1e+150"),
]


@pytest.mark.parametrize("name,cfg", FLOAT_OVERFLOW)
def test_float_error_in_an_experiment_is_a_range_error(name, cfg):
    with pytest.raises(RangeError, match=f"experiment {name} left the floating-point range: OverflowError") as info:
        harness.run(name, cfg)
    assert isinstance(info.value.__cause__, OverflowError)


def test_harness_rejects_a_config_that_is_not_an_object():
    with pytest.raises(ParameterError, match="JSON object"):
        harness.run("riesz-ap", [["points_per_axis", 32]])


def test_integral_real_runs_as_its_float():
    # p = 2 and p = 2.0 are one experiment: only the echoed config tells them apart
    reports = [harness.run("john-nirenberg", dict(SMALL_CONFIGS["john-nirenberg"], p=p, r=r))
               for p, r in ((2, 2), (2.0, 2.0))]
    for rep in reports:
        del rep["config"], rep["input_hash"]
    assert harness.canonical_json(reports[0]) == harness.canonical_json(reports[1])


def test_dirichlet_without_growth_does_not_pass():
    # one refinement measures no growth, so the growth check has no evidence
    rep = harness.run("dirichlet-counterexample", {"refinements": [64]})
    assert rep["checks"]["odd_growth_per_doubling"] == []
    assert rep["checks"]["odd_growth_ok"] is False
    assert rep["pass"] is False
