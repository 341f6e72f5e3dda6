import json
from pathlib import Path

import numpy as np
import pytest

from test_harness import CARLESON_OUT_OF_RANGE, FLOAT_OVERFLOW, SMALL_CONFIGS
from wharm import harness as harness_mod
from wharm.bmo import bmo_norm
from wharm.cli import main
from wharm.dyadic import build_lattice, lattice_family
from wharm.grid import Grid, GridFunction, load_csv, save_csv
from wharm.squarefn import hardy_norm
from wharm.weights import weight_from_spec


def _write_inputs(tmp_path, N=64):
    g = Grid(1, 1.0, N)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(g.shape))
    fpath = str(tmp_path / "f.csv")
    save_csv(f, fpath)
    wpath = str(tmp_path / "w.json")
    with open(wpath, "w") as fh:
        json.dump({"kind": "power", "alpha": 0.25}, fh)
    return fpath, wpath


def test_cli_apply(tmp_path, capsys):
    fpath, _ = _write_inputs(tmp_path)
    out = str(tmp_path / "out.csv")
    rc = main(["apply", "--kernel", "heat-free", "--input", fpath, "--t", "0.01", "--out", out])
    assert rc == 0
    assert load_csv(out).values.shape == (64,)


def test_cli_bmo(tmp_path, capsys):
    fpath, wpath = _write_inputs(tmp_path)
    rc = main(["bmo", "--flavor", "classical-w", "--input", fpath, "--weight", wpath])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] > 0


def test_cli_squarefn(tmp_path, capsys):
    fpath, wpath = _write_inputs(tmp_path)
    rc = main(["squarefn", "--flavor", "heat-neumann", "--input", fpath, "--weight", wpath])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hardy_norm"] > 0


def test_cli_opnorm(tmp_path, capsys):
    fpath, wpath = _write_inputs(tmp_path)
    rc = main([
        "opnorm", "--op", "commutator", "--family", "neumann", "--j", "1",
        "--b", fpath, "--mu", wpath, "--lambda", wpath, "--p", "2",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] > 0
    assert out["certificate"]["method"] == "svd"


def test_cli_opnorm_p3_prints_an_ascent_lower_bound(tmp_path, capsys):
    # p alone picks the algorithm: p != 2 runs the ascent with no other flag
    fpath, wpath = _write_inputs(tmp_path)
    rc = main(["opnorm", "--op", "commutator", "--b", fpath, "--mu", wpath, "--lambda", wpath, "--p", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] > 0
    assert out["certificate"]["method"] == "ascent"


def test_cli_opnorm_has_no_method_flag(tmp_path, capsys):
    fpath, _ = _write_inputs(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["opnorm", "--op", "riesz", "--b", fpath, "--method", "svd"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "0.5", "inf", "nan"])
def test_cli_opnorm_p_outside_one_to_inf_exits_2(tmp_path, capsys, p):
    fpath, wpath = _write_inputs(tmp_path)
    rc = main(["opnorm", "--op", "commutator", "--b", fpath, "--mu", wpath, "--p", p])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    last = captured.err.strip().splitlines()[-1]
    assert last.startswith("wharm: ParameterError: p must lie in (1, inf)")


@pytest.mark.parametrize("op", ["riesz", "commutator"])
def test_cli_opnorm_without_b_exits_2(op, capsys):
    # b fixes the grid of either op, and is the commutator's symbol
    with pytest.raises(SystemExit) as exc:
        main(["opnorm", "--op", op])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--b" in err.strip().splitlines()[-1]


def test_cli_bmo_max_generation_zero_is_honoured(tmp_path, capsys):
    # generation 0 is a depth of its own, not a request for the default one
    fpath, wpath = _write_inputs(tmp_path)
    f = load_csv(fpath)
    w = weight_from_spec({"kind": "power", "alpha": 0.25}, f.grid)
    norms = {}
    for gen in (0, 5):
        rc = main(["bmo", "--flavor", "classical-w", "--input", fpath, "--weight", wpath, "--max-generation", str(gen)])
        assert rc == 0
        norms[gen] = json.loads(capsys.readouterr().out)["norm"]
        assert norms[gen] == bmo_norm(f, w, "classical-w", lattice_family(f.grid, gen))
    assert norms[0] != norms[5]


def test_cli_toolkit_error_exits_2(tmp_path, capsys):
    # the Dirichlet heat semigroup lives on a half-space; the input is full-space
    fpath, _ = _write_inputs(tmp_path)
    rc = main(["apply", "--kernel", "heat-dirichlet", "--input", fpath, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("wharm: DomainError: ")


@pytest.mark.parametrize("meta,row", [
    ("# dim=1 junk halfwidth=1.0 points_per_axis=4 domain=full", "2,3"),
    ("# dim=1 halfwidth=1.0 points_per_axis=4 domain=full", "2,x"),
], ids=["token-without-equals", "non-numeric-cell"])
def test_cli_malformed_csv_exits_2_with_one_line(tmp_path, capsys, meta, row):
    # both ended in a raw ValueError traceback and exit 1
    path = tmp_path / "f.csv"
    path.write_text("\n".join([meta, "i0,value", "0,1", "1,2", row, "3,4"]) + "\n")
    rc = main(["bmo", "--flavor", "classical-w", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("wharm: DomainError: ")


def test_cli_riesz_component_outside_dimension_exits_2(tmp_path, capsys):
    # R_2 does not exist on 1D data
    fpath, _ = _write_inputs(tmp_path)
    for backend in ("fourier", "quadrature"):
        rc = main(["apply", "--kernel", "riesz-free-2", "--backend", backend, "--input", fpath,
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("wharm: ParameterError: ")


def test_cli_harness(tmp_path, capsys):
    cfg = {"points_per_axis": 64, "instances": 4, "max_generation": 4, "seed": 0}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "report.json")
    csvp = str(tmp_path / "report.csv")
    rc = main(["harness", "run", "john-nirenberg", "--config", cpath, "--out", out, "--csv", csvp])
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    assert rep["experiment"] == "john-nirenberg"
    assert Path(csvp).read_text().partition("\n")[0].strip() != ""


def test_cli_apply_neumann_quadrature(tmp_path, capsys):
    fpath, _ = _write_inputs(tmp_path, N=32)
    out = str(tmp_path / "out.csv")
    rc = main([
        "apply", "--kernel", "riesz-neumann-1", "--backend", "quadrature",
        "--input", fpath, "--out", out,
    ])
    assert rc == 0
    assert np.all(np.isfinite(load_csv(out).values))


def test_cli_harness_riesz_ap(tmp_path):
    cfg = {"points_per_axis": 64, "max_generation": 5}
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "r.json")
    rc = main(["harness", "run", "riesz-ap", "--config", cpath, "--out", out])
    assert rc == 0
    rep = json.loads(Path(out).read_text())
    assert rep["pass"] is True
    assert rep["rows"][0]["ap_per_lattice"]


def test_shipped_configs_parse_and_run_small(tmp_path):
    # every shipped config is valid JSON for its experiment (sizes trimmed)
    for name, path in [
        ("two-weight-commutator", "configs/two_weight.json"),
        ("john-nirenberg", "configs/john_nirenberg.json"),
        ("dirichlet-counterexample", "configs/dirichlet.json"),
        ("bmo-coincidence", "configs/bmo_coincidence.json"),
        ("riesz-ap", "configs/riesz_ap.json"),
        ("two-weight-commutator", "configs/two_weight_2d.json"),
        ("two-weight-commutator", "configs/two_weight_p3.json"),
    ]:
        cfg = json.loads(Path(path).read_text())
        rep = harness_mod.run(name, {**cfg, **SMALL_CONFIGS[name]})
        assert "pass" in rep


def test_cli_bmo_even_extension_half_weight(tmp_path, capsys):
    # the weight is read on the input's half grid, as the harness builds it
    gu = Grid(1, 1.0, 64).with_domain("upper")
    fpath, wpath = str(tmp_path / "b0.csv"), str(tmp_path / "one.json")
    save_csv(GridFunction(gu, np.log(gu.axis_coords(0))), fpath)
    with open(wpath, "w") as fh:
        json.dump({"kind": "one"}, fh)
    rc = main(["bmo", "--flavor", "even-ext-half", "--input", fpath, "--weight", wpath])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    report = harness_mod.run("dirichlet-counterexample", {"refinements": [64]})
    assert out["norm"] == report["rows"][0]["even_extension_bmo"]


def test_cli_bmo_weight_file_on_another_grid_exits_2(tmp_path, capsys):
    # a 64-point weight file under a 256-point input
    fpath, _ = _write_inputs(tmp_path, N=256)
    g64 = Grid(1, 1.0, 64)
    grid_weight, wpath = str(tmp_path / "w64.csv"), str(tmp_path / "w.json")
    save_csv(GridFunction(g64, np.full(g64.shape, 2.0)), grid_weight)
    with open(wpath, "w") as fh:
        json.dump({"kind": "grid", "file": grid_weight}, fh)
    rc = main(["bmo", "--flavor", "classical-w", "--input", fpath, "--weight", wpath])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("wharm: DomainError: ")


@pytest.mark.parametrize("argv", [
    # full-space flavors scanned the half grid's 32 cells with a 64-cell grid's cubes
    ["bmo", "--flavor", "classical-w"],
    ["bmo", "--flavor", "carleson-haar"],
    ["squarefn", "--flavor", "haar", "--weight"],
], ids=["bmo-classical-w", "bmo-carleson-haar", "squarefn-haar"])
def test_cli_half_space_input_to_a_full_space_lattice_exits_2(tmp_path, capsys, argv):
    gu = Grid(1, 1.0, 64).with_domain("upper")
    fpath, wpath = str(tmp_path / "b0.csv"), str(tmp_path / "one.json")
    save_csv(GridFunction(gu, np.log(gu.axis_coords(0))), fpath)
    with open(wpath, "w") as fh:
        json.dump({"kind": "one"}, fh)
    rc = main(argv + ([wpath] if argv[-1] == "--weight" else []) + ["--input", fpath])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("wharm: GridAlignmentError: ")


def test_cli_squarefn_haar_reads_one_lattice(tmp_path, capsys):
    fpath, wpath = _write_inputs(tmp_path)
    f = load_csv(fpath)
    rc = main(["squarefn", "--flavor", "haar", "--input", fpath, "--weight", wpath])
    assert rc == 0
    lat = build_lattice(f.grid, 6)
    w = weight_from_spec({"kind": "power", "alpha": 0.25}, f.grid)
    assert json.loads(capsys.readouterr().out)["hardy_norm"] == hardy_norm(f, "haar", w, lattice=lat)


def test_cli_squarefn_haar_reads_no_time_grid(tmp_path, capsys):
    # t_min below the cell width is refused by the flavors that read the time grid only
    fpath, wpath = _write_inputs(tmp_path)
    argv = ["squarefn", "--input", fpath, "--weight", wpath]
    assert main(argv + ["--flavor", "haar"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--flavor", "haar", "--tmin", "1e-9"]) == 0
    assert json.loads(capsys.readouterr().out) == plain
    assert main(argv + ["--flavor", "heat-free", "--tmin", "1e-9"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("wharm: ParameterError: t_min=1e-09 below the cell width")


def test_cli_harness_weight_spec_without_alpha_exits_2(tmp_path, capsys):
    cfg = {
        "points_per_axis": 64, "symbols": 2, "seed": 0, "max_generation": 4,
        "weight_pairs": [{"mu": {"kind": "power"}, "lambda": {"kind": "one"}}],
    }
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["harness", "run", "two-weight-commutator", "--config", cpath, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == "wharm: ParameterError: weight kind 'power' needs 'alpha'"


@pytest.mark.parametrize("name,cfg,key", [
    ("two-weight-commutator", {"points_per_axis": 64.9}, "points_per_axis"),
    ("two-weight-commutator", {"half_space": "false"}, "half_space"),
    ("riesz-ap", {"p": 3.0}, "p ="),
    ("john-nirenberg", {"instances": 10.9}, "instances"),
    ("bmo-coincidence", {"seed": True}, "seed"),
    pytest.param("riesz-ap", {"alphs": [0.5]}, "'alphs'", id="unknown-key"),
    pytest.param("two-weight-commutator", {"p": "3"}, "p must be a real number", id="string-number"),
    pytest.param("riesz-ap", {"alphas": []}, "alphas", id="empty-list"),
    pytest.param("bmo-coincidence", {"symbols": 0}, "symbols", id="zero-count"),
    pytest.param("john-nirenberg", {"seed": -1}, "seed", id="negative-seed"),
    pytest.param("john-nirenberg", {"p": 1.0}, "p = 1.0", id="john-nirenberg-p1"),
    pytest.param("dirichlet-counterexample", {"refinements": [64, 64]}, "refinements", id="repeated-refinement"),
    pytest.param("dirichlet-counterexample", {"halfwidth": 1e300, "refinements": [8, 16]}, "halfwidth",
                 id="vanishing-commutator"),
    *[pytest.param(name, {"halfwidth": hw}, "halfwidth", id=f"{name}-halfwidth-{hw:g}")
      for name in SMALL_CONFIGS for hw in (1e300, 1e-300)],
    pytest.param("two-weight-commutator", {"max_generation": 1}, "max_generation", id="two-weight-too-shallow"),
    pytest.param("bmo-coincidence", {"max_generation": 1}, "max_generation", id="bmo-coincidence-too-shallow"),
    pytest.param("bmo-coincidence", {"weights": [{"kind": "one", "alhpa": 0.5}]}, "'alhpa'",
                 id="weight-spec-unknown-key"),
    # json.dump writes NaN and Infinity, and json.load reads them back
    pytest.param("john-nirenberg", {"r": float("nan")}, "r must be finite, got nan", id="nan-number"),
    pytest.param("bmo-coincidence", {"weights": [{"kind": "power", "alpha": float("inf")}]},
                 "alpha must be finite, got inf", id="inf-alpha"),
])
def test_cli_harness_bad_config_exits_2(tmp_path, capsys, name, cfg, key):
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump({**SMALL_CONFIGS[name], **cfg}, fh)
    rc = main(["harness", "run", name, "--config", cpath, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("wharm: ParameterError: ") and key in last
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name,halfwidth", CARLESON_OUT_OF_RANGE)
def test_cli_harness_carleson_out_of_range_exits_2(tmp_path, capsys, name, halfwidth):
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump({**SMALL_CONFIGS[name], "halfwidth": halfwidth}, fh)
    with np.errstate(all="ignore"):
        rc = main(["harness", "run", name, "--config", cpath, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("wharm: RangeError: ")
    assert not (tmp_path / "r.json").exists()


def _not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{points_per_axis: 32")
    return str(path)


def _missing_weight_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"kind": "grid", "file": str(tmp_path / "missing.csv")}))
    return str(path)


@pytest.mark.parametrize("argv,error", [
    (lambda t: ["apply", "--kernel", "heat-free", "--input", str(t / "missing.csv"), "--out", str(t / "o.csv")],
     "FileNotFoundError"),
    (lambda t: ["harness", "run", "riesz-ap", "--config", str(t / "missing.json"), "--out", str(t / "r.json")],
     "FileNotFoundError"),
    (lambda t: ["harness", "run", "riesz-ap", "--config", _not_json(t), "--out", str(t / "r.json")],
     "JSONDecodeError"),
    (lambda t: ["bmo", "--flavor", "classical-w", "--input", _write_inputs(t)[0], "--weight", _missing_weight_file(t)],
     "FileNotFoundError"),
], ids=["missing-input", "missing-config", "config-not-json", "missing-weight-file"])
def test_cli_file_error_exits_2(tmp_path, capsys, argv, error):
    rc = main(argv(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.strip().startswith(f"wharm: {error}: ")


@pytest.mark.parametrize("name,cfg", FLOAT_OVERFLOW)
def test_cli_harness_float_overflow_exits_2(tmp_path, capsys, name, cfg):
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump(cfg, fh)
    rc = main(["harness", "run", name, "--config", cpath, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"wharm: RangeError: experiment {name} left the floating-point")
    assert not (tmp_path / "r.json").exists()
