import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from operator_oracles import extend_odd
from weight_oracles import from_callable, save_binary

from wharm.errors import DomainError, ParameterError
from wharm.grid import (
    Grid,
    GridFunction,
    constant,
    extend_even,
    extensions,
    load_binary,
    load_csv,
    restrict,
    save_csv,
)


def test_constant_restriction():
    g = Grid(1, 1.0, 32)
    f = constant(g, 1.0)
    fp = restrict(f, "upper")
    assert fp.grid.domain == "upper"
    assert np.all(fp.values == 1.0)


def test_identity_restriction():
    g = Grid(1, 1.0, 32)
    f = from_callable(g, lambda x: x[..., 0])
    fp = restrict(f, "upper")
    assert np.array_equal(fp.values, fp.grid.axis_coords(0))
    assert np.all(fp.grid.axis_coords(0) > 0)


def test_indicator_support_separation():
    g = Grid(1, 1.0, 32)
    f = from_callable(g, lambda x: (x[..., 0] < 0).astype(float))
    assert np.all(restrict(f, "upper").values == 0.0)
    assert np.all(restrict(f, "lower").values == 1.0)


def test_even_extension_of_coordinate_is_abs():
    for n in (1, 2):
        g = Grid(n, 1.0, 16)
        f = from_callable(g, lambda x: x[..., -1])
        fp = restrict(f, "upper")
        ge = extend_even(fp)
        expect = from_callable(g, lambda x: np.abs(x[..., -1]))
        assert np.array_equal(ge.values, expect.values)


def test_even_extension_constant():
    g = Grid(2, 2.0, 8)
    fp = constant(g.with_domain("upper"), 4.5)
    assert np.all(extend_even(fp).values == 4.5)


def test_round_trip_bit_exact(rng):
    for n in (1, 2):
        g = Grid(n, 1.0, 16)
        f = GridFunction(g, rng.standard_normal(g.shape))
        for side in ("upper", "lower"):
            fr = restrict(f, side)
            assert np.array_equal(restrict(extend_even(fr), side).values, fr.values)
            assert np.array_equal(restrict(extend_odd(fr), side).values, fr.values)


def test_odd_extension_of_coordinate_is_identity():
    g = Grid(1, 1.0, 32)
    f = from_callable(g, lambda x: x[..., 0])
    fo = extend_odd(restrict(f, "upper"))
    assert np.array_equal(fo.values, f.values)


def test_odd_extension_of_one_is_sign():
    g = Grid(2, 1.0, 8)
    fo = extend_odd(constant(g.with_domain("upper"), 1.0))
    expect = from_callable(g, lambda x: np.sign(x[..., -1]))
    assert np.array_equal(fo.values, expect.values)


def test_parity_algebra(rng):
    g = Grid(1, 1.0, 32)
    f = GridFunction(g.with_domain("upper"), rng.standard_normal((16,)))
    ge, go = extend_even(f), extend_odd(f)
    # even + odd extension doubles the source side
    total = GridFunction(g, ge.values + go.values)
    assert np.array_equal(restrict(total, "upper").values, 2.0 * f.values)
    assert np.all(restrict(total, "lower").values == 0.0)
    # exact (anti-)invariance under reflection: copied/negated values
    assert np.array_equal(ge.values, np.flip(ge.values, -1))
    assert np.array_equal(go.values, -np.flip(go.values, -1))


def test_reflection_involution():
    for n in (1, 2):
        g = Grid(n, 1.5, 8)
        # reflection negates the last coordinate exactly on grid points
        pts = g.points()
        flipped = np.flip(pts[..., -1], axis=-1)
        assert np.array_equal(flipped, -pts[..., -1])


def test_domain_errors():
    g = Grid(1, 1.0, 8)
    f = constant(g, 1.0)
    with pytest.raises(DomainError):
        restrict(restrict(f, "upper"), "upper")
    with pytest.raises(DomainError):
        extend_even(f)
    with pytest.raises(DomainError):
        extend_odd(f)


@pytest.mark.parametrize("dim,halfwidth,points", [
    (1, float("nan"), 8),
    (1, float("inf"), 8),
    (1, -float("inf"), 8),
    (1, "1.0", 8),
    (1, 1.0, 8.0),
    (1.0, 1.0, 8),
    (True, 1.0, 8),
    (1, 1.0, np.float64(8.0)),
])
def test_grid_rejects_sizes_that_are_not_finite_or_not_integers(dim, halfwidth, points):
    with pytest.raises(ParameterError):
        Grid(dim, halfwidth, points)


def test_grid_takes_numpy_integer_sizes():
    assert Grid(np.int64(2), np.float64(1.0), np.int64(8)).shape == (8, 8)


@pytest.mark.parametrize("field,bad,error", [
    ("halfwidth", "nan", ParameterError),
    ("halfwidth", "inf", ParameterError),
    ("points_per_axis", "8.0", ParameterError),
    ("dim", "1.5", ParameterError),
    ("halfwidth", "wide", DomainError),
    ("halfwidth", None, DomainError),
])
def test_csv_load_rejects_bad_grid_sizes(tmp_path, rng, field, bad, error):
    g = Grid(1, 1.0, 8)
    path = tmp_path / "f.csv"
    save_csv(GridFunction(g, rng.standard_normal(g.shape)), str(path))
    meta, rest = path.read_text().split("\n", 1)
    fields = dict(tok.split("=", 1) for tok in meta[1:].split())
    fields[field] = bad
    meta = " ".join(f"{k}={v}" for k, v in fields.items() if v is not None)
    path.write_text("# " + meta + "\n" + rest)
    with pytest.raises(error):
        load_csv(str(path))


def test_binary_load_rejects_a_float_size(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    path = tmp_path / "f.json"
    save_binary(GridFunction(g, rng.standard_normal(g.shape)), str(path))
    header = json.loads(path.read_text())
    path.write_text(json.dumps({**header, "points_per_axis": 8.0}))
    with pytest.raises(ParameterError):
        load_binary(str(path))


def test_csv_round_trip(tmp_path, rng):
    for n in (1, 2):
        g = Grid(n, 0.75, 8)
        f = GridFunction(g, rng.standard_normal(g.shape))
        path = str(tmp_path / f"f{n}.csv")
        save_csv(f, path)
        back = load_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)


def test_binary_round_trip(tmp_path, rng):
    g = Grid(2, 1.0, 8).with_domain("lower")
    f = GridFunction(g, rng.standard_normal(g.shape))
    path = str(tmp_path / "f.json")
    save_binary(f, path)
    back = load_binary(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_binary_load_rejects_bad_header(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    path = tmp_path / "f.json"
    save_binary(GridFunction(g, rng.standard_normal(g.shape)), str(path))
    header = json.loads(path.read_text())
    for key, value in [("dtype", None), ("count", None), ("dtype", "float32"), ("count", 16)]:
        bad = {k: v for k, v in header.items() if k != key}
        if value is not None:
            bad[key] = value
        path.write_text(json.dumps(bad))
        if key == "count" and value is not None:
            # a column that matches the header but not the grid
            rng.standard_normal(value).astype("<f8").tofile(str(path) + ".bin")
        with pytest.raises(DomainError):
            load_binary(str(path))


def test_csv_round_trip_half_domain(tmp_path, rng):
    g = Grid(2, 1.0, 8).with_domain("upper")
    f = GridFunction(g, rng.standard_normal(g.shape))
    path = str(tmp_path / "half.csv")
    save_csv(f, path)
    back = load_csv(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_csv_load_rejects_missing_metadata(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("i0,value\n0,1.0\n")
    with pytest.raises(DomainError):
        load_csv(path)


def test_csv_load_rejects_bad_indices(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    path = str(tmp_path / "f.csv")
    save_csv(GridFunction(g, rng.standard_normal(g.shape)), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    head, rows = lines[:2], lines[2:]
    cases = {
        "missing": rows[:3] + rows[4:],
        "duplicate": rows[:3] + [rows[2]] + rows[4:],
        "out-of-range": rows[:7] + ["8,1.0"],
        "negative": ["-1,1.0"] + rows[1:],
        "non-integer": ["0.5,1.0"] + rows[1:],
    }
    for name, body in cases.items():
        bad = str(tmp_path / f"{name}.csv")
        with open(bad, "w") as fh:
            fh.write("\n".join(head + body) + "\n")
        with pytest.raises(DomainError):
            load_csv(bad)


@st.composite
def half_functions(draw):
    """Random finite data on a random 1D or 2D half grid."""
    dim = draw(st.sampled_from([1, 2]))
    g = Grid(dim, 1.0, draw(st.sampled_from([2, 4, 8, 16])), draw(st.sampled_from(["upper", "lower"])))
    return GridFunction(g, draw(arrays(np.float64, g.shape, elements=st.floats(-1e6, 1e6))))


def same_bits(a, b):
    return a.grid == b.grid and a.values.tobytes() == b.values.tobytes()


@settings(max_examples=100, deadline=None)
@given(f=half_functions())
def test_restrict_after_extend_is_exact(f):
    assert same_bits(restrict(extend_even(f), f.grid.domain), f)
    assert same_bits(restrict(extend_odd(f), f.grid.domain), f)


@st.composite
def sided_stacks(draw):
    """Values with 0 to 2 leading axes on a random 1D or 2D full or half grid."""
    g = Grid(draw(st.sampled_from([1, 2])), 1.0, draw(st.sampled_from([2, 4, 8])),
             draw(st.sampled_from(["full", "upper", "lower"])))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return g, draw(arrays(np.float64, lead + g.shape, elements=st.floats(-1e6, 1e6)))


@settings(max_examples=100, deadline=None)
@given(case=sided_stacks(), sign=st.sampled_from([1.0, -1.0, float("nan")]))
def test_extensions_are_each_side_and_its_signed_mirror(case, sign):
    # each side of g.sides, in storage order, next to sign times its flip on
    # the other side of x_n = 0; nan marks the mirror as outside the half-space
    g, v = case
    half = g.points_per_axis // 2
    want = []
    for side in g.sides:
        own = v if g.domain != "full" else (v[..., half:] if side == "upper" else v[..., :half])
        mirror = sign * np.flip(own, axis=-1)
        want.append(np.concatenate([mirror, own] if side == "upper" else [own, mirror], axis=-1))
    got = extensions(v, g, sign)
    assert got.shape == (len(g.sides),) + v.shape[:-1] + (2 * half,)
    assert got.tobytes() == np.stack(want).tobytes()


def test_sides_are_in_storage_order():
    g = Grid(2, 1.0, 8)
    assert g.sides == ("lower", "upper")
    assert g.with_domain("upper").sides == ("upper",)
    assert g.with_domain("lower").sides == ("lower",)
