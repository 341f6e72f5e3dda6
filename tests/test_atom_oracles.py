"""The decomposition's generation-wise cutting against its per-atom loop.

atomic_decompose cuts the atoms of one generation of Qbar at once: their box
values are one gather from the stack of Whitney pieces, their boxes are
zeroed in place, their coefficients and checks are one stack each, and the
level sets Omega_k are one boolean stack whose Omega~_k take one stacked
maximal function.  The oracles take the same pieces one atom at a time
(tree_oracles.box_atoms_by_atom, with the scalar check_cells) and the level
sets one level at a time (tree_oracles.omega_sums_by_level, one
weighted_maximal each).  Sums over one atom run in the same order either
way, and sums across atoms in sorted (k, id of Qbar) order, so everything
agrees bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from tree_oracles import box_atoms_by_atom, check_cells, omega_sums_by_level

from wharm import atoms
from wharm.atoms import atomic_decompose, check_atom
from wharm.dyadic import build_lattice, lattice_family, maximal_cells, random_haar_sum, weighted_maximal
from wharm.grid import Grid, GridFunction, weight_cells
from wharm.squarefn import ConeSpec, TimeGrid, area_function
from wharm.weights import weight_from_spec


def _packets(dim, N, seed):
    g = Grid(dim, 1.0, N)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape) * np.exp(-np.sum(g.points() ** 2, axis=-1) / 0.2)
    return GridFunction(g, v - v.mean()), GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))


def _hardy_symbol(seed, i):
    """The i-th symbol of the hardy-atoms-2d benchmark workload at seed: a
    random Haar sum to generation 4 on 64^2 under its weight."""
    g = Grid(2, 1.0, 64)
    lat = build_lattice(g, 5)
    rng = np.random.default_rng(seed)
    fs = [random_haar_sum(lat, rng, max_generation=4) for _ in range(i + 1)]
    spec = ({"kind": "one"}, {"kind": "one-sided-power", "alpha": 0.5}, {"kind": "power", "alpha": 0.25})[i % 3]
    return fs[i], weight_from_spec(spec, g), lat, TimeGrid.geometric(g)


def _case(name):
    """(f, w, lat, tg, p) of one named case."""
    if name.startswith("hardy"):
        _, seed, i = name.split("-")
        return (*_hardy_symbol(int(seed), int(i)), 2.0)
    dim, N, max_gen, p = {"1d": (1, 256, 8, 2.0), "1d-p3": (1, 128, 7, 3.0), "2d-p1.5": (2, 32, 5, 1.5),
                          "2d-coarse": (2, 16, 2, 2.0)}[name]
    f, w = _packets(dim, N, 5 + N)
    g = f.grid
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0 if dim == 1 else 1.0, steps_per_octave=6)
    return f, w, build_lattice(g, max_gen), tg, p


def _decompose_by_atom(f, w, lat, tg, p, monkeypatch):
    """atomic_decompose and box_atoms_by_atom on the same Whitney pieces
    (copied: the decomposition zeroes the boxes in place)."""
    recorded, whitney = [], atoms._whitney_pieces

    def recording(*args):
        keys, pieces = whitney(*args)
        recorded.append(dict(zip(keys, pieces.copy())))
        return keys, pieces

    monkeypatch.setattr(atoms, "_whitney_pieces", recording)
    dec = atomic_decompose(f, w, lat, tg, p)
    monkeypatch.setattr(atoms, "_whitney_pieces", whitney)
    return dec, box_atoms_by_atom(f, w, lat, recorded.pop(), p)


CASES = ["1d", "1d-p3", "2d-p1.5", "2d-coarse", "hardy-7-4", "hardy-3-0", "hardy-11-1"]


@pytest.mark.parametrize("name", CASES)
def test_generation_cut_matches_the_per_atom_oracle(name, monkeypatch):
    f, w, lat, tg, p = _case(name)
    dec, (records, lams, residual, report) = _decompose_by_atom(f, w, lat, tg, p, monkeypatch)
    got = dec.atoms.records
    assert len(got) == len(records) == dec.report["n_atoms"] > 0
    for a, b in zip(got, records):
        assert (a.cube, a.level) == (b.cube, b.level)
        assert len(a.box) == len(b.box) and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a.box, b.box))
        assert a.local.shape == b.local.shape and a.local.tobytes() == b.local.tobytes()
    assert dec.coefficients == lams
    assert dec.residual.values.tobytes() == residual.values.tobytes()
    for key, value in report.items():
        assert dec.report[key] == value, key
    if f.grid.dim == 1:
        # the stencil's pieces are cut to the cells they reach, inside 3Qbar
        assert dec.report["clipped_mass"] == 0.0
    else:
        assert dec.report["clipped_mass"] > 0.0


def test_the_cases_cover_wide_boxes_and_long_generations(monkeypatch):
    # a coarsest Qbar whose box is the whole grid (3m >= N), in the lattice
    # whose coarse generations all have such boxes and in the benchmark's;
    # and a generation holding more atoms than one bucket batch
    widest, longest = {}, 0
    for name in CASES:
        f, w, lat, tg, p = _case(name)
        records = atomic_decompose(f, w, lat, tg, p).atoms.records
        N = lat.grid.points_per_axis
        widest[name] = any(3 * lat.cells_per_axis(r.cube.generation) >= N for r in records)
        gens = [r.cube.generation for r in records]
        longest = max(longest, max(gens.count(k) for k in set(gens)))
    assert widest["2d-coarse"] and widest["hardy-7-4"]
    assert longest > atoms._BUCKET_SLICE


@pytest.mark.parametrize("name", ["1d", "2d-p1.5", "hardy-7-4", "hardy-11-1"])
def test_stacked_level_sets_match_the_per_level_sums(name):
    f, w, lat, tg, p = _case(name)
    dec = atomic_decompose(f, w, lat, tg, p)
    S = area_function(f, "qt", ConeSpec("free"), tg)
    want = omega_sums_by_level(S, w, lat, sorted(dec.report["levels"]))
    assert (dec.report["omega_mass_sum"], dec.report["omega_tilde_mass_sum"]) == want
    if name == "hardy-7-4":
        # the exact value, rounded (the benchmark's golden holds an older rounding)
        assert want[1] == 7.711305905278784


@pytest.mark.parametrize("dim,N,max_gen", [(1, 64, 5), (2, 16, 3)])
def test_stacked_maximal_function_is_weighted_maximal_per_row(dim, N, max_gen):
    f, w = _packets(dim, N, 3)
    g = f.grid
    levels = np.abs(f.values) > np.array([0.01, 0.1, 0.5, 1.0]).reshape((-1,) + (1,) * dim)
    stack = np.concatenate([levels.astype(float), np.abs(f.values)[None]])
    for lat in lattice_family(g, max_gen):
        got = maximal_cells(stack * w.values, w.values, lat)
        for row, values in zip(got, stack):
            want = weighted_maximal(GridFunction(g, values), w, lat).values
            assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["1d-p3", "2d-p1.5", "hardy-11-1"])
def test_check_atom_is_the_scalar_check_on_the_full_grid(name):
    # check_atom is the stacked check's stack of one: on full-grid atoms with
    # their 3Qbar masks, and on the same values under a mask that misses cells
    f, w, lat, tg, p = _case(name)
    g = f.grid
    warr = weight_cells(w, g)
    for atom in atomic_decompose(f, w, lat, tg, p).atoms:
        vals, support = atom.values.values, atom.support
        assert check_atom(atom) == check_cells(p, vals, support, warr, g.cell_volume)
        cut = support & (np.arange(vals.size).reshape(g.shape) % 3 > 0)
        assert check_atom(replace(atom, support=cut)) == check_cells(p, vals, cut, warr, g.cell_volume)
