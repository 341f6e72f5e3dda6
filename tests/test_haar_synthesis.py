"""Haar synthesis on the block view against per-cube haar_function loops.

Each oracle walks lat.cubes and builds one full-grid haar_function per
(cube, signature); the code under test goes one generation at a time
through haar_synthesis or haar_generation.  random_haar_sum adds every
cell's terms in the oracle's order and matches it bit for bit;
reconstruction and the square function sum in other orders and match to a
relative 1e-12.  A stack (random_haar_sums, haar_synthesis with leading
axes) matches its rows drawn or synthesized one at a time bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_oracles import cell_indices, haar_function, haar_reconstruct
from weight_oracles import cube_average

from wharm.dyadic import (
    build_lattice,
    haar_generation,
    haar_synthesis,
    random_haar_sum,
    random_haar_sums,
    signatures,
)
from wharm.errors import GridAlignmentError
from wharm.grid import Grid, GridFunction
from wharm.squarefn import haar_square_function

REL = 1e-12


def oracle_random_haar_sum(lat, rng, weight=None, max_generation=None):
    """One scalar draw and one haar_function per (cube, signature)."""
    vals = np.zeros(lat.grid.shape)
    for cube in lat.cubes:
        if cube.generation >= lat.max_generation:
            continue
        if max_generation is not None and cube.generation >= max_generation:
            continue
        for sig in signatures(lat.grid.dim):
            s = np.sqrt(lat.measure(cube.generation))
            if weight is not None:
                s = s * cube_average(weight, lat, cube)
            c = rng.standard_normal() * s
            vals += c * haar_function(lat, cube, sig).values
    return vals


def oracle_coefficients(f, lat):
    return {
        (cube, sig): float(np.sum(f.values * haar_function(lat, cube, sig).values)) * lat.grid.cell_volume
        for cube in lat.cubes
        if cube.generation < lat.max_generation
        for sig in signatures(lat.grid.dim)
    }


def oracle_square_function(f, lat):
    """Per-cube energy on the clipped 2Q, or on Q itself for a wrapped cube."""
    g = f.grid
    N = g.points_per_axis
    energy = {}
    for (cube, sig), c in oracle_coefficients(f, lat).items():
        energy[cube] = energy.get(cube, 0.0) + c * c
    acc = np.zeros(g.shape)
    for cube, e in energy.items():
        m = lat.cells_per_axis(cube.generation)
        starts = [s + i * m for s, i in zip(lat.shift_cells, cube.index)]
        if any(s0 + m > N for s0 in starts):
            acc[np.ix_(*cell_indices(lat, cube))] += e / lat.measure(cube.generation)
        else:
            acc[tuple(slice(max(s0 - m // 2, 0), min(s0 + m + m // 2, N)) for s0 in starts)] += (
                e / lat.measure(cube.generation)
            )
    return np.sqrt(acc)


def close(a, b):
    return np.max(np.abs(a - b)) <= REL * max(np.max(np.abs(b)), 1e-300)


def weight_on(g, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(g, np.exp(0.7 * rng.standard_normal(g.shape)))


SUM_CASES = [
    # dim, points per axis, lattice generations, symbol generations, shift
    (1, 256, 7, 4, "none"),
    (1, 256, 7, None, "none"),
    (1, 96, 5, None, "third"),
    (2, 32, 4, None, "none"),
    (2, 64, 5, 4, "none"),
    (2, 48, 4, None, ("third", "two_thirds")),
]


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("dim,N,gen,symbol_gen,shift", SUM_CASES)
def test_random_haar_sum_matches_the_per_cube_loop_bit_for_bit(dim, N, gen, symbol_gen, shift, weighted):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, gen, shift)
    w = weight_on(g, 3) if weighted else None
    for seed in (0, 7):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_haar_sum(lat, rng_got, weight=w, max_generation=symbol_gen)
        want = oracle_random_haar_sum(lat, rng_want, weight=w, max_generation=symbol_gen)
        assert got.values.tobytes() == want.tobytes()
        # the harness draws symbol after symbol from one stream
        assert rng_got.standard_normal() == rng_want.standard_normal()


STACK_CASES = [
    # dim, points per axis, lattice generations, shift
    (1, 64, 5, "none"),
    (1, 48, 4, "third"),
    (2, 16, 4, "none"),
    (2, 24, 3, ("two_thirds", "third")),
]


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("symbol_gen", [None, 2, 9], ids=["all", "below", "past"])
@pytest.mark.parametrize("dim,N,gen,shift", STACK_CASES)
def test_random_haar_sums_are_successive_random_haar_sums(dim, N, gen, shift, symbol_gen, weighted):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, gen, shift)
    w = weight_on(g, 4) if weighted else None
    for count in (0, 1, 7):
        rng_stack, rng_rows = np.random.default_rng(count), np.random.default_rng(count)
        stack = random_haar_sums(lat, rng_stack, count, weight=w, max_generation=symbol_gen)
        rows = [random_haar_sum(lat, rng_rows, weight=w, max_generation=symbol_gen).values for _ in range(count)]
        assert stack.shape == (count,) + g.shape
        assert np.array_equal(stack, np.array(rows).reshape(stack.shape))
        # callers that draw more from the same rng see the same stream
        assert rng_stack.bit_generator.state == rng_rows.bit_generator.state


@pytest.mark.parametrize("dim,N,gen,shift", STACK_CASES)
def test_haar_synthesis_with_leading_axes_is_the_per_row_call(dim, N, gen, shift):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, gen, shift)
    rng = np.random.default_rng(9)
    for k in range(gen):
        c = rng.standard_normal((2, 3) + (1 << k,) * dim + (len(signatures(dim)),))
        out = rng.standard_normal((2, 3) + g.shape)
        rows = [[haar_synthesis(c[a, b], lat, k, out[a, b].copy()) for b in range(3)] for a in range(2)]
        assert np.array_equal(haar_synthesis(c, lat, k, out), np.array(rows))
        assert np.array_equal(haar_synthesis(c[0], lat, k), np.array([haar_synthesis(r, lat, k) for r in c[0]]))


LATTICES = [
    (1, 64, 6, "none"),
    (1, 48, 4, "third"),
    (1, 48, 4, "two_thirds"),
    (2, 16, 4, "none"),
    (2, 24, 3, ("third", "none")),
    (2, 24, 3, ("two_thirds", "third")),
]


@pytest.mark.parametrize("dim,N,gen,shift", LATTICES)
def test_haar_reconstruct_matches_the_per_cube_loop(dim, N, gen, shift):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, gen, shift)
    rng = np.random.default_rng(11)
    coeffs = {
        (cube, sig): float(rng.standard_normal())
        for cube in lat.cubes
        if cube.generation < gen
        for sig in signatures(dim)
        if rng.random() < 0.8
    }
    want = np.full(g.shape, 0.25)
    for (cube, sig), c in coeffs.items():
        want += c * haar_function(lat, cube, sig).values
    assert close(haar_reconstruct(coeffs, lat, 0.25).values, want)


@pytest.mark.parametrize("dim,N,gen,shift", LATTICES)
def test_haar_square_function_matches_the_per_cube_loop(dim, N, gen, shift):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, gen, shift)
    f = GridFunction(g, np.random.default_rng(12).standard_normal(g.shape))
    assert close(haar_square_function(f, lat).values, oracle_square_function(f, lat))


def test_haar_square_function_rejects_another_grid():
    lat = build_lattice(Grid(1, 1.0, 32), 4)
    f = GridFunction(Grid(1, 1.0, 32, "upper"), np.ones(16))
    with pytest.raises(GridAlignmentError):
        haar_square_function(f, lat)


def test_haar_synthesis_of_a_single_cell_cube_raises():
    lat = build_lattice(Grid(1, 1.0, 8), 3)
    with pytest.raises(GridAlignmentError):
        haar_synthesis(np.zeros((8, 1)), lat, 3)


@st.composite
def generation_pairs(draw):
    dim = draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from([8, 16, 32] if dim == 1 else [4, 8, 16]))
    gen = draw(st.integers(1, int(np.log2(N))))
    shift = tuple(draw(st.sampled_from(["none", "third", "two_thirds"])) for _ in range(dim))
    lat = build_lattice(Grid(dim, 1.0, N), gen, shift)
    k = draw(st.integers(0, gen - 1))
    j = draw(st.integers(0, gen - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    c = np.random.default_rng(seed).standard_normal((1 << k,) * dim + (len(signatures(dim)),))
    return lat, k, j, c


@settings(max_examples=150, deadline=None)
@given(case=generation_pairs())
def test_analysis_inverts_synthesis_generation_by_generation(case):
    # orthonormality of the Haar system: <h_Q^eps, h_Q'^eps'> = delta
    lat, k, j, c = case
    back = haar_generation(haar_synthesis(c, lat, k), lat, j)
    expect = c if j == k else np.zeros_like(back)
    assert back.shape == expect.shape
    assert np.max(np.abs(back - expect)) <= REL * max(1.0, np.max(np.abs(c)))
