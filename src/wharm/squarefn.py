"""Littlewood-Paley area functions, g*-type maximal square functions, and the
weighted Hardy norms built from them.

The time integral over (0, infinity) dt/t is truncated to a geometric grid
t_m = t_min 2^{m/M} with log-weight ln(2)/M per step; the cone integral at
scale t is the plain cell sum over {y : |x - y| < t} (clipped at the box,
not periodized), restricted to x's side for the Neumann cone.  One octave
at a time, these sums and the g* sums are one numpy.fft real convolution
of the field stack with kernels wrapped around offset 0 (even, so their
spectra are real), weighted by t_m^{-n} and added over the scales on the
half spectrum under one inverse transform (one per side for a Neumann
cone); axes are padded to the least 5-smooth length >= N + r_max (r_max
the widest kernel radius) so the circular wrap lands in zeros, and the
spectra sit in a bounded, read-only cache.  S is 1-homogeneous, so it runs
on f divided by a power of two just above max|f| (per side for the Neumann
cone): squares of tiny data stay normal numbers, and the scaling rounds
nothing.  The dyadic square function S_psi takes one generation of Haar
coefficients at a time and spreads each cube's energy over its 2Q.

Discrete fact worth knowing: for x in the upper half-space,
    (sqrt(2)/2) S_free(f_{+,e})(x) <= S_neumann(f)(x) <= S_free(f_{+,e})(x)
holds pointwise and both bounds are attained; the cone-halving step that
would upgrade the left inequality to an equality swaps the cone vertex x
for its reflection, so equality is generally false.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import DyadicLattice, haar_generation, lattices_on
from .errors import BackendError, ParameterError
from .grid import FULL, LOWER, UPPER, Grid, GridFunction, is_integer, join_sides, restrict, weight_cells
from .operators import apply_scales


@dataclass(frozen=True)
class ConeSpec:
    """Cone geometry; aperture fixed at 1 (|x - y| < t).

    kind "neumann" excludes (y, t) with x_n y_n < 0.
    """

    kind: str = "free"

    def __post_init__(self):
        if self.kind not in ("free", "neumann"):
            raise ParameterError(f"unknown cone kind {self.kind!r}")


@dataclass
class TimeGrid:
    """Geometric scales t_m = t_min 2^{m/M}; dt/t weight is ln(2)/M.

    t_values must be finite, strictly positive and strictly increasing, and
    M = steps_per_octave a whole number >= 1.
    """

    t_values: np.ndarray
    steps_per_octave: int

    def __post_init__(self):
        ts = np.asarray(self.t_values, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ParameterError("a time grid needs a nonempty 1D array of scales")
        if not np.all(np.isfinite(ts) & (ts > 0)):
            raise ParameterError("time-grid scales must be finite and strictly positive")
        if np.any(np.diff(ts) <= 0):
            raise ParameterError("time-grid scales must be strictly increasing")
        M = self.steps_per_octave
        if M != int(M) or M < 1:
            raise ParameterError(f"steps_per_octave={M} must be a whole number >= 1")
        self.t_values, self.steps_per_octave = ts, int(M)

    @property
    def log_weight(self) -> float:
        return np.log(2.0) / self.steps_per_octave

    def octaves(self):
        """The scales in consecutive runs of steps_per_octave: the batches of apply_scales."""
        M = self.steps_per_octave
        return [self.t_values[i:i + M] for i in range(0, len(self.t_values), M)]

    def slabs(self, grid: Grid, max_generation: int) -> list:
        """[(k, scales)]: the scales in the Whitney slab (l/2, l] of the
        generation-k cubes, l = 2L 2^-k, for each k <= max_generation whose
        slab holds any, coarsest first.  Both bounds take 1e-12 l of slack
        upward, so a scale at a slab edge up to rounding goes to the finer
        cubes, whose upper edge it is."""
        ts, out = self.t_values, []
        for k in range(max_generation + 1):
            ell = 2.0 * grid.halfwidth * 2.0 ** (-k)
            scales = ts[(ts > ell / 2.0 + 1e-12 * ell) & (ts <= ell * (1.0 + 1e-12))]
            if scales.size:
                out.append((k, scales))
        return out

    @classmethod
    def geometric(cls, grid: Grid, t_min=None, t_max=None, steps_per_octave: int = 8):
        h, L = grid.h, grid.halfwidth
        t_min = 2.0 * h if t_min is None else float(t_min)
        t_max = L if t_max is None else float(t_max)
        if t_min < h:
            raise ParameterError(f"t_min={t_min} below the cell width {h}")
        if t_max > 2.0 * L:
            raise ParameterError(f"t_max={t_max} above the box size {2 * L}")
        if t_min >= t_max:
            raise ParameterError(f"t_min={t_min} must lie below t_max={t_max}")
        M = steps_per_octave
        m_max = int(np.floor(M * np.log2(t_max / t_min) + 1e-12))
        ts = t_min * 2.0 ** (np.arange(m_max + 1) / M)
        return cls(ts, M)


@lru_cache(maxsize=32)
def _radial_spectra(n: int, h: float, ts: tuple, P: int, lam) -> np.ndarray:
    """Real DFTs (T, P, ..., P//2 + 1) of the wrapped kernels of _radial_sums;
    the offsets that no two box cells span are never read, so none is cut."""
    o = np.minimum(np.arange(P), P - np.arange(P))
    mesh = np.meshgrid(*[o] * n, indexing="ij", sparse=True)
    d = o * h if n == 1 else np.sqrt(sum((m * h) ** 2 for m in mesh))
    kern = np.zeros((len(ts),) + (P,) * n)
    for k, t in zip(kern, ts):
        if lam is not None:
            k[...] = (t / (t + d)) ** lam
        elif n == 1:  # strict |x-y| < t on cell centers
            k[o < np.ceil(t / h)] = 1.0
        else:
            k[sum(m ** 2 for m in mesh) * h ** 2 < t * t] = 1.0
    spectra = np.ascontiguousarray(np.fft.rfftn(kern, axes=tuple(range(1, n + 1))).real)
    spectra.flags.writeable = False
    return spectra


def _fast_length(n: int) -> int:
    """The least 5-smooth integer >= n: a length the real transforms take fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _radial_sums(fields: np.ndarray, grid: Grid, ts, weights, lam=None) -> np.ndarray:
    """sum_m weights[m] sum_y K_t(x - y) fields[m, y] per x, t = ts[m], box-clipped:
    K_t is the strict ball |x - y| < t, or with lam the g* profile
    (t/(t+|x-y|))^lam.  One inverse transform: the weighted products are
    added over m on the half spectrum, elementwise (a BLAS sum adds threads)."""
    n, N = grid.dim, grid.points_per_axis
    # ceil(t/h), not ceil(t/h) - 1: a spare cell covers the rounding of |d|^2 h^2 < t^2
    r_max = N - 1 if lam is not None else min(int(np.ceil(ts[-1] / grid.h)), N - 1)
    P = _fast_length(N + r_max)
    axes = tuple(range(-n, 0))
    F = np.fft.rfftn(fields, s=(P,) * n, axes=axes)
    F *= _radial_spectra(n, grid.h, tuple(ts), P, lam) * np.reshape(weights, (-1,) + (1,) * n)
    return np.fft.irfftn(F.sum(axis=0), s=(P,) * n, axes=axes)[(slice(N),) * n]


def _exponent(values) -> int:
    """e with max|values| in [2^(e-1), 2^e), 0 for zero data."""
    return int(np.frexp(np.max(np.abs(values)))[1])


def _cone_integral(f: GridFunction, e, tg: TimeGrid, sums) -> GridFunction:
    """(ln2/M h^n sum over octaves ts of sums(u, ts, ts^{-n}))^{1/2}, sums giving
    one octave's cone sums of u = f 2^-e weighted and added over its scales.
    S is 1-homogeneous, so it runs on u, whose squares stay normal numbers,
    and scales back by 2^e; powers of two scale without rounding."""
    g = f.grid
    u = GridFunction(g, np.ldexp(f.values, -e))
    acc = np.zeros(g.shape)
    for ts in tg.octaves():
        acc += sums(u, ts, 1.0 / ts ** g.dim)
    acc *= tg.log_weight * g.cell_volume
    return GridFunction(g, np.ldexp(np.sqrt(np.maximum(acc, 0.0)), e))


def _generator(generator):
    """(kind, beta) of a square-function generator: "qt" or ("phi", beta),
    beta an integer >= 0."""
    if generator == "qt":
        return "qt", 0
    if isinstance(generator, tuple) and generator[:1] == ("phi",):
        if not (len(generator) == 2 and is_integer(generator[1]) and generator[1] >= 0):
            raise ParameterError(f"phi and classical take one integer order beta >= 0, got {generator[1:]!r}")
        return "phi", int(generator[1])
    raise ParameterError(f"unknown square-function generator {generator!r}")


def area_function(f: GridFunction, generator, cone: ConeSpec, tg: TimeGrid) -> GridFunction:
    """S(f)(x) = (sum_m ln2/M t_m^{-n} int_{|x-y|<t_m, cone} |G_{t_m} f|^2 dy)^{1/2}."""
    g = f.grid
    if g.domain != FULL:
        raise BackendError("area functions are evaluated on full-space data")
    if cone.kind == "neumann" and not (generator == "qt"):
        raise ParameterError("the Neumann cone is wired for the heat generator only")
    kind, beta = _generator(generator)
    if cone.kind == "free":
        e = _exponent(f.values)
    else:
        # the Neumann field and cone on one side read only that side's values,
        # so each side takes its own scale
        e = join_sides(_exponent(restrict(f, UPPER).values), _exponent(restrict(f, LOWER).values), g)

    def sums(u, ts, weights):
        # a Neumann cone takes the Neumann generator
        fields = apply_scales(kind, cone.kind, ts, u, beta=beta) ** 2
        if cone.kind == "free":
            return _radial_sums(fields, g, ts, weights)
        # a Neumann cone at x keeps only the cells on x's side; one side at a time
        upper = _radial_sums(join_sides(fields, 0.0, g), g, ts, weights)
        return join_sides(upper, _radial_sums(join_sides(0.0, fields, g), g, ts, weights), g)

    return _cone_integral(f, e, tg, sums)


def g_star(h_fn: GridFunction, generator, lambda_exponent: int, tg: TimeGrid) -> GridFunction:
    """g*-type maximal square function with weight (t/(t+|x-y|))^lambda_exponent,
    lambda_exponent an integer >= 1."""
    g = h_fn.grid
    if g.domain != FULL:
        raise BackendError("g* is evaluated on full-space data")
    kind, beta = _generator(generator)
    if not (is_integer(lambda_exponent) and lambda_exponent >= 1):
        raise ParameterError(f"the g* exponent lambda must be an integer >= 1, got {lambda_exponent!r}")

    def sums(u, ts, weights):
        return _radial_sums(apply_scales(kind, "free", ts, u, beta=beta) ** 2, g, ts, weights, int(lambda_exponent))

    return _cone_integral(h_fn, _exponent(h_fn.values), tg, sums)


def haar_square_function(f: GridFunction, lat: DyadicLattice) -> GridFunction:
    """S_psi(f) = (sum_Q |<f, h_Q^eps>|^2 1_{2Q} / |Q|)^{1/2}, 2Q clipped to the box.

    One pass per generation: haar_generation gives every cube's energy, and
    per-axis 0/1 matrices (cell, cube) spread it over the clipped 2Q.  A
    shifted cube that wraps around the box along any axis spreads over
    itself instead.
    """
    g = f.grid
    lattices_on(lat, g, one=True)
    N = g.points_per_axis
    cells = np.arange(N)[:, None]
    acc = np.zeros(g.shape)
    for k in range(lat.max_generation):
        m = lat.cells_per_axis(k)
        density = (haar_generation(f.values, lat, k) ** 2).sum(axis=-1) / lat.measure(k)
        starts = [s + m * np.arange(1 << k) for s in lat.shift_cells]
        wrapped = np.zeros(density.shape, dtype=bool)
        for a, start in enumerate(starts):
            wrapped |= np.expand_dims(start + m > N, tuple(b for b in range(g.dim) if b != a))
        doubled = np.where(wrapped, 0.0, density)
        for a, start in enumerate(starts):
            cover = ((cells >= start - m // 2) & (cells < start + m + m // 2)).astype(float)
            doubled = np.moveaxis(np.tensordot(cover, doubled, axes=(1, a)), 0, a)
        acc += doubled + lat.spread(np.where(wrapped, density, 0.0), k)
    return GridFunction(g, np.sqrt(acc))


def hardy_norm(f: GridFunction, flavor, w, tg: TimeGrid = None, lattice: DyadicLattice = None) -> float:
    """||S(f)||_{L^1_w} for the selected square-function flavor.

    flavor: "heat-free" | "heat-neumann" | ("classical", beta) | "haar", beta
    an integer >= 0.
    w: None (the unit weight), a GridFunction or a cell array, read
    by grid.weight_cells: one positive finite value per cell of f's grid, or
    DomainError for a wrong shape or another grid and WeightError for a bad
    value.  lattice: the Haar flavor's one lattice, on f's grid (lattices_on).
    """
    warr = weight_cells(w, f.grid)
    if flavor == "haar":
        S = haar_square_function(f, lattice)
    else:
        if tg is None:
            tg = TimeGrid.geometric(f.grid)
        if flavor == "heat-free":
            S = area_function(f, "qt", ConeSpec("free"), tg)
        elif flavor == "heat-neumann":
            S = area_function(f, "qt", ConeSpec("neumann"), tg)
        elif isinstance(flavor, tuple) and flavor[:1] == ("classical",):
            S = area_function(f, ("phi",) + flavor[1:], ConeSpec("free"), tg)
        else:
            raise ParameterError(f"unknown hardy flavor {flavor!r}")
    return float(np.sum(S.values * warr) * f.grid.cell_volume)
