"""Discretized operators on grid functions: heat semigroups, the vertical
generator t^2 L e^{-t^2 L}, the reproducing multiplier psi(t sqrt(L)),
Riesz transforms, commutators, and weighted operator norms.  An
OperatorHandle is the one description of an operator, checked whole when it
is built, so the maps below check only what depends on the grid.

Every free-Laplacian operator is one map on full-grid value arrays
(_free_operator), in one of two backends:

* "fourier": the box is treated as a torus and the operator is a diagonal
  Fourier multiplier (exp(-t|xi|^2), t^2|xi|^2 exp(-t^2|xi|^2), psi(t|xi|),
  i xi_j/|xi|).  The data are real, so the map is a real transform (rfft in
  1D, rfft2 in 2D) and the multiplier lives on the half spectrum: the last
  axis runs from 0 to its Nyquist frequency.
* "quadrature": plain midpoint-rule kernel sums over the box, a direct
  convolution (scipy.signal, imported on first use) with the free kernel of
  kernels.py tabulated at every cell offset.  The singular diagonal cell of
  a Riesz kernel is 0 in the table (its principal-value contribution
  vanishes at leading order by odd symmetry).  psi is the circular
  convolution with the periodized cell-averaged stencil instead, which is
  the half-spectrum multiplier rfft(stencil) h: psi is one multiplier on
  both backends and takes the Fourier map's transforms.  The stencil has
  compact support, which the transforms keep only up to round-off, so the
  map zeroes every cell beyond the input's reach (psi_reach).

The multipliers come from free_multipliers: one read-only stack per (kind,
j, beta, grid, scales, backend), cached, so repeated applies and the scales
of one slab never rebuild them.

The Neumann and Dirichlet families reflect the free operator across
x_n = 0: each side's values are extended evenly (sign s = 1, Neumann) or
oddly (s = -1, Dirichlet), the free map acts on the extension, and each
side reads its own half back.  For the midpoint rule this is exactly the
same-side kernel sum
    sum_{y on x's side} [K(x - y) + s K(x - y~)] f(y),
with the finite reflected summand at y = x kept: it is the x~ cell of the
extension, and only the free diagonal cell is dropped.  The quadrature
backend builds the extensions (grid.extensions) and convolves them
(_sided_map), the slow reference.  The Fourier backend never builds them
(_reflected_map): an extension is half-sample symmetric, so its transform
is the DCT-II (s = 1) or DST-II (s = -1) of the side's M = N/2 values,
which Makhoul's real-FFT form ("A fast cosine transform in one and two
dimensions", 1980) takes at length M.

Let x_d, d = 0..M-1, be one side's values by distance from x_n = 0 (up
from the interface on the upper side, down on the lower one).  Makhoul's
order puts the even distances first, then the odd ones reversed, and the
length-M real transform V_k of that sequence (k = 0..M//2, the tangential
axis transformed in full) holds the pair
    a_k = e^{-i pi k / 2M} V_k = c_k - i c_{M-k},
c_k = sum_d x_d cos(pi (2d + 1) k / 2M) the DCT-II of x.  With the odd
distances negated first it holds s_{M-k} - i s_k instead, s the DST-II.
The even (odd) extension has the length-N transform 2 e^{i pi k / 2M} c_k
(-2i e^{i pi k / 2M} s_k), so the free multiplier's bins k and M - k on the
normal axis map (c or s)_k and (c or s)_{M-k} to the output's, whose pair
the inverse transform reads the same way.  The data are real, so
conj(a_k) read at -xi' on the tangential axis is c_k + i c_{M-k}, and the
map of pairs is the two-term step
    V'_k = P_k V_k + Q_k conj(V_k(-xi')),
    P_k = (m_k + p m_{M-k}) / 2,
    Q_k = s e^{i pi k / M} (m_k - p m_{M-k}) / 2,
with p = -1 for R_n, whose multiplier is odd in xi_n and takes an even side
to an odd one and back, and p = 1 for every other multiplier.  The output
is odd where s p = -1, and then has its odd distances negated back after
the inverse transform.  The lower side is the upper one seen through
x_n -> -x_n, which multiplies P and Q by p.  So one map gathers the sides
in Makhoul's order into one (..., [N,] sides, M) array by strided slice
copies, transforms it once at length M, takes the step with P and Q
(_reflection_stack: cached, read-only, one per t of a scale stack, and for
R_n one per side) and scatters the inverse transform back; a full grid is
exactly the two half grids' computations stacked, bit for bit.

apply_scales gives the fields G_t f of one scale kind (semigroup, qt, psi,
phi) at many scales t as one (T, *grid) array.  On the Fourier backend f, or
its sides gathered at half length, takes one forward real transform, the
multipliers (or reflection steps) of every t are one stack, and one
batched inverse transform returns all fields; each row equals the
one-scale apply bit for bit (apply is the stack of one).  A stack of
functions (S, *grid) rides along behind the scale axis, each row as
it would alone, so bmo's Carleson heat norms take every symbol of a weight
in one call.  It is Fourier only: no caller batches quadrature scales, and
the per-t apply stays the quadrature path.  The stack holds T half spectra
of complex numbers and T real fields, so callers pass one octave of scales
at a time: bmo one Whitney slab, squarefn one TimeGrid.octaves() run, atoms
one slab.  atoms also sums its psi pieces on the half spectrum itself
(spectrum, free_multipliers, from_spectrum), since a piece's buckets are
fixed within a slab.

Every operator also has an exact transpose without a matrix: parity times
the forward map of its adjoint (_maps).  The free Riesz kernel is odd
(parity -1) and the other free kernels even (parity 1).  Swapping x and y in
K(x - y) + s K(x - y~) keeps s, except for the normal component R_n, whose
kernel is odd in z_n: there it flips s, so R_{N,n}^T = -R_{D,n} and
R_{D,n}^T = -R_{N,n}, while the tangential components have T^T = -T.  A
commutator's transpose is [b, T]^T = [b, -T^T], the same commutator map
(_commutator_map) of the reflection -T^T, with no negation pass.

The p = 2 norms are top singular values by Golub-Kahan-Lanczos
bidiagonalization (Golub & Kahan, 1965), run in lockstep over a stack of
rows: commutator_norms takes S symbols of one Riesz transform, and each step
makes one batched product with every row's [b, T] and one with its
transpose.  Both new basis vectors are reorthogonalized in full (two passes
of batched matmul), and a row stops on its own Ritz residual,
beta_k |e_k^T p_1| <= 1e-13 sigma, or when its Krylov space is the whole
space (k = n), tested at every even step k and at k = n; stopped rows leave
the batch.  The rows run in near-equal blocks
of at most _BLOCK_CELLS = 8192 cells (rows times points) from _row_blocks,
each block in bases of its own that start at 32 steps.  The
certificate of each row keeps the explicit residuals ||A v - sigma u|| and
||A^T u - sigma v|| and the number of products.  Other p take Boyd's power
method for l^p norms (Boyd, 1974), whose ratios are certified lower bounds,
in the same lockstep over operators times _RESTARTS random restarts
(_lockstep_ascent).  Both norm entries go through _norms, the one place
where p picks the algorithm (svd at p = 2, ascent otherwise), which gives
each exactly zero operator (a commutator with a constant symbol) norm 0.0
without iteration and runs the others in lockstep: commutator_norms over a
stack of symbols, whose maps _commutator_maps builds, and
weighted_operator_norm on one handle (a commutator's is commutator_norms on
a stack of one), never a matrix.  So no norm assembles a matrix and none has
a size cap.  assemble_matrix and commutator_matrix (capped at DENSE_POINT_CAP
points) are the dense reference of the tests, which also keep scipy's
ARPACK svds and the per-restart ascent as independent iterative oracles.

The Riesz sign follows the kernel convention in kernels.py: in n = 1 the
free transform has kernel -(1/pi)/(x - y), i.e. multiplier +i sign(xi), the
negative of the textbook Hilbert transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BackendError, DomainError, ParameterError, RangeError, SizeError
from .grid import FULL, LOWER, UPPER, Grid, GridFunction, checked_p, choice, extensions, function_cells, scalar
from .grid import scale_array, weight_cells
from .kernels import heat_free, psi_multiplier, psi_stencil, qt_free, riesz_free

DENSE_POINT_CAP = 4096
# a lockstep block of rows holds at most this many cells (rows times points),
# which bounds its bases at 2 (cap + 1) _BLOCK_CELLS floats and the stacks of
# one batched product.  8192 runs the 50 symbols of a 256-point config as
# 25 + 25 rows; one block per call was faster still in 1D but raised the
# shipped-1d benchmark's peak RSS from 46.7 to 50.4 MB (58.4 MB with the
# bases reallocated at every stop)
_BLOCK_CELLS = 8192
# a row's Golub-Kahan run stops once its Ritz residual is this small against sigma
_RITZ_TOL = 1e-13
# the p-ascent's random restarts per operator, its steps per restart, and the
# relative change of the ratio at which a restart has converged
_RESTARTS, _MAX_ITER, _ASCENT_TOL = 10, 500, 1e-8

FOURIER = "fourier"
QUADRATURE = "quadrature"
SCALE_KINDS = ("semigroup", "qt", "psi", "phi")
KINDS = SCALE_KINDS + ("riesz", "commutator")
LAPLACIANS = ("free", "neumann", "dirichlet")


@dataclass(frozen=True)
class OperatorHandle:
    """The one description of an operator, checked whole when it is built.

    kind: semigroup | qt | psi | phi | riesz | commutator
    family: free | neumann | dirichlet (psi and phi: free only)
    t > 0: time/scale; j >= 1: Riesz component; beta >= 0: phi order (grid.scalar)
    backend: fourier | quadrature (phi: fourier only)
    b: symbol of a commutator; inner: the commuted handle (a Riesz one).
    A bad kind or family raises ParameterError, and a bad backend or a
    combination that no backend computes BackendError, here and nowhere later.
    """

    kind: str
    family: str = "free"
    t: float = None
    j: int = None
    beta: int = 0
    backend: str = FOURIER
    b: object = None
    inner: object = None

    def __post_init__(self):
        choice("kind", self.kind, KINDS)
        choice("family", self.family, LAPLACIANS)
        choice("backend", self.backend, (FOURIER, QUADRATURE), BackendError)
        if self.kind in SCALE_KINDS or self.t is not None:
            scalar("t", self.t, 0, strict=True)
        if self.kind == "riesz" or self.j is not None:
            scalar("j", self.j, 1, integer=True)
        scalar("beta", self.beta, 0, integer=True)
        if self.kind == "commutator" and (self.b is None or getattr(self.inner, "kind", None) != "riesz"):
            raise ParameterError("commutator needs b and a Riesz inner handle")
        if self.kind in ("psi", "phi") and self.family != "free":
            raise BackendError(f"{self.kind} is only wired for the free Laplacian")
        if self.kind == "phi" and self.backend == QUADRATURE:
            raise BackendError("phi has no quadrature rule")


def semigroup(family, t, backend=FOURIER):
    return OperatorHandle("semigroup", family, t=t, backend=backend)


def psi_op(t, backend=FOURIER):
    return OperatorHandle("psi", t=t, backend=backend)


def riesz(family, j, backend=FOURIER):
    return OperatorHandle("riesz", family, j=j, backend=backend)


def commutator(b: GridFunction, inner: OperatorHandle):
    return OperatorHandle("commutator", b=b, inner=inner)


# ---------------------------------------------------------------------------
# free operators and the reflection path

def spectrum(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum of real values on the last grid.dim axes of v (rfft on
    the last axis); leading batch axes ride along."""
    return np.fft.rfft(v) if grid.dim == 1 else np.fft.rfft2(v)


def from_spectrum(F: np.ndarray, grid: Grid) -> np.ndarray:
    """The real values on full grid of a half spectrum: spectrum's inverse."""
    N = grid.points_per_axis
    return np.fft.irfft(F, n=N) if grid.dim == 1 else np.fft.irfft2(F, s=(N, N))


def _xi_grids(grid: Grid):
    """Angular frequencies of the half spectrum: the full axes, then the last
    axis up to its Nyquist frequency."""
    N, h = grid.points_per_axis, grid.h
    axes = [2.0 * np.pi * np.fft.fftfreq(N, d=h)] * (grid.dim - 1) + [2.0 * np.pi * np.fft.rfftfreq(N, d=h)]
    return np.meshgrid(*axes, indexing="ij")


def _psi_stencil_spectrum(t: float, grid: Grid) -> np.ndarray:
    """Half-spectrum multiplier of the circular convolution with the
    periodized cell-averaged psi stencil (n = 1)."""
    h, N = grid.h, grid.points_per_axis
    st = psi_stencil(t, grid)
    r = (len(st) - 1) // 2
    kper = np.zeros(N)
    np.add.at(kper, np.arange(-r, r + 1) % N, st)
    return np.fft.rfft(kper) * h


def psi_reach(mask: np.ndarray, ts, grid: Grid) -> np.ndarray:
    """The cells that the quadrature psi at the scales ts reaches from the
    cells of mask (n = 1, last axis, mod the box): mask dilated by the largest
    stencil radius.  The exact psi fields vanish outside it; the transforms
    leave round-off there, which the callers zero; psi_stencil refuses t > 4L."""
    st = psi_stencil(max(ts), grid)
    r = int(np.max(np.abs(np.flatnonzero(st) - (len(st) - 1) // 2)))
    N = grid.points_per_axis
    if 2 * r + 1 >= N:
        return np.repeat(mask.any(axis=-1, keepdims=True), N, axis=-1)
    # window sums of the circularly padded mask, as differences of its running count
    ext = np.concatenate([mask[..., N - r:], mask, mask[..., :r]], axis=-1)
    counts = np.cumsum(ext, axis=-1)
    counts = np.concatenate([np.zeros(mask.shape[:-1] + (1,), dtype=counts.dtype), counts], axis=-1)
    return counts[..., 2 * r + 1:] > counts[..., :N]


@lru_cache(maxsize=64)
def _multiplier_stack(kind: str, j, beta: int, grid: Grid, ts, backend: str) -> np.ndarray:
    """Read-only half-spectrum multipliers of kind's free operator on grid, one
    per t of ts along a leading axis (a stack of one for Riesz, ts None).
    RangeError names kind and t when a scale's multiplier is not finite."""
    if kind == "psi" and backend == QUADRATURE:
        # circular convolution with the periodized stencil: keeps the compact
        # support (mod the box) and the exact zero total mass, and stays
        # consistent with the periodic Fourier model
        if grid.dim != 1:
            raise BackendError("the psi quadrature stencil is implemented in n = 1 only")
        m = np.stack([_psi_stencil_spectrum(t, grid) for t in ts])
    elif kind == "riesz":
        mesh = _xi_grids(grid)
        xi2 = sum(x ** 2 for x in mesh)
        mag = np.sqrt(xi2)
        mag[mag == 0] = 1.0
        m = 1j * mesh[j - 1] / mag
        m[xi2 == 0] = 0.0
        # zero the Nyquist plane of the active axis so the odd multiplier
        # keeps real data real (on the last axis it is the last bin)
        idx = [slice(None)] * grid.dim
        idx[j - 1] = grid.points_per_axis // 2
        m[tuple(idx)] = 0.0
        m = m[None]
    else:
        xi2 = sum(x ** 2 for x in _xi_grids(grid))
        # one scale is a stack of one, so apply and apply_scales share the arithmetic
        t = np.reshape(ts, (-1,) + (1,) * grid.dim)
        # a huge t overflows a multiplier (inf * 0 is NaN): checked below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "semigroup":
                m = np.exp(-t * xi2)
            elif kind == "qt":
                t2 = t ** 2
                m = t2 * xi2 * np.exp(-t2 * xi2)
            elif kind == "psi":
                m = psi_multiplier(t * np.sqrt(xi2))
            else:
                s = t * np.sqrt(xi2)
                m = s ** (1 + beta) * np.exp(-(s ** 2) / 2.0)
        finite = np.isfinite(m).reshape(len(m), -1).all(axis=1)
        if not finite.all():
            raise RangeError(f"the {kind} multiplier at t = {ts[np.argmin(finite)]!r} is not finite")
    m.flags.writeable = False
    return m


def free_multipliers(op: OperatorHandle, grid: Grid, ts=None) -> np.ndarray:
    """op's free multipliers on grid's half spectrum, shape (len(ts), *half):
    one per t of ts (default op.t alone; Riesz has no scale).  psi takes its
    backend's multiplier, the quadrature stencil's included.  The stacks are
    cached and read-only, so one slab's scales never rebuild them."""
    return _multiplier_stack(op.kind, op.j, op.beta, grid, _scales(op, grid, ts), op.backend)


def _scales(op: OperatorHandle, grid: Grid, ts) -> tuple:
    """The scales of op's multiplier stack as a cache key: the floats of ts
    (default op.t alone), None for Riesz, whose component must lie in
    1..grid.dim.  A commutator has no stack of its own."""
    if op.kind == "commutator":
        raise BackendError("a commutator has no multiplier; its Riesz handle has")
    if op.kind == "riesz":
        scalar("j", op.j, 1, grid.dim, integer=True)
        return None
    return tuple(float(t) for t in ([op.t] if ts is None else ts))


def _kernel_table(op: OperatorHandle, grid: Grid) -> np.ndarray:
    """The free kernel of op's kind (semigroup, qt or Riesz) at every cell
    offset of the box, shape (2N-1,)*n, its Riesz diagonal cell 0 (the
    principal value); _scales, the Fourier path's rule, reads j."""
    _scales(op, grid, None)
    N, n = grid.points_per_axis, grid.dim
    axis = np.arange(-(N - 1), N) * grid.h
    offsets = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
    table = np.zeros(offsets.shape[:-1])
    # every cell but the singular diagonal one of a Riesz kernel
    finite = np.any(offsets != 0, axis=-1) | (op.kind != "riesz")
    kernel, parameter = {"semigroup": (heat_free, op.t), "qt": (qt_free, op.t), "riesz": (riesz_free, op.j)}[op.kind]
    table[finite] = kernel(offsets[finite], np.zeros(n), parameter, n)
    return table


def _free_operator(op: OperatorHandle, grid: Grid, ts=None):
    """The free-Laplacian operator of op's kind as a map on full-grid value arrays.

    The map acts on the last grid.dim axes, so leading batch axes ride along.
    The multiplier or kernel table is built (or fetched) once, here.  With ts
    (the multiplier kinds only) the map returns the field at every t of ts
    along a new leading axis: one forward real transform meets the multiplier
    stack under one batched inverse transform.
    """
    if op.backend == FOURIER or op.kind == "psi":
        m = free_multipliers(op, grid, ts)
        if ts is None:
            m = m[0]

        def fourier(v):
            stack = m if ts is None else m.reshape(m.shape[:1] + (1,) * (v.ndim - grid.dim) + m.shape[1:])
            return from_spectrum(spectrum(v, grid) * stack, grid)

        if op.backend == QUADRATURE:
            scales = [op.t] if ts is None else ts

            def stencil(v):
                # the stencil's compact support, kept exactly
                return np.where(psi_reach(v != 0, scales, grid), fourier(v), 0.0)

            return stencil
        return fourier
    if ts is not None:
        raise BackendError("a stack of scales needs the Fourier backend")
    # only the quadrature reference needs scipy.signal, and its import is slow
    from scipy.signal import convolve

    # box-clipped midpoint sums, kept direct as an independent slow reference
    table = _kernel_table(op, grid)

    def convolved(v):
        batched = table.reshape((1,) * (v.ndim - grid.dim) + table.shape)
        return convolve(v, batched, mode="same", method="direct") * grid.cell_volume

    return convolved


def _sided_map(free, sign: float, grid: Grid):
    """The quadrature reflection of the full-grid map free onto grid's value
    arrays: each side's values are extended evenly (sign 1) or oddly (sign
    -1) across x_n = 0 (extensions), one free call maps the sides as a batch
    axis just before the grid axes, so that a scale axis that free puts in
    front passes through, and each side reads its own half back."""
    half, axis = grid.points_per_axis // 2, -grid.dim - 1
    owns = [slice(half, None) if side == UPPER else slice(None, half) for side in grid.sides]

    def sided(v):
        out = np.moveaxis(free(np.moveaxis(extensions(v, grid, sign), 0, axis)), axis, 0)
        return np.concatenate([side[..., own] for side, own in zip(out, owns)], axis=-1)

    return sided


def _normal_parity(kind: str, j, grid: Grid) -> float:
    """The parity in xi_n of kind's multiplier: -1 for the normal Riesz
    component R_n, 1 for every other."""
    return -1.0 if kind == "riesz" and j == grid.dim else 1.0


def _makhoul_order(side: str, M: int) -> tuple:
    """(even, odd): the slices of one side's M values at the even distances
    0, 2, ... from x_n = 0, in increasing distance, and at the odd distances,
    in decreasing distance.  Their concatenation is Makhoul's order."""
    if side == UPPER:
        return slice(0, None, 2), slice(2 * (M // 2) - 1, 0, -2)
    return slice(None, None, -2), slice(M % 2, None, 2)


@lru_cache(maxsize=64)
def _reflection_stack(kind: str, j, beta: int, grid: Grid, ts, sign: float) -> tuple:
    """Read-only (P, Q) of the half-length map of kind's Neumann (sign 1) or
    Dirichlet (sign -1) operator on grid, shape (len(ts), [N,] sides, M//2 + 1):
    one side for a half grid, and for a full grid two (lower, upper) where
    they differ, for R_n, or one that both sides share.  The module docstring
    derives them."""
    # the free stack serves only this build, so it stays out of its cache
    m = _multiplier_stack.__wrapped__(kind, j, beta, grid.with_domain(FULL), ts, FOURIER)
    M, parity = grid.points_per_axis // 2, _normal_parity(kind, j, grid)
    low, high = m[..., : M // 2 + 1], m[..., M: M - M // 2 - 1: -1]
    P = (low + parity * high) / 2.0
    Q = sign * np.exp(1j * np.pi * np.arange(M // 2 + 1) / M) * (low - parity * high) / 2.0
    if parity < 0:
        # the lower side is the upper one seen through x_n -> -x_n, which
        # multiplies the multiplier by its parity in xi_n
        P, Q = (np.stack([-a if side == LOWER else a for side in grid.sides], axis=-2) for a in (P, Q))
    else:
        P, Q = P[..., None, :], Q[..., None, :]
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


def _reflected_map(op: OperatorHandle, grid: Grid, ts, sign: float):
    """The Fourier Neumann (sign 1) or Dirichlet (sign -1) map of op on grid's
    value arrays by half-length transforms, leading batch axes allowed (with
    ts, the field at every t of ts along a new leading axis).  Each side is
    gathered in Makhoul order into one (..., [N,] sides, M) array, the odd
    distances negated for an odd input, transformed at length M, mapped by
    the two-term step V' = P V + Q conj(V(-xi')), transformed back and
    scattered, the odd distances negated for an odd output."""
    P, Q = _reflection_stack(op.kind, op.j, op.beta, grid, _scales(op, grid, ts), sign)
    if ts is None:
        P, Q = P[0], Q[0]
    M, n = grid.points_per_axis // 2, grid.dim
    h = (M + 1) // 2  # the even distances, which lead Makhoul's order
    orders = [_makhoul_order(side, M) for side in grid.sides]
    # the output's parity: a product with +-1 copies or negates exactly
    out_sign = sign * _normal_parity(op.kind, op.j, grid)

    def reflected(v):
        shape = v.shape[:-1] + (len(orders), M)
        src, buf = v.reshape(shape), np.empty(shape)
        for i, (even, odd) in enumerate(orders):
            buf[..., i, :h] = src[..., i, even]
            np.multiply(src[..., i, odd], sign, out=buf[..., i, h:])
        # rfftn over the tangential axis and x_n, without its argument parsing
        V = np.fft.rfft(buf)
        if n == 1:
            W = np.conjugate(V)
        else:
            V = np.fft.fft(V, axis=-3)
            # conj(V(-xi')): the tangential frequencies 0, -1, -2, ... mod N
            W = np.empty_like(V)
            np.conjugate(V[..., :1, :, :], out=W[..., :1, :, :])
            np.conjugate(V[..., :0:-1, :, :], out=W[..., 1:, :, :])
        # one scale or a stack of them: the same products, so that a stack's
        # rows equal their one-scale maps bit for bit
        lead = () if ts is None else (1,) * (v.ndim - n)
        spec = P.reshape(P.shape[:-n - 1] + lead + P.shape[-n - 1:]) * V
        spec += Q.reshape(Q.shape[:-n - 1] + lead + Q.shape[-n - 1:]) * W
        r = np.fft.irfft(spec if n == 1 else np.fft.ifft(spec, axis=-3), n=M)
        out = np.empty(r.shape[:-2] + (len(orders) * M,))
        view = out.reshape(r.shape)
        for i, (even, odd) in enumerate(orders):
            view[..., i, even] = r[..., i, :h]
            np.multiply(r[..., i, h:], out_sign, out=view[..., i, odd])
        return out

    return reflected


def _maps(op: OperatorHandle, grid: Grid, ts=None):
    """(M, M*, parity) of a semigroup, qt, psi, phi or Riesz handle: op = M
    and op^T = parity M* as maps on grid's value arrays, leading batch axes
    allowed (with ts, op's field at every t of ts along a new leading axis).
    A free map is its own M*.  A Neumann/Dirichlet map reflects the free map
    with sign s, and its M* is the same map, but for R_n, whose M* reflects
    with -s (the module docstring gives the kernel identity).  The Fourier
    backend reflects by half-length transforms (_reflected_map), the
    quadrature backend by the extension (_sided_map)."""
    parity = -1.0 if op.kind == "riesz" else 1.0
    if op.family == "free":
        if grid.domain != FULL:
            raise BackendError("free-Laplacian operators act on full-space data")
        free = _free_operator(op, grid, ts)
        return free, free, parity
    if op.family == "dirichlet" and grid.domain == FULL:
        raise DomainError("the Dirichlet Laplacian lives on a half-space")
    sign = 1.0 if op.family == "neumann" else -1.0
    if op.backend == FOURIER:
        reflect = lambda s: _reflected_map(op, grid, ts, s)
    else:
        free = _free_operator(op, grid.with_domain(FULL), ts)
        reflect = lambda s: _sided_map(free, s, grid)
    forward = reflect(sign)
    if _normal_parity(op.kind, op.j, grid) < 0:
        return forward, reflect(-sign), parity
    return forward, forward, parity


def _operator_maps(op: OperatorHandle, grid: Grid, ts=None):
    """(forward, transpose): op and its exact transpose on grid's value arrays,
    both with leading batch axes allowed.  With ts (the scale kinds only) both
    return op's field at every t of ts along a new leading axis.  A
    commutator is row 0 of _commutator_maps on its symbol alone.
    """
    if op.kind == "commutator":
        return _commutator_maps(function_cells(op.b, grid)[None], op.inner, grid)(0)
    forward, adjoint, parity = _maps(op, grid, ts)
    return forward, (adjoint if parity > 0 else lambda u: -adjoint(u))


def _commutator_maps(symbols: np.ndarray, inner: OperatorHandle, grid: Grid):
    """maps(rows): ([b, T], [b, T]^T) of the rows (an index array or one
    index) of symbols, a stack (S, *grid.shape) that grid.function_cells has
    read, for the Riesz handle T = inner.  T has parity -1, so [b, T]^T =
    [b, -T^T] is the commutator map of T's M* and makes no negation pass."""
    if not (isinstance(inner, OperatorHandle) and inner.kind == "riesz"):
        raise ParameterError(f"commutator inner handle must be a Riesz transform, got inner = {inner!r:.60}")
    forward, adjoint, _ = _maps(inner, grid)

    def maps(rows):
        return _commutator_map(symbols[rows], forward), _commutator_map(symbols[rows], adjoint)

    return maps


def _commutator_map(b: np.ndarray, inner):
    """[b, T] from a map of T: [b, T] v = b T v - T(b v), with v and b v
    stacked through one call of T.  b is one symbol's values, or a stack of
    them that meets a stack of arguments row by row."""

    def forward(v):
        tv, tbv = inner(np.stack([v, b * v]))
        return b * tv - tbv

    return forward


def apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """Apply a discretized operator to a grid function.

    A commutator [b, T] f = b (T f) - T (b f) sends f and b f through one
    batched map of T.
    """
    return GridFunction(f.grid, _operator_maps(op, f.grid)[0](f.values))


def apply_scales(kind: str, family: str, ts, f, beta: int = 0, grid: Grid = None) -> np.ndarray:
    """G_t f at every scale t of ts, as one array of shape (len(ts), *f.grid.shape).

    kind is a scale kind (semigroup, qt, psi, phi) and row i equals
    apply(OperatorHandle(kind, family, t=ts[i], beta=beta), f) on the
    Fourier backend: f, or its sides gathered at half length, is transformed once and
    every t's multiplier is one stack under one batched inverse transform.
    With grid, f is a stack of values (S, *grid.shape), read by
    grid.function_cells, and the fields have
    shape (len(ts), S, *grid.shape); each row equals its own call bit for bit.
    The stack holds len(ts) complex half spectra and real fields, so callers
    pass one octave of scales at a time.
    """
    choice("kind", kind, SCALE_KINDS)
    ts = scale_array("ts", ts)
    # the handle checks the family; the scales themselves come from ts
    op = OperatorHandle(kind, family, t=float(ts[0]), beta=beta)
    values, grid = (f.values, f.grid) if grid is None else (function_cells(f, grid, stack=True), grid)
    return _operator_maps(op, grid, ts)[0](values)


# ---------------------------------------------------------------------------
# dense matrices (test oracle) and weighted operator norms

def assemble_matrix(op: OperatorHandle, grid: Grid) -> np.ndarray:
    """Dense matrix of the operator on value vectors (quadrature weights included)."""
    npts = int(np.prod(grid.shape))
    if npts > DENSE_POINT_CAP:
        raise SizeError(f"{npts} points exceed the dense cap {DENSE_POINT_CAP}")
    if op.kind == "commutator":
        return commutator_matrix(function_cells(op.b, grid), assemble_matrix(op.inner, grid))
    cols = np.empty((npts, npts))
    basis = np.zeros(grid.shape)
    flat = basis.reshape(-1)
    for j in range(npts):
        flat[j] = 1.0
        cols[:, j] = apply(op, GridFunction(grid, basis)).values.reshape(-1)
        flat[j] = 0.0
    return cols


def commutator_matrix(b: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Dense matrix of [b, M] = b M - M b for the cell values b of a symbol."""
    bv = b.reshape(-1)
    return bv[:, None] * M - M * bv[None, :]


def _normalized(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of x over its norm; a zero row stays zero."""
    return x / np.where(norms > 0, norms, 1.0)[:, None]


def _reorthogonalized(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each row of x (R, n) minus its projection on the span of its row's
    orthonormal basis (R, k, n): classical Gram-Schmidt, twice."""
    for _ in range(2 if basis.shape[1] else 0):
        x = x - np.matmul(basis.transpose(0, 2, 1), np.matmul(basis, x[..., None]))[..., 0]
    return x


def _golub_kahan_block(weighted, count: int, start: np.ndarray):
    """Top singular triples (sigma, u, v) of count operators A_i at once, and
    each row's number of steps, by Golub-Kahan-Lanczos bidiagonalization in
    lockstep (Golub & Kahan, 1965).

    weighted(rows) gives (A, A^T) of the rows `rows` (an index array) as maps
    on stacks of flat vectors (len(rows), n).  Every row starts from the unit
    vector start.  Step k gives A V_k = U_k B_k and A^T U_k = V_k B_k^T +
    beta_k v_{k+1} e_k^T with B_k upper bidiagonal (alpha on the diagonal,
    beta above it); both new vectors are reorthogonalized against the whole
    basis.  For B_k's top triple (sigma, p, q), u = U_k p and v = V_k q have
    A v = sigma u and ||A^T u - sigma v|| = beta_k |e_k^T p|, so a row stops
    once that is at most _RITZ_TOL sigma, or when its Krylov space is the
    whole space (k = n).  The test takes a dense SVD of every active row's
    B_k, O(k^3), so it runs at even k and at k = n only: a row stops at most
    one step (two products) later than under a test at every step, and the
    decompositions halve.  Stopped rows leave the batch.  The bases (and the
    alpha, beta of B_k) start with 32 steps and grow by doubling, copying
    only the steps made; when rows stop, each remaining row's steps move
    down into the freed slots in place and the iteration goes on in the
    first rows of the same arrays.
    """
    n = start.size
    sigma, steps = np.zeros(count), np.zeros(count, dtype=int)
    u_out, v_out = np.zeros((count, n)), np.zeros((count, n))
    active = np.arange(count)
    A, At = weighted(active)
    cap = min(n, 32)
    U, V = np.empty((2, count, cap + 1, n))
    alpha, beta = np.empty((2, count, cap + 1))
    V[:, 0] = start
    k = 0
    while active.size:
        if k == cap:
            cap = min(n, 2 * cap)
            U, V, alpha, beta = (_resized(a, cap + 1, k + 1) for a in (U, V, alpha, beta))
        p = A(V[:, k])
        if k:
            p -= beta[:, k - 1, None] * U[:, k - 1]
        p = _reorthogonalized(p, U[:, :k])
        alpha[:, k] = np.linalg.norm(p, axis=1)
        U[:, k] = _normalized(p, alpha[:, k])
        q = _reorthogonalized(At(U[:, k]) - alpha[:, k, None] * V[:, k], V[:, : k + 1])
        beta[:, k] = np.linalg.norm(q, axis=1)
        V[:, k + 1] = _normalized(q, beta[:, k])
        k += 1
        if k % 2 and k < n:
            continue
        bidiagonal = np.zeros((len(active), k, k))
        diag = np.arange(k)
        bidiagonal[:, diag, diag] = alpha[:, :k]
        bidiagonal[:, diag[:-1], diag[1:]] = beta[:, : k - 1]
        P, s, Qt = np.linalg.svd(bidiagonal)
        done = (beta[:, k - 1] * np.abs(P[:, k - 1, 0]) <= _RITZ_TOL * s[:, 0]) | (k == n)
        if done.any():
            rows = active[done]
            sigma[rows], steps[rows] = s[done, 0], k
            u_out[rows] = np.matmul(P[done, None, :, 0], U[done, :k])[:, 0]
            v_out[rows] = np.matmul(Qt[done, None, 0, :], V[done, :k])[:, 0]
            keep = np.flatnonzero(~done)
            for to, row in enumerate(keep):
                if to < row:
                    for a in (U, V, alpha, beta):
                        a[to, : k + 1] = a[row, : k + 1]
            U, V, alpha, beta = (a[: keep.size] for a in (U, V, alpha, beta))
            active = active[keep]
            A, At = weighted(active)
    return sigma, u_out, v_out, steps


def _resized(a: np.ndarray, size: int, used: int) -> np.ndarray:
    """A new array of a's rows with `size` slots along axis 1, holding the
    first `used` of them."""
    out = np.empty(a.shape[:1] + (size,) + a.shape[2:])
    out[:, :used] = a[:, :used]
    return out


def _row_blocks(count: int, npts: int) -> list:
    """The rows 0..count-1 in near-equal consecutive blocks of at most
    _BLOCK_CELLS cells (rows times npts), or of one row where a row alone
    holds more; no rows give no block."""
    per_block = max(1, _BLOCK_CELLS // npts)
    return np.array_split(np.arange(count), -(-count // per_block)) if count else []


def _lockstep_norms(maps, count: int, shape, mu: np.ndarray, lam: np.ndarray, seed: int):
    """Largest singular value of A_i = diag(lam)^{1/2} M_i diag(mu)^{-1/2} for
    each of count operators M_i, with a certificate each.

    maps(rows) gives (M, M^T) of the rows `rows` (an index array) as maps on
    stacks (len(rows), *shape).  Rows run through _golub_kahan_block in the
    near-equal blocks of _row_blocks, of at most _BLOCK_CELLS cells each (or
    one row), from one start vector seeded by seed.
    The certificate holds the residuals ||A v - sigma u|| and
    ||A^T u - sigma v|| (one more batched product each) and the number of
    products with A and A^T that the iteration made.
    """
    npts = int(np.prod(shape))
    left, right = np.sqrt(lam), 1.0 / np.sqrt(mu)
    start = np.random.default_rng(seed).standard_normal(npts)
    start /= np.linalg.norm(start)
    sigmas, certs = np.zeros(count), []
    for rows in _row_blocks(count, npts):

        def weighted(active, rows=rows):
            forward, transpose = maps(rows[active])
            return (
                lambda x: (left * forward(right * x.reshape((-1,) + shape))).reshape(len(x), npts),
                lambda y: (right * transpose(left * y.reshape((-1,) + shape))).reshape(len(y), npts),
            )

        sigma, u, v, steps = _golub_kahan_block(weighted, len(rows), start)
        A, At = weighted(np.arange(len(rows)))
        res_left = np.linalg.norm(A(v) - sigma[:, None] * u, axis=1)
        res_right = np.linalg.norm(At(u) - sigma[:, None] * v, axis=1)
        sigmas[rows] = sigma
        certs += [
            {"method": "svd", "size": npts, "seed": seed, "products": 2 * int(k),
             "residual_left": float(rl), "residual_right": float(rr)}
            for k, rl, rr in zip(steps, res_left, res_right)
        ]
    return sigmas, certs


def _lockstep_ascent(maps, count: int, shape, mu: np.ndarray, lam: np.ndarray, p: float, seed: int):
    """Lower bounds on ||M_i||_{L^p_mu -> L^p_lam} for count operators M_i,
    with a certificate each, by Boyd's power method for l^p norms (1974).

    maps(ops) gives (M, M^T) of the operators ops (an index array, one per
    row) as maps on stacks (len(ops), *shape).  With restarts = _RESTARTS,
    max_iter = _MAX_ITER and tol = _ASCENT_TOL, read at call time, row r, in
    the blocks of _row_blocks, is restart r % restarts of operator
    r // restarts and starts from row r % restarts of one
    standard_normal((restarts, n)) draw seeded by seed.  A step takes the
    ratio ||g||_lam of g = M f (||f||_mu = 1) and moves f to the normalized
    sign(z) (|z| / mu)^{1/(p-1)}, z = M^T(lam |g|^{p-1} sign g).  A row
    leaves the batch once its ratio changes by at most tol relative
    (converged; it keeps the earlier ratio), when z vanishes, or after
    max_iter steps.  Each operator keeps the first largest ratio of
    its restarts; its certificate names that restart, its steps and whether
    it converged.  A ratio or an iterate norm that is not finite (the power
    1/(p-1) overflows, or underflows to a zero iterate, as p nears 1) raises
    RangeError.
    """
    restarts, max_iter, tol = _RESTARTS, _MAX_ITER, _ASCENT_TOL
    npts, total = int(np.prod(shape)), count * restarts
    q, per_row = 1.0 / (p - 1.0), (-1,) + (1,) * len(shape)
    starts = np.random.default_rng(seed).standard_normal((restarts, npts)).reshape((restarts,) + shape)
    ratios, steps = np.full(total, -1.0), np.full(total, max_iter)
    converged = np.zeros(total, dtype=bool)

    def norm(x, w):
        out = np.sum((np.abs(x) ** p * w).reshape(len(x), npts), axis=1) ** (1.0 / p)
        if not np.all(np.isfinite(out)):
            raise RangeError(f"the p-ascent at p = {p!r} left the floating-point range")
        return out

    for active in _row_blocks(total, npts):
        f = starts[active % restarts]
        f /= norm(f, mu).reshape(per_row)
        M, Mt = maps(active // restarts)
        for it in range(max_iter):
            g = M(f)
            ratio, prev = norm(g, lam), ratios[active]
            done = (prev >= 0) & (np.abs(ratio - prev) <= tol * np.maximum(ratio, 1e-300))
            ratios[active[~done]] = ratio[~done]
            # a converged row's dual step is wasted, one product per row in all
            z = Mt(lam * np.abs(g) ** (p - 1.0) * np.sign(g))
            stop = done | ~np.any(z.reshape(len(z), npts), axis=1)
            steps[active[stop]], converged[active[done]] = it + 1, True
            if stop.any():
                active, z = active[~stop], z[~stop]
                if not active.size:
                    break
                M, Mt = maps(active // restarts)
            f = np.sign(z) * (np.abs(z) / mu) ** q
            f /= norm(f, mu).reshape(per_row)
    best = restarts * np.arange(count) + np.argmax(ratios.reshape(count, restarts), axis=1)
    certs = [{"method": "ascent", "restarts": restarts, "tol": tol, "seed": seed} for _ in best]
    for cert, row in zip(certs, best):
        if ratios[row] > 0:
            cert.update(restart=int(row % restarts), iterations=int(steps[row]), converged=bool(converged[row]))
    return np.maximum(ratios[best], 0.0), certs


def _norms(maps, zero: np.ndarray, grid: Grid, mu, lam, p: float, seed: int):
    """||M_i||_{L^p_mu -> L^p_lam} for the operators M_i, i < len(zero), with
    a certificate each: (array of norms, list of certificates).

    maps(ops) gives (M, M^T) of the operators ops (an index array) as maps on
    stacks (len(ops), *grid.shape).  The operators flagged in zero are exactly
    zero: norm 0.0 and the zero-operator certificate, no iteration.  The
    others run in lockstep, and p picks how: at p = 2 top singular values by
    _lockstep_norms (method "svd"), at any other p certified lower bounds by
    _lockstep_ascent (method "ascent").  p is read by grid.checked_p, seed
    (>= 0) by grid.scalar, and mu and lam by grid.weight_cells.
    """
    method = "svd" if checked_p(p) == 2.0 else "ascent"
    scalar("seed", seed, 0, integer=True)
    live = np.flatnonzero(~zero)
    args = (lambda rows: maps(live[rows]), len(live), grid.shape, weight_cells(mu, grid), weight_cells(lam, grid))
    if method == "svd":
        norms, certs = _lockstep_norms(*args, seed)
    else:
        norms, certs = _lockstep_ascent(*args, p, seed)
    out = np.zeros(len(zero))
    out[live] = norms
    everyone = [{"method": method, "size": int(np.prod(grid.shape)), "zero_operator": True} for _ in zero]
    for i, cert in zip(live, certs):
        everyone[i] = cert
    return out, everyone


def commutator_norms(symbols, inner: OperatorHandle, grid: Grid, mu=None, lam=None, seed: int = 0, p: float = 2.0):
    """||[b, T]||_{L^p_mu -> L^p_lam} for every row b of symbols, a stack of
    shape (S, *grid.shape) read by grid.function_cells, and the Riesz handle
    T = inner: (array of S norms, list of S certificates).

    At p = 2 the norms are top singular values by lockstep Golub-Kahan-Lanczos
    bidiagonalization (_lockstep_norms), at any other p certified lower bounds
    by the lockstep p-ascent over symbols times restarts (_lockstep_ascent);
    one batched commutator product per step serves every row of a block.  A
    constant symbol gives the zero operator: norm exactly 0.0, no iteration.
    """
    symbols = function_cells(symbols, grid, stack=True)
    flat = symbols.reshape(len(symbols), -1)
    # the rows of constant symbols, whose commutators are exactly zero
    constant = np.all(flat == flat[:, :1], axis=1)
    return _norms(_commutator_maps(symbols, inner, grid), constant, grid, mu, lam, p, seed)


def weighted_operator_norm(op: OperatorHandle, grid: Grid, mu=None, lam=None, p: float = 2.0, seed: int = 0):
    """Discrete L^p_mu -> L^p_lam operator norm with a certificate.

    op is an operator handle M on grid's value arrays, applied matrix-free
    through _operator_maps, and p picks the algorithm (_norms).  At p = 2:
    the largest singular value of diag(lam)^{1/2} M diag(mu)^{-1/2} to
    machine precision, by the Golub-Kahan-Lanczos run behind
    commutator_norms on one row.  At any other p: Boyd's power method on the
    p-duality map from _RESTARTS random starts, a certified lower bound on
    the discrete norm.  Both use only products with M and M^T.  A commutator
    handle is commutator_norms on a stack of its one symbol, read on grid,
    so a constant symbol gives norm 0.0.
    """
    if op.kind == "commutator":
        norms, certs = commutator_norms(function_cells(op.b, grid)[None], op.inner, grid, mu, lam, seed=seed, p=p)
    else:
        maps = _operator_maps(op, grid)
        norms, certs = _norms(lambda ops: maps, np.zeros(1, dtype=bool), grid, mu, lam, p, seed)
    return float(norms[0]), certs[0]
