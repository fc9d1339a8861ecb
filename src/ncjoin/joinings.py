"""Joinings of two systems as a convex feasibility problem.

A joining is a state ω on A ⊙ B with marginals μ and ν that is invariant
under the diagonal action. It is stored by its values V[i, j] = ω(e_i ⊗ f_j)
on the basis pairs. Each pair is a matrix unit E_rs of one block of the
product algebra ⊕ M_{n_k·n_l}, and ω(E_rs) = ρ[s, r] for the block density
ρ_ω of ω, so V holds exactly the entries of ρ_ω, blockwise transposed. The
constraints are linear in V: trace one, both marginals, and Uaᵀ V Ub = V for
every generator. Positivity of ω is positivity of every density block.
Feasibility is solved by Dykstra alternating projections between the
spectral set {ρ ⪰ 0, trace ρ = 1} and the affine constraint subspace; linear
optimization over the joining set runs a bisection on the objective level
against that oracle.

An "infeasible" answer of the oracle is always a proof: either the
objective is constant on the affine constraints and the level misses that
constant, or Dykstra's gap vector gives a separating hyperplane between the
affine subspace and the spectral set. The certified distance is kept as
the answer's margin. A run that stalls or reaches its iteration cap
without either answer is "ambiguous", which makes a solve or a
disjointness scan inconclusive.

The diagonal state of a system with its mirror and its shifts Δ_n are GNS
quantities: their value tables are Uᵀ·M·T in closed form, from the
system's cached GNS and mirror data (`_diagonal_values`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockStructure,
    FiniteSystem,
    operator_norm,
)
from .errors import (
    NcjoinError,
    NonJoiningError,
    UnsupportedGroupError,
)
from .gns import GnsSpace, UnitaryRep, classify_finite

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 50_000
DEFAULT_BISECTION_WIDTH = 1e-6
CONSTRUCTOR_RESIDUAL_TOL = 1e-8
_STALL_CHECK_EVERY = 100
_STALL_WINDOW_CHECKS = 10
_STALL_RELATIVE_DROP = 1e-3
# rounding allowance of a certified margin, relative to 1 + ‖x‖
_CERTIFICATE_SLACK = 1e-9
# a level row whose part outside the base row space is this small is pinned
_PINNED_LEVEL = 1e-9


@dataclass
class TensorContext:
    """Two systems and the product algebra A ⊙ B in which they are joined.

    The product algebra has one block per pair of blocks; basis pair
    e_i ⊗ f_j is its matrix unit pair_index[i, j]. `blocks` groups the
    product blocks by size N, each group an (m, N, N) array of the flat
    positions i·dim_b + j of the block's matrix units in a value table.
    """

    A: FiniteSystem
    B: FiniteSystem
    structure: BlockStructure
    space_a: GnsSpace
    rep_a: UnitaryRep
    space_b: GnsSpace
    rep_b: UnitaryRep
    mu: np.ndarray
    nu: np.ndarray
    pair_index: np.ndarray   # (dA, dB) -> canonical index in the product basis
    blocks: list[np.ndarray]

    @property
    def dim_a(self) -> int:
        return self.space_a.dimension

    @property
    def dim_b(self) -> int:
        return self.space_b.dimension

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def basis_pair(self, i: int, j: int) -> AlgebraElement:
        """The element e_i ⊗ f_j of the product algebra."""
        return self.structure.basis_element(int(self.pair_index[i, j]))

    def tensor_element(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        blocks = []
        for ka in range(self.A.structure.num_blocks):
            for kb in range(self.B.structure.num_blocks):
                blocks.append(np.kron(a.blocks[ka], b.blocks[kb]))
        return AlgebraElement(self.structure, blocks)

    def product_values(self) -> np.ndarray:
        return np.outer(self.mu, self.nu)


def build_tensor_context(A: FiniteSystem, B: FiniteSystem) -> TensorContext:
    """The product context of two systems, from their cached GNS data."""
    space_a, rep_a = A.gns   # raises for an invalid leg, before the group check
    space_b, rep_b = B.gns
    if (A.group.kind, A.group.k, A.group.m) != (B.group.kind, B.group.k, B.group.m):
        raise UnsupportedGroupError(
            f"systems act by different groups: {A.group} vs {B.group}")
    structure = BlockStructure(tuple(
        na * nb for na in A.structure.block_sizes for nb in B.structure.block_sizes))

    # e_i ⊗ f_j is the unit (ra·nb + rb, ca·nb + cb) of product block ka·mB + kb
    ka, ra, ca = (x[:, None] for x in A.structure.addresses())
    kb, rb, cb = B.structure.addresses()
    nb = np.array(B.structure.block_sizes)[kb]
    k = ka * B.structure.num_blocks + kb
    pair_index = (np.array(structure.offsets())[k]
                  + (ra * nb + rb) * np.array(structure.block_sizes)[k] + ca * nb + cb)
    position = np.empty(structure.dimension, dtype=int)
    position[pair_index.reshape(-1)] = np.arange(structure.dimension)
    by_size: dict[int, list[np.ndarray]] = {}
    for off, n in zip(structure.offsets(), structure.block_sizes):
        by_size.setdefault(n, []).append(position[off:off + n * n].reshape(n, n))

    # μ(E_rc) = ρ[c, r]: the state's values are the coordinates of ρᵀ
    mu = A.state.density_element().transpose().coords()
    nu = B.state.density_element().transpose().coords()
    return TensorContext(
        A=A, B=B, structure=structure,
        space_a=space_a, rep_a=rep_a, space_b=space_b, rep_b=rep_b,
        mu=mu, nu=nu, pair_index=pair_index,
        blocks=[np.array(group) for group in by_size.values()],
    )


def _herm_blocks(z: np.ndarray, ctx: TensorContext):
    """(positions, Hermitian parts) of the density blocks of a flat value vector,
    one stack per block size."""
    for idx in ctx.blocks:
        X = z[idx]
        yield idx, (X + X.conj().swapaxes(-1, -2)) / 2


def joining_residuals(ctx: TensorContext, values) -> dict:
    """Residuals of the joining constraint battery for a candidate value table."""
    z = np.asarray(values, dtype=complex).reshape(-1)
    zh = np.empty_like(z)
    herm, psd_floor = 0.0, math.inf
    for idx, Xh in _herm_blocks(z, ctx):
        zh[idx] = Xh
        skew = 2 * (z[idx] - Xh)   # X − X*
        herm = max(herm, float(np.linalg.norm(skew, 2, axis=(-2, -1)).max()))
        psd_floor = min(psd_floor, float(np.linalg.eigvalsh(Xh).min()))
    V = zh.reshape(ctx.dim_a, ctx.dim_b)
    ua = ctx.A.structure.identity().coords()
    ub = ctx.B.structure.identity().coords()
    tr = ua @ V @ ub
    inv = max((float(np.max(np.abs(Ua.T @ V @ Ub - V)))
               for Ua, Ub in zip(ctx.rep_a.matrices, ctx.rep_b.matrices)), default=0.0)
    return {
        "hermiticity": herm,
        "psd_floor": psd_floor,
        "trace": abs(tr.real - 1.0) + abs(tr.imag),
        "marginal_a": float(np.max(np.abs(V @ ub - ctx.mu))),
        "marginal_b": float(np.max(np.abs(ua @ V - ctx.nu))),
        "invariance": inv,
    }


def residual_magnitude(residuals: dict) -> float:
    """Single scalar: worst violation in the battery (PSD floor as deficit)."""
    return max(
        residuals["hermiticity"],
        max(0.0, -residuals["psd_floor"]),
        residuals["trace"],
        residuals["marginal_a"],
        residuals["marginal_b"],
        residuals["invariance"],
    )


@dataclass
class JoiningMatrix:
    """A state on A ⊙ B given by its values on the basis pairs."""

    ctx: TensorContext
    values: np.ndarray
    label: str
    residuals: dict = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.residuals is None:
            self.residuals = joining_residuals(self.ctx, self.values)

    def value(self, x: AlgebraElement) -> complex:
        return complex(np.sum(x.coords()[self.ctx.pair_index] * self.values))

    @property
    def worst_residual(self) -> float:
        return residual_magnitude(self.residuals)


def joining_from_values(ctx: TensorContext, values, label: str,
                        check_tol: float = CONSTRUCTOR_RESIDUAL_TOL) -> JoiningMatrix:
    """The state with the given values on the basis pairs, checked to be a joining."""
    out = JoiningMatrix(ctx=ctx, values=values, label=label)
    if residual_magnitude(out.residuals) > check_tol:
        raise NcjoinError(
            f"constructed {label} state violates the joining battery: {out.residuals}")
    return out


def product_joining(ctx: TensorContext) -> JoiningMatrix:
    """The product state μ ⊙ ν; always a joining."""
    return joining_from_values(ctx, ctx.product_values(), label="product",
                               check_tol=1e-10)


def mirror_context(sys: FiniteSystem) -> TensorContext:
    """Tensor context of a system with its promoted mirror."""
    return build_tensor_context(sys, sys.mirror.promoted)


def _state_products(ctx: TensorContext) -> np.ndarray:
    """M[p, q] = μ(e_p e_q) = gram[adj(p), q] on the first leg, since e_p = (e_adj(p))*."""
    return ctx.space_a.gram[[ctx.A.structure.adjoint_index(p) for p in range(ctx.dim_a)]]


def _diagonal_values(ctx: TensorContext, shift: np.ndarray) -> np.ndarray:
    """Values μ(α(e_i) · t_j) of the diagonal state shifted by α, on the basis pairs.

    `shift` is the GNS matrix U of α, or a stack of them. The promoted
    mirror element f_j acts as right multiplication by the twisted element
    t_j = ρ^{1/2} transpose(f_j) ρ^{-1/2}, which makes the identification
    *-preserving for a non-tracial density. With T the coordinates of the
    t_j (`MirrorSystem.twist`) and M[p, q] = μ(e_p e_q), the table is Uᵀ·M·T.
    """
    return np.swapaxes(shift, -1, -2) @ (_state_products(ctx) @ ctx.A.mirror.twist)


def diagonal_state(sys: FiniteSystem) -> JoiningMatrix:
    """The diagonal state ω(a ⊗ b) = ⟨Ω, π(a) b Ω⟩ over the mirror system.

    The mirror leg is the promoted commutant; the constructed state is
    verified to be a joining of the system with its mirror.
    """
    ctx = mirror_context(sys)
    return joining_from_values(ctx, _diagonal_values(ctx, np.eye(ctx.dim_a)),
                               label="diagonal")


def graph_joining(sys: FiniteSystem, n: int) -> JoiningMatrix:
    """Shifted diagonal state Δ_n(a ⊗ b) = ω_diag(α_n(a) ⊗ b); needs a Z action."""
    if sys.group.kind != "Z":
        raise UnsupportedGroupError("graph joinings need a Z action")
    ctx = mirror_context(sys)
    values = _diagonal_values(ctx, ctx.rep_a.of_element((n,)))
    return joining_from_values(ctx, values, label=f"graph:{n}")


# ---------------------------------------------------------------------------
# feasibility solver
#
# The solver works on real vectors w = [Re z; Im z] of length 2·dim_a·dim_b,
# where z is a value table flattened row-major.


def _vec(z: np.ndarray) -> np.ndarray:
    z = z.reshape(-1)
    return np.concatenate([z.real, z.imag])


def _unvec(w: np.ndarray) -> np.ndarray:
    half = w.size // 2
    return w[:half] + 1j * w[half:]


def _real_row(k: np.ndarray) -> np.ndarray:
    """Row of w ↦ Re Σ k_q z_q (one row per row of a 2-D k)."""
    return np.concatenate([k.real, -k.imag], axis=-1)


class _ConstraintSet:
    """Stacked real affine constraints on value tables, with projection data.

    The complex constraints are trace one, the marginals V·1 = μ and 1ᵀ·V = ν,
    and invariance Uaᵀ V Ub = V for every generator; each contributes its
    real and its imaginary part. The projector onto these base constraints
    is factored once, on first use; every level system of a solve or of a
    disjointness scan reuses it.
    """

    def __init__(self, ctx: TensorContext):
        self.ctx = ctx
        dA, dB, n = ctx.dim_a, ctx.dim_b, ctx.dim
        ua = ctx.A.structure.identity().coords()
        ub = ctx.B.structure.identity().coords()
        K = [np.outer(ua, ub).reshape(1, n),
             (np.eye(dA)[:, :, None] * ub).reshape(dA, n),
             (ua[:, None] * np.eye(dB)[:, None, :]).reshape(dB, n)]
        v = [np.ones(1), ctx.mu, ctx.nu]
        for Ua, Ub in zip(ctx.rep_a.matrices, ctx.rep_b.matrices):
            # entry (i, j) of Uaᵀ V Ub is Σ Ua[m, i] Ub[l, j] V[m, l]
            K.append(np.einsum("mi,lj->ijml", Ua, Ub).reshape(n, n) - np.eye(n))
            v.append(np.zeros(n))
        K = np.vstack(K)
        v = np.concatenate(v).astype(complex)
        A = np.vstack([_real_row(K), _real_row(-1j * K)])   # Re and Im of K·z
        b = np.concatenate([v.real, v.imag])
        keep = np.linalg.norm(A, axis=1) > 1e-12
        self.base_A = A[keep]
        self.base_b = b[keep]
        norms = np.linalg.norm(self.base_A, axis=1)
        self.A_n = self.base_A / norms[:, None]
        self.b_n = self.base_b / norms

    @cached_property
    def pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.A_n, rcond=1e-12)

    def project(self, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the base affine set."""
        return w - self.pinv @ (self.A_n @ w - self.b_n)

    def with_level(self, k: np.ndarray) -> _LevelSystem:
        """The base constraints extended by the row Re Σ k_q z_q = t."""
        return _LevelSystem(self, _real_row(k))


class _LevelSystem:
    """Base constraints plus one level row h·w = t, projected without a new pinv.

    With h normalized and h⊥ = h − A⁺A h its part orthogonal to the base row
    space, projecting onto the base set and then moving along h⊥ to the
    level is the orthogonal projection onto the intersection. On the base
    set the objective equals c0 + h⊥·w with c0 = h·A⁺b, and |h⊥·w| ≤ ‖h⊥‖
    for every w of the spectral set. When ‖h⊥‖ is negligible the level row
    is implied or contradicted by the base rows: it is left out of the
    projection and `pinned_margin` decides the level instead.
    """

    def __init__(self, base: _ConstraintSet, row: np.ndarray):
        self.base = base
        self.row = row
        self.scale = float(np.linalg.norm(row)) or 1.0   # a zero objective is pinned at 0
        self.h = row / self.scale
        h_perp = self.h - base.pinv @ (base.A_n @ self.h)
        self.perp_norm = float(np.linalg.norm(h_perp))
        if self.perp_norm <= _PINNED_LEVEL:
            self.step = None
            self.c0 = float(self.h @ (base.pinv @ base.b_n))
        else:
            self.step = h_perp / self.perp_norm ** 2
        self.t = 0.0

    def set_level(self, t: float):
        self.t = t

    def project(self, w: np.ndarray) -> np.ndarray:
        x = self.base.project(w)
        if self.step is not None:
            x = x + self.step * (self.t / self.scale - self.h @ x)
        return x

    def residual(self, w: np.ndarray) -> float:
        return max(float(np.max(np.abs(self.base.base_A @ w - self.base.base_b))),
                   abs(float(self.row @ w) - self.t))

    def pinned_margin(self) -> float | None:
        """Certified distance of a pinned level from every value the objective
        takes on the base set within the spectral set; None when not pinned."""
        if self.step is not None:
            return None
        return abs(self.t / self.scale - self.c0) - self.perp_norm


def _project_spectral(w: np.ndarray, ctx: TensorContext) -> np.ndarray:
    """Nearest point in {ρ Hermitian, ρ ⪰ 0, trace ρ = 1} (Frobenius).

    One batched `eigh` per block size, then one simplex projection over the
    eigenvalues of all blocks.
    """
    parts = [(idx, *np.linalg.eigh(X)) for idx, X in _herm_blocks(_unvec(w), ctx)]
    lam = _project_simplex(np.concatenate([vals.reshape(-1) for _, vals, _ in parts]))
    out = np.empty(ctx.dim, dtype=complex)
    pos = 0
    for idx, vals, vecs in parts:
        lam_k = lam[pos:pos + vals.size].reshape(vals.shape)
        pos += vals.size
        out[idx] = (vecs * lam_k[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return _vec(out)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto {x ≥ 0, Σx = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _top_eigenvalue(w: np.ndarray, ctx: TensorContext) -> float:
    """Largest eigenvalue over the Hermitian parts of all density blocks."""
    return max(float(np.linalg.eigvalsh(X).max()) for _, X in _herm_blocks(_unvec(w), ctx))


@dataclass
class _Feasibility:
    status: str          # feasible | infeasible | ambiguous
    point: np.ndarray | None   # the spectral point reached, as a real vector
    residual: float
    iterations: int
    margin: float | None = None       # set when infeasibility is certified
    separator: np.ndarray | None = None   # the gap vector v of a Dykstra certificate


def _dykstra(affine: _LevelSystem, x0: np.ndarray, tol: float,
             max_iter: int) -> _Feasibility:
    """Dykstra between the spectral set and the affine subspace.

    The correction term is kept only for the spectral set; for an affine set
    the correction vanishes. Residuals are measured at the spectrally
    projected point, which is exactly PSD with unit trace, so a converged
    answer violates only the affine part and only below tol.

    "infeasible" is decided by a certificate whenever one holds. A pinned
    level (objective constant on the base set) is decided before any
    iteration by `pinned_margin`. Otherwise each iteration checks the gap
    v = x − y between the affine projection x and the spectral point y: v
    lies in the constraint row space, so ⟨v, ·⟩ equals ⟨v, x⟩ on the affine
    set, while every state has ⟨v, ρ⟩ ≤ λ_max(herm V) over the density
    blocks. When (⟨v, x⟩ − λ_max(herm V)) / ‖v‖, a lower bound on the
    distance between the two sets, exceeds a rounding slack, no joining
    meets the constraints; that bound is the returned margin. A run whose
    residual stalls, or that reaches the iteration cap, without either
    certificate is ambiguous, never silently resolved either way.
    """
    ctx = affine.base.ctx
    margin = affine.pinned_margin()
    if margin is not None and margin > _CERTIFICATE_SLACK:
        return _Feasibility("infeasible", None, affine.residual(x0), 0, margin)
    x = x0.copy()
    p = np.zeros_like(x)
    best = math.inf
    best_y = None
    history: list[float] = []
    it = 0
    while it < max_iter:
        it += 1
        y = _project_spectral(x + p, ctx)
        p = x + p - y
        r = affine.residual(y)
        if r < best:
            best = r
            best_y = y
        if r < tol:
            return _Feasibility("feasible", y, r, it)
        x = affine.project(y)
        v = x - y
        v_norm = float(np.linalg.norm(v))
        if v_norm > 0:
            margin = (float(v @ x) - _top_eigenvalue(v, ctx)) / v_norm
            if margin > _CERTIFICATE_SLACK * (1.0 + float(np.linalg.norm(x))):
                return _Feasibility("infeasible", y, r, it, margin, v)
        if it % _STALL_CHECK_EVERY == 0:
            history.append(best)
            if len(history) > _STALL_WINDOW_CHECKS:
                old = history[-1 - _STALL_WINDOW_CHECKS]
                if best > old * (1.0 - _STALL_RELATIVE_DROP):
                    # settled without a certificate: a positive distance is
                    # likely but not proved
                    return _Feasibility("ambiguous", best_y, best, it)
    # iteration cap with the residual still falling: no verdict either way
    return _Feasibility("ambiguous", best_y, best, it)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    achieved: float | None = None
    lower: float | None = None
    upper: float | None = None
    oracle_calls: int = 0
    ambiguous_calls: int = 0
    certified: int = 0                # infeasible calls, each proven by a certificate
    min_margin: float | None = None   # smallest certified margin
    inconclusive: bool = False
    message: str = ""


@dataclass
class _InfeasibleTally:
    """The certified infeasible oracle answers of one solve or scan."""

    certified: int = 0
    min_margin: float | None = None

    def add(self, out: _Feasibility):
        self.certified += 1
        if self.min_margin is None or out.margin < self.min_margin:
            self.min_margin = out.margin


def _basis_direction(ctx: TensorContext, i: int, j: int, w: complex = 1):
    """Hermitian part of w·(e_i ⊗ f_j) as value coefficients, with a bound on
    its largest eigenvalue.

    The basis pair is a matrix unit E of the product algebra. On the diagonal
    the Hermitian part is Re w · E, whose largest eigenvalue is max(Re w, 0)
    (exact unless A ⊙ B is one-dimensional); off the diagonal its nonzero
    eigenvalues are ±|w|/2.
    """
    ti, tj = ctx.A.structure.adjoint_index(i), ctx.B.structure.adjoint_index(j)
    k = np.zeros(ctx.dim, dtype=complex)
    k[i * ctx.dim_b + j] += w / 2
    k[ti * ctx.dim_b + tj] += np.conj(w) / 2
    top = max(w.real, 0.0) if (ti, tj) == (i, j) else abs(w) / 2
    return k, top


def _objective(ctx: TensorContext, objective) -> tuple[np.ndarray, float, str]:
    """Value coefficients of the objective's Hermitian part, its largest
    eigenvalue (or a bound on it) and a label."""
    if isinstance(objective, AlgebraElement):
        h = 0.5 * (objective + objective.adjoint())
        top = max(float(np.linalg.eigvalsh(b).max()) for b in h.blocks)
        return h.coords()[ctx.pair_index].reshape(-1), top, "element"
    if isinstance(objective, tuple) and len(objective) == 2:
        i, j = objective
        return *_basis_direction(ctx, i, j), f"basis({i},{j})"
    raise NcjoinError("objective must be an AlgebraElement or a basis index pair")


def _maximize(affine: _LevelSystem, top: float, lo: float, x0: np.ndarray,
              tol: float, max_iter: int, width: float, label: str):
    """Bisection on the level of the affine system's row with the feasibility oracle.

    `lo` is a level that x0 attains and `top` bounds the objective over all
    states. The feasible endpoint is always kept; the returned joining is the
    best verified feasible point, so the achieved value is a sound lower bound.
    """
    ctx = affine.base.ctx
    hi = top + 1e-12
    x_best = x0
    calls = ambiguous = iters = 0
    tally = _InfeasibleTally()
    while hi - lo > width:
        t = 0.5 * (lo + hi)
        affine.set_level(t)
        out = _dykstra(affine, x_best, tol, max_iter)
        calls += 1
        iters += out.iterations
        if out.status == "feasible":
            lo = t
            x_best = out.point
        else:
            hi = t
            if out.status == "ambiguous":
                ambiguous += 1
            else:
                tally.add(out)
    jm = JoiningMatrix(ctx=ctx, values=_unvec(x_best).reshape(ctx.dim_a, ctx.dim_b),
                       label=label)
    report = SolveReport(
        converged=True,
        iterations=iters,
        residual=jm.worst_residual,
        achieved=lo,
        lower=lo,
        upper=hi,
        oracle_calls=calls,
        ambiguous_calls=ambiguous,
        **vars(tally),
        inconclusive=ambiguous > 0,
        message="bisection complete" if ambiguous == 0 else
                "bisection complete with ambiguous oracle calls; the maximum may be underestimated",
    )
    return jm, report


def find_joining(ctx: TensorContext, objective=None, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 width: float = DEFAULT_BISECTION_WIDTH):
    """Feasible joining, optionally maximizing Re ω(c) for a direction c.

    Without an objective the product state is returned (it is always
    feasible). With one, the level of the objective is bisected to the given
    width; the report carries iteration counts, residuals, the number of
    certified infeasible oracle calls with their smallest margin, and an
    inconclusive flag whenever an oracle call could not be classified.
    """
    prod = product_joining(ctx)
    if objective is None:
        report = SolveReport(
            converged=True, iterations=0,
            residual=residual_magnitude(prod.residuals),
            message="product state is feasible",
        )
        return prod, report
    k, top, desc = _objective(ctx, objective)
    affine = _ConstraintSet(ctx).with_level(k)
    x0 = _vec(prod.values)
    jm, report = _maximize(affine, top, float(affine.row @ x0), x0, tol, max_iter,
                           width, f"solver:{desc}")
    report.message = f"objective {desc}: " + report.message
    return jm, report


@dataclass
class DisjointnessCertificate:
    verdict: str                      # disjoint | not_disjoint | inconclusive
    gap_threshold: float
    witness_direction: tuple | None = None
    witness_gap: float | None = None
    witness: JoiningMatrix | None = None
    max_gap_bound: float | None = None
    directions_scanned: int = 0
    ambiguous_directions: list = field(default_factory=list)
    certified: int = 0                # infeasible probes, each proven by a certificate
    min_margin: float | None = None   # smallest certified margin


_WEIGHTS = (1 + 0j, 1j, -1 + 0j, -1j)


def disjointness_test(ctx: TensorContext, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      width: float = DEFAULT_BISECTION_WIDTH,
                      gap_threshold: float | None = None) -> DisjointnessCertificate:
    """Decide whether the product state is the only joining.

    Scans every basis direction together with its i-weighted and negated
    variants, so both real and imaginary deviations in either sign are
    covered. For each direction the feasibility oracle probes the level
    t0 + threshold; an infeasible probe settles the direction, a feasible
    one yields a witness which is then refined by full bisection. Any
    ambiguous oracle call taints the verdict to inconclusive. The
    certificate counts the infeasible probes, all certified, with the
    smallest certified margin.
    """
    thr = gap_threshold if gap_threshold is not None else 10.0 * width
    prod = product_joining(ctx).values.reshape(-1)
    x0 = _vec(prod)
    cons = _ConstraintSet(ctx)
    scanned = 0
    ambiguous = []
    tally = _InfeasibleTally()
    for i in range(ctx.dim_a):
        for j in range(ctx.dim_b):
            for w in _WEIGHTS:
                scanned += 1
                k, top = _basis_direction(ctx, i, j, w)
                t0 = float((k @ prod).real)
                if top <= t0 + thr:
                    continue  # no state at all exceeds the threshold here
                affine = cons.with_level(k)
                affine.set_level(t0 + thr)
                probe = _dykstra(affine, x0, tol, max_iter)
                if probe.status == "infeasible":
                    tally.add(probe)
                    continue
                if probe.status == "ambiguous":
                    ambiguous.append((i, j, w))
                    return DisjointnessCertificate(
                        verdict="inconclusive", gap_threshold=thr,
                        directions_scanned=scanned, ambiguous_directions=ambiguous,
                        **vars(tally),
                    )
                witness, report = _maximize(affine, top, t0 + thr, probe.point, tol,
                                            max_iter, width, f"witness({i},{j})")
                return DisjointnessCertificate(
                    verdict="not_disjoint", gap_threshold=thr,
                    witness_direction=(i, j, w), witness_gap=report.achieved - t0,
                    witness=witness, directions_scanned=scanned, **vars(tally),
                )
    return DisjointnessCertificate(
        verdict="disjoint", gap_threshold=thr, max_gap_bound=thr,
        directions_scanned=scanned, **vars(tally),
    )


# ---------------------------------------------------------------------------
# conditional expectation, faces, averages, ratio scan


@dataclass
class ConditionalExpectation:
    matrix: np.ndarray            # P*: H_ν -> H_μ in canonical coordinates
    norm: float
    intertwining_residual: float


def conditional_expectation(ctx: TensorContext, joining: JoiningMatrix,
                            pre_tol: float = 1e-6) -> ConditionalExpectation:
    """Operator P* with ⟨γ_μ(a*), P* γ_ν(b)⟩ = ω(a ⊗ b).

    For a joining this is a contraction intertwining the two unitary
    representations; the product state yields the rank-one map b ↦ ν(b) Ω.
    """
    if residual_magnitude(joining.residuals) > pre_tol:
        raise NonJoiningError(
            f"matrix violates the joining battery: {joining.residuals}")
    X = np.linalg.solve(_state_products(ctx), joining.values)
    ca, cb_inv = ctx.space_a.onb_factor, ctx.space_b.onb_factor_inv
    norm = operator_norm(ca @ X @ cb_inv)
    inter = 0.0
    for g in range(len(ctx.A.generators)):
        R = ctx.rep_a.matrices[g] @ X - X @ ctx.rep_b.matrices[g]
        inter = max(inter, operator_norm(ca @ R @ cb_inv))
    return ConditionalExpectation(matrix=X, norm=norm, intertwining_residual=inter)


def _hermitian_param_basis(r: int) -> list[np.ndarray]:
    out = []
    for a in range(r):
        m = np.zeros((r, r), dtype=complex)
        m[a, a] = 1.0
        out.append(m)
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r), dtype=complex)
            m[a, b] = m[b, a] = 1.0
            out.append(m)
            m = np.zeros((r, r), dtype=complex)
            m[a, b] = 1j
            m[b, a] = -1j
            out.append(m)
    return out


def joining_face_dimension(ctx: TensorContext, joining: JoiningMatrix,
                           rank_tol: float = 1e-7) -> int:
    """Dimension of the feasible perturbations of the joining's density.

    Directions are Hermitian perturbations of each density block with range
    inside the range of that block that every affine constraint maps to
    zero. The range of a block of size N is spanned by its eigenvectors with
    eigenvalue above N·rank_tol. Zero means the state is an extreme point of
    the joining set.
    """
    z = joining.values.reshape(-1)
    cols = []
    for idx, X in _herm_blocks(z, ctx):
        vals, vecs = np.linalg.eigh(X)
        for pos, lam, U in zip(idx, vals, vecs):
            R = U[:, lam > rank_tol * len(lam)]
            for E in _hermitian_param_basis(R.shape[1]):
                D = np.zeros(ctx.dim, dtype=complex)
                D[pos] = R @ E @ R.conj().T
                cols.append(_vec(D))
    if not cols:
        return 0
    images = _ConstraintSet(ctx).base_A @ np.array(cols).T
    s = np.linalg.svd(images, compute_uv=False)
    return len(cols) - int(np.sum(s > 1e-8))


@dataclass
class CesaroDiagonalResult:
    values: np.ndarray
    deviation: float
    ergodic: bool


def cesaro_diagonal_average(sys: FiniteSystem, n: int) -> CesaroDiagonalResult:
    """Average of the diagonal state over the Folner set, against the product.

    Returns the averaged basis values and their maximal deviation from the
    product of the state with the mirror state. For a non-ergodic system the
    limit need not be the product; the flag records that.
    """
    ctx = mirror_context(sys)
    elements = sys.group.folner_elements(n)
    average = sum(ctx.rep_a.of_element(g) for g in elements) / len(elements)
    acc = _diagonal_values(ctx, average)
    deviation = float(np.max(np.abs(acc - ctx.product_values())))
    return CesaroDiagonalResult(values=acc, deviation=deviation,
                                ergodic=classify_finite(sys).ergodic)


@dataclass
class OrnsteinRow:
    n: int
    delta_value: float
    ratio: float


@dataclass
class OrnsteinElementReport:
    element_label: str
    denominator: float
    rows: list[OrnsteinRow]
    sup_ratio: float


@dataclass
class OrnsteinScan:
    reports: list[OrnsteinElementReport]
    period: int | None
    skipped: list[str]
    sup_ratio: float

    @property
    def periodic(self) -> bool:
        return self.period is not None


def ornstein_ratio_scan(sys: FiniteSystem, test_elements, n_range,
                        labels=None, degenerate_tol: float = 1e-12) -> OrnsteinScan:
    """Table of Δ_n(c*c) / (μ ⊙ μ̃)(c*c) over a window of shifts.

    Elements live in the tensor algebra of the system with its promoted
    mirror, `mirror_context(sys)`. Nontrivial finite systems recur instead
    of mixing, so the scan also reports the recurrence period of the
    dynamics when one exists within the window. Degenerate elements
    (denominator ~ 0) are skipped with a notice.
    """
    if sys.group.kind != "Z":
        raise UnsupportedGroupError("the ratio scan needs a Z action")
    ctx = mirror_context(sys)
    ns = list(n_range)
    if not ns:
        raise ValueError("empty scan window")
    prod_tab = ctx.product_values()
    tables = dict(zip(ns, _diagonal_values(
        ctx, np.array([ctx.rep_a.of_element((n,)) for n in ns]))))

    labels = labels or [f"element {k}" for k in range(len(test_elements))]
    reports, skipped = [], []
    overall = 0.0
    for c, label in zip(test_elements, labels):
        coef = (c.adjoint() @ c).coords()[ctx.pair_index]
        denom = float(np.sum(coef * prod_tab).real)
        if denom <= degenerate_tol:
            skipped.append(label)
            continue
        rows = []
        sup = 0.0
        for n in ns:
            val = float(np.sum(coef * tables[n]).real)
            ratio = val / denom
            sup = max(sup, ratio)
            rows.append(OrnsteinRow(n=n, delta_value=val, ratio=ratio))
        overall = max(overall, sup)
        reports.append(OrnsteinElementReport(
            element_label=label, denominator=denom, rows=rows, sup_ratio=sup))

    ident = np.eye(ctx.dim_a)
    period = next((p for p in range(1, max(ns) + 1)
                   if operator_norm(ctx.rep_a.of_element((p,)) - ident) < 1e-9), None)
    return OrnsteinScan(reports=reports, period=period, skipped=skipped,
                        sup_ratio=overall)


def scan_compact_disjointness(sys: FiniteSystem, candidates,
                              **solver_kwargs) -> list[dict]:
    """Disjointness of `sys` from each named candidate system.

    A finite corpus scan only; disjointness from every member of a corpus
    proves nothing about the universally quantified statement, and the
    result rows say so.
    """
    rows = []
    for name, cand in candidates:
        ctx = build_tensor_context(sys, cand)
        cert = disjointness_test(ctx, **solver_kwargs)
        rows.append({
            "candidate": name,
            "verdict": cert.verdict,
            "witness_gap": cert.witness_gap,
            "scope": "finite corpus scan; no universal conclusion",
        })
    return rows
