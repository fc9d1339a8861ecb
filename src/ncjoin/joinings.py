"""Joinings of two systems: tangent space, rank verdicts and barrier solves.

A joining is a state ω on A ⊙ B with marginals μ and ν that is invariant
under the diagonal action. It is stored by its values V[i, j] = ω(e_i ⊗ f_j)
on the basis pairs. Each pair is a matrix unit E_rs of one block of the
product algebra ⊕ M_{n_k·n_l}, and ω(E_rs) = ρ[s, r] for the block density
ρ_ω of ω, so V holds exactly the entries of ρ_ω, blockwise transposed. The
constraints are linear in V: trace one, both marginals, and Uaᵀ V Ub = V for
every generator. Positivity of ω is positivity of every density block.

The product state μ⊗ν is a joining with a positive definite density ρ⊗.
Let T be the tangent space: the Hermitian tables that the homogeneous
constraints (trace 0, zero marginals, invariance) map to zero. The
invariant tables are spanned by the products x yᵀ of leg eigenvectors
whose characters multiply to 1, read off each system's cached point
spectrum, as in the paper's disjointness theorem; two small SVDs then take
their Hermitian parts and impose zero marginals. The joining set is the
spectrahedron {ρ⊗ + Σ t_i V_i ⪰ 0} over an orthonormal basis V_i of T. So:

- `disjointness_test` answers "disjoint" exactly when T = {0}: every V ≠ 0
  in T would give the joinings ρ⊗ ± εV. The evidence is the rank gap
  min(δ, σ): δ is the smallest distance ‖χψ − 1‖ from 1 of a product of
  leg characters left unpaired, σ the smallest nonzero singular value of
  the marginal rows on the invariant Hermitian tables. Otherwise the
  witness is the optimum along the first basis direction that is not
  orthogonal to T, and the verdict is "not_disjoint".
- `find_joining` maximizes a linear objective with a log-barrier Newton
  path from t = 0 and returns [lower, upper]: `lower` is the value of a
  joining that passes the battery, `upper` a bound certified by a dual
  table with PSD blocks.

A solve whose gap upper − lower is still above its width when its Newton
steps end, or a rank gap too close to rounding to call, answers
"inconclusive"; no verdict is rounded either way.

The diagonal state of a system with its mirror and its shifts Δ_n are GNS
quantities: their value tables are Uᵀ·M·T in closed form, from the
system's cached GNS and mirror data (`_diagonal_values`).

A context holds the two systems and the layout of their product algebra
only: every reader takes GNS data from `ctx.A.gns` and `ctx.B.gns` and the
state values μ(e_i) from `ctx.A.state.values`, each built once per system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockStructure,
    FiniteSystem,
    _adjoints,
    _eigvalsh,
    _inv_cholesky,
    _operator_norms,
    operator_norm,
    require_valid,
)
from .errors import (
    DimensionMismatchError,
    NcjoinError,
    NonJoiningError,
    UnsupportedGroupError,
)

DEFAULT_MAX_ITER = 500    # Newton steps of one barrier solve
DEFAULT_WIDTH = 1e-6      # a solve ends when upper − lower ≤ width
CONSTRUCTOR_RESIDUAL_TOL = 1e-8
# a rank gap or a projection onto T below this is too close to rounding to call
_RANK_GAP_MIN = 1e-8


@dataclass
class TensorContext:
    """Two systems and the product algebra A ⊙ B in which they are joined.

    The product algebra has one block per pair of blocks; basis pair
    e_i ⊗ f_j is its matrix unit pair_index[i, j]. `blocks` groups the
    product blocks by size N, each group an (m, N, N) array of the flat
    positions i·dim_b + j of the block's matrix units in a value table.
    `hermitian_positions` lists the flat positions of the diagonal units
    and of the units above the diagonal and their adjoints, block by block.
    These depend only on the two block structures and are shared by every
    context over them.
    """

    A: FiniteSystem
    B: FiniteSystem
    structure: BlockStructure
    pair_index: np.ndarray   # (dA, dB) -> canonical index in the product basis
    blocks: list[np.ndarray]
    hermitian_positions: tuple[np.ndarray, np.ndarray, np.ndarray]   # diagonal, upper, lower

    @property
    def dim_a(self) -> int:
        return self.A.dimension

    @property
    def dim_b(self) -> int:
        return self.B.dimension

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def basis_pair(self, i: int, j: int) -> AlgebraElement:
        """The element e_i ⊗ f_j of the product algebra."""
        if not (0 <= i < self.dim_a and 0 <= j < self.dim_b):
            raise IndexError(f"basis pair ({i}, {j}) out of range "
                             f"0..{self.dim_a - 1} × 0..{self.dim_b - 1}")
        return self.structure.basis_element(int(self.pair_index[i, j]))

    def tensor_element(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        """a ⊗ b: its coordinate at pair_index[i, j] is a_i·b_j."""
        v = np.empty(self.dim, dtype=complex)
        v[self.pair_index] = np.outer(a.coords(), b.coords())
        return AlgebraElement.of_vector(self.structure, v)

    def product_values(self) -> np.ndarray:
        return np.outer(self.A.state.values, self.B.state.values)


@functools.lru_cache(maxsize=64)
def _product_layout(sizes_a: tuple[int, ...], sizes_b: tuple[int, ...]):
    """(structure, pair_index, blocks, hermitian_positions) of A ⊙ B, one per
    pair of block-size tuples; the arrays are shared, so they are read-only."""
    sa, sb = BlockStructure(sizes_a), BlockStructure(sizes_b)
    structure = BlockStructure(tuple(na * nb for na in sizes_a for nb in sizes_b))
    # e_i ⊗ f_j is the unit (ra·nb + rb, ca·nb + cb) of product block ka·mB + kb
    ka, ra, ca = (x[:, None] for x in sa.addresses())
    kb, rb, cb = sb.addresses()
    nb = np.array(sizes_b)[kb]
    k = ka * sb.num_blocks + kb
    pair_index = (np.array(structure.offsets())[k]
                  + (ra * nb + rb) * np.array(structure.block_sizes)[k] + ca * nb + cb)
    position = np.empty(structure.dimension, dtype=int)   # canonical index -> flat position
    position[pair_index.reshape(-1)] = np.arange(structure.dimension)
    blocks = [position[g.units].reshape(-1, g.size, g.size) for g in structure.size_groups]
    _, r, c = structure.addresses()
    upper = np.flatnonzero(r < c)
    hermitian = tuple(position[q] for q in (
        np.flatnonzero(r == c), upper, structure.adjoint_indices[upper]))
    for shared in (pair_index, *blocks, *hermitian):
        shared.flags.writeable = False
    return structure, pair_index, blocks, hermitian


def build_tensor_context(A: FiniteSystem, B: FiniteSystem) -> TensorContext:
    """The product context of two systems; builds no GNS data."""
    require_valid(A)   # an invalid leg raises before the group check
    require_valid(B)
    if (A.group.kind, A.group.k, A.group.m) != (B.group.kind, B.group.k, B.group.m):
        raise UnsupportedGroupError(
            f"systems act by different groups: {A.group} vs {B.group}")
    structure, pair_index, blocks, hermitian = _product_layout(
        A.structure.block_sizes, B.structure.block_sizes)
    return TensorContext(A=A, B=B, structure=structure, pair_index=pair_index, blocks=blocks,
                         hermitian_positions=hermitian)


def _hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*)/2 for each matrix of a stack."""
    return (X + _adjoints(X)) / 2


def joining_residuals(ctx: TensorContext, values) -> dict:
    """Residuals of the joining constraint battery for a candidate value table.

    A 1×1 density block is one entry: its Hermitian part is the real part,
    its eigenvalue too, and its skew part 2i times the imaginary part."""
    z = np.asarray(values, dtype=complex).reshape(-1)
    zh = np.empty_like(z)
    herm, psd_floor = 0.0, math.inf
    for idx in ctx.blocks:
        if idx.shape[-1] == 1:
            flat = idx.reshape(-1)
            x = z[flat]
            zh[flat] = x.real
            herm = max(herm, 2 * float(np.abs(x.imag).max()))
            psd_floor = min(psd_floor, float(x.real.min()))
            continue
        X = z[idx]
        Xh = _hermitian_part(X)
        zh[idx] = Xh
        herm = max(herm, float(_operator_norms(2 * (X - Xh)).max()))   # ‖X − X*‖
        psd_floor = min(psd_floor, float(_eigvalsh(Xh).min()))
    V = zh.reshape(ctx.dim_a, ctx.dim_b)
    ua = ctx.A.structure.identity().coords()
    ub = ctx.B.structure.identity().coords()
    tr = ua @ V @ ub
    inv = max((float(np.max(np.abs(Ua.T @ V @ Ub - V)))
               for Ua, Ub in zip(ctx.A.generator_matrices, ctx.B.generator_matrices)),
              default=0.0)
    return {
        "hermiticity": herm,
        "psd_floor": psd_floor,
        "trace": abs(tr.real - 1.0) + abs(tr.imag),
        "marginal_a": float(np.max(np.abs(V @ ub - ctx.A.state.values))),
        "marginal_b": float(np.max(np.abs(ua @ V - ctx.B.state.values))),
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
    return ctx.A.gns[0].gram[ctx.A.structure.adjoint_indices]


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
    values = _diagonal_values(ctx, sys.gns[1].of_elements([(n,)])[0])
    return joining_from_values(ctx, values, label=f"graph:{n}")


# ---------------------------------------------------------------------------
# tangent space and barrier solver
#
# Value tables are handled as flat complex vectors z of length dim_a·dim_b.
# The real inner product ⟨x, y⟩ = Re Σ conj(x_q) y_q is the Frobenius inner
# product of the density blocks, and an objective with value coefficients k
# takes the value Re Σ k_q z_q = ⟨conj(k), z⟩.


@dataclass
class _TangentSpace:
    """T: the Hermitian tables z with K z = 0, the directions along which a
    joining can leave the product state."""

    basis: np.ndarray   # (dim T, dim): real-orthonormal rows, each a flat value table
    rank_gap: float     # min(δ, σ), see `_tangent_space`


def _tangent_space(ctx: TensorContext) -> _TangentSpace:
    """T from the joint eigenvectors of the two legs (`FiniteSystem.spectrum`).

    With q a joint eigenvector of the orthonormal-coordinate unitaries and
    C the GNS Cholesky factor, x = Cᵀ·conj(q) has Uᵀx = χx (`Spectrum.values`
    keeps these per system). For such x of A and y of B, Uaᵀ(x yᵀ)Ub =
    χψ·x yᵀ, and the tables x yᵀ span all tables, so the invariant ones are
    spanned by the pairs with χψ = 1 for every generator. A pair counts as
    one when ‖χψ − 1‖ is at the numerical-rank cut, 2√k · dim · machine
    epsilon for k generators. Two small SVDs give T: one takes the
    Hermitian parts of the paired tables and of i times them, in
    coordinates on the real-orthonormal basis of the Hermitian tables (the
    diagonal units, (E_ab + E_ba)/√2 and i(E_ab − E_ba)/√2 for a < b),
    which the gathers of `hermitian_positions` read off; a product whose
    blocks are all 1×1 has diagonal units only. These span a space of
    dimension f, the number of paired pairs; the other imposes zero
    marginals, which imply trace 0.

    The rank gap is min(δ, σ): δ is the smallest ‖χψ − 1‖ over the unpaired
    pairs, σ the smallest nonzero singular value of the marginal rows on
    the invariant Hermitian tables.
    """
    sa, sb = ctx.A.spectrum, ctx.B.spectrum
    dist = np.linalg.norm(sa.chars[:, None, :] * sb.chars[None, :, :] - 1, axis=2)
    eps = np.finfo(float).eps
    paired = dist <= 2 * math.sqrt(sa.chars.shape[1]) * ctx.dim * eps
    delta = float(dist[~paired].min(initial=math.inf))
    i, j = np.nonzero(paired)
    f = len(i)
    G = (sa.values[:, None, i] * sb.values[None, :, j]).reshape(ctx.dim, f)   # column s: x_i y_jᵀ
    diag, upper, lower = ctx.hermitian_positions
    nd, nu = diag.size, upper.size
    # coordinates of the Hermitian parts of the tables G (left) and i·G (right)
    R = np.empty((nd + 2 * nu, 2 * f))
    Gd = G[diag]
    R[:nd, :f], R[:nd, f:] = Gd.real, -Gd.imag
    h = 1 / math.sqrt(2)
    if nu:
        Gs, Ga = h * (G[upper] + G[lower]), h * (G[upper] - G[lower])
        R[nd:nd + nu, :f], R[nd:nd + nu, f:] = Gs.real, -Gs.imag
        R[nd + nu:, :f], R[nd + nu:, f:] = Ga.imag, Ga.real
    E = np.linalg.svd(R, full_matrices=False)[0][:, :f]
    tables = np.empty((ctx.dim, f), dtype=complex)
    tables[diag] = E[:nd]
    if nu:
        tables[upper] = h * (E[nd:nd + nu] + 1j * E[nd + nu:])
        tables[lower] = tables[upper].conj()
    V = tables.reshape(ctx.dim_a, ctx.dim_b, f)
    ua = ctx.A.structure.identity().coords()
    ub = ctx.B.structure.identity().coords()
    marg = np.vstack([ub @ V, (ua @ V.reshape(ctx.dim_a, -1)).reshape(ctx.dim_b, f)])
    M = np.vstack([marg.real, marg.imag])
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > s[0] * max(M.shape) * eps))
    null = vt[rank:]
    basis = null @ tables.T
    return _TangentSpace(basis=basis, rank_gap=min(delta, float(s[rank - 1])))


def _psd_floor(ctx: TensorContext, z: np.ndarray) -> float:
    """Smallest eigenvalue over the Hermitian parts of the density blocks of z;
    a 1×1 block's is its real part."""
    return min(float(z[idx.reshape(-1)].real.min()) if idx.shape[-1] == 1 else
               float(_eigvalsh(_hermitian_part(z[idx])).min()) for idx in ctx.blocks)


def _block_stacks(ctx: TensorContext, basis: np.ndarray, prod: np.ndarray):
    """Per block size N: (N, positions, the tangent basis and the product
    density on those blocks, the flat identity stack that reads off traces).

    Built once per solve, so that a Newton step forms each iterate's blocks
    with one matmul per block size and indexes no flat table. The 1×1
    blocks are one group of diagonal entries, real on Hermitian tables:
    their positions, basis and density are flat real vectors, and their
    traces are sums.
    """
    stacks = []
    for idx in ctx.blocks:
        n = idx.shape[-1]
        if n == 1:
            flat = idx.reshape(-1)
            stacks.append((1, flat, basis[:, flat].real, prod[flat].real, None))
        else:
            stacks.append((n, idx, basis[:, idx], prod[idx],
                           np.tile(np.eye(n).ravel(), len(idx))))
    return stacks


def _newton_terms(stacks, x: np.ndarray):
    """Gradient and Hessian of −log det F in tangent coordinates, at the
    iterate F = ρ⊗ + Σ x_i V_i.

    With F = L L* per block and W_i = L⁻¹ V_i L⁻*, the gradient of
    log det F(t) is tr W_i and the Hessian of −log det F(t) is ⟨W_i, W_j⟩.
    One batched Cholesky per block size above 1 (`_inv_cholesky`); on the
    1×1 blocks F is a vector and W_i = V_i/F. Raises LinAlgError when a
    block of F is not positive definite. Each part keeps the block size,
    the positions, L⁻¹ (F on the 1×1 blocks) and the rows W_i, flat.
    """
    r = len(x)
    grad, hess, parts = np.zeros(r), np.zeros((r, r)), []
    for n, idx, B, P, ident in stacks:
        if n == 1:
            F = P + x @ B
            if not (F > 0).all():
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            W = B / F
            grad += W.sum(axis=1)
            hess += W @ W.T
            parts.append((1, idx, F, W))
            continue
        Linv = _inv_cholesky(P + (x @ B.reshape(r, -1)).reshape(P.shape))
        W = (Linv @ B @ Linv.conj().swapaxes(-1, -2)).reshape(r, -1)
        grad += (W @ ident).real
        hess += (W.conj() @ W.T).real
        parts.append((n, idx, Linv, W))
    return grad, hess, parts


def _newton_solve(hess: np.ndarray, parts, rhs: np.ndarray) -> np.ndarray:
    """H⁻¹·rhs by LU; where rounding near the boundary leaves H = A Aᵀ singular
    to LU (A: the rows W_i of `_newton_terms`, real and imaginary parts side by
    side), by the factor R of Aᵀ = QR instead: H = RᵀR and cond R = √cond H."""
    try:
        return np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError:
        A = np.concatenate([W for *_, W in parts], axis=1)
        R = np.linalg.qr(np.concatenate([A.real, A.imag], axis=1).T, mode="r")
        return np.linalg.solve(R, np.linalg.solve(R.T, rhs))


def _newton_dual(ctx: TensorContext, basis: np.ndarray, g: np.ndarray, parts,
                 dt: np.ndarray, eta: float) -> np.ndarray:
    """The dual point of a Newton step, as a flat table.

    Z = F⁻¹(F − ΔF)F⁻¹/η with ΔF = Σ dt_i V_i is F⁻¹/η moved onto the dual
    equalities ⟨c + Z, V_i⟩ = 0 in the barrier's metric; a last Euclidean
    projection removes what the linear solve left of their residual. On the
    1×1 blocks Z = (1 − ΔF/F)/(η·F).
    """
    z = np.empty(ctx.dim, dtype=complex)
    for n, idx, L, W in parts:
        if n == 1:
            z[idx] = (1 - dt @ W) / (eta * L)
            continue
        step = (dt @ W).reshape(L.shape)   # L⁻¹ ΔF L⁻*
        Z = L.conj().swapaxes(-1, -2) @ (L - step @ L) / eta
        z[idx] = _hermitian_part(Z)
    return z - basis.T @ (g + (basis @ z.conj()).real)


def _step_eigenvalues(parts, dt: np.ndarray) -> np.ndarray:
    """Eigenvalues of L⁻¹ΔF L⁻* over all blocks; ΔF/F on the 1×1 blocks."""
    return np.concatenate([dt @ W if n == 1 else _eigvalsh((dt @ W).reshape(L.shape)).ravel()
                           for n, _, L, W in parts])


def _line_search(lams: np.ndarray, slope: float) -> float:
    """Minimizer of ψ(s) = −slope·s − Σ log(1 + s·λ_j) over 0 < s < −1/min λ.

    With λ_j the eigenvalues of L⁻¹ΔF L⁻* over all blocks, ψ is the barrier
    objective along a Newton direction, up to a constant; it is convex and
    tends to +∞ where F + s·ΔF becomes singular, at the pole −1/min λ.
    Safeguarded Newton on φ(s) = (pole − s)·ψ′(s), which has the sign of ψ′
    but no pole, so a minimizer close to the pole is reached without first
    bisecting towards it.
    """
    if lams.min() >= 0:   # ΔF ⪰ 0 with trace 0: a zero step
        return 1.0
    pole = -1 / lams.min()
    lo, hi = 0.0, pole
    s = min(1.0, hi / 2)
    for _ in range(50):
        q = lams / (1 + s * lams)
        d1 = -slope - float(q.sum())           # ψ′(s)
        lo, hi = (s, hi) if d1 < 0 else (lo, s)
        dphi = (pole - s) * float(q @ q) - d1   # φ′(s), with ψ″(s) = Σ q²
        nxt = s - (pole - s) * d1 / dphi if dphi > 0 else math.nan
        nxt = nxt if lo <= nxt <= hi else (lo + hi) / 2   # bisect, also for NaN
        if abs(nxt - s) <= 1e-6 * s:
            return nxt
        s = nxt
    return s


# the factor by which η grows once the Newton decrement is below 1
_ETA_GROWTH = 30.0


@dataclass
class SolveReport:
    """Outcome of one `find_joining` call.

    With an objective, every joining has value in [lower, upper]. `lower`
    is the value of the returned joining, which passes the battery. `upper`
    is ⟨c + Z, ρ⊗⟩ + √2·‖P_T(c + Z)‖ for the objective's table c and the
    table `dual` = Z, whose blocks are PSD: then ⟨c, ρ⟩ ≤ ⟨c + Z, ρ⟩ for a
    joining ρ, the part of c + Z orthogonal to T is constant on the joining
    set, and two trace-one densities are at most √2 apart.
    """

    converged: bool
    iterations: int                   # Newton steps
    residual: float
    tangent_dim: int = 0
    achieved: float | None = None
    lower: float | None = None
    upper: float | None = None
    dual: np.ndarray | None = None    # certificate of `upper`, as a value table
    dual_floor: float | None = None   # smallest eigenvalue of its blocks
    oracle_calls: int = 0             # barrier solves: 1, or 0 when no solve was needed
    ambiguous_calls: int = 0          # solves that ended with upper − lower > width
    inconclusive: bool = False
    message: str = ""


def _objective(ctx: TensorContext, objective) -> tuple[np.ndarray, float, str]:
    """Value coefficients of the objective's Hermitian part, its largest
    eigenvalue and a label; a basis index pair (i, j) stands for e_i ⊗ f_j."""
    label = "element"
    if isinstance(objective, tuple) and len(objective) == 2:
        label = f"basis({objective[0]},{objective[1]})"
        objective = ctx.basis_pair(*objective)
    if not isinstance(objective, AlgebraElement):
        raise NcjoinError("objective must be an AlgebraElement or a basis index pair")
    if objective.structure.block_sizes != ctx.structure.block_sizes:
        raise DimensionMismatchError(f"objective has blocks {objective.structure.block_sizes}, "
                                     f"A ⊙ B has {ctx.structure.block_sizes}")
    h = 0.5 * (objective + objective.adjoint())
    top = max(float(_eigvalsh(x).max()) for x in h.stacks())
    return h.coords()[ctx.pair_index].reshape(-1), top, label


def _barrier_solve(ctx: TensorContext, tangent: _TangentSpace, k: np.ndarray, top: float,
                   label: str, width: float, max_iter: int, beat_product: bool = False):
    """Maximize Re Σ k_q z_q over the joining set ρ⊗ + Σ t_i V_i ⪰ 0.

    Two certificates need no solve: Z = top·1 − c gives the spectral bound
    `top`, and Z = 0 gives c0 + √2‖g‖ with g = (⟨c, V_i⟩), since joinings
    are trace-one densities and lie within √2 of the product. When neither
    closes the gap, a log-barrier Newton path starts at the product state,
    whose density is positive definite, so no phase 1 is needed. Each
    Newton step ends at the exact minimizer of the barrier along its
    direction, strictly inside the joining set. A step with Newton
    decrement below 1 is close to the central path: it offers its dual
    point as a certificate, kept only when it is checked PSD, and the
    barrier weight η grows. With `beat_product` the steps also go on until
    the value exceeds the product's, as a witness must.
    """
    basis = tangent.basis
    prod = ctx.product_values().reshape(-1)
    c = k.conj()
    c0 = float((k @ prod).real)
    g = (basis @ k).real
    ident = ctx.structure.identity().coords()[ctx.pair_index].reshape(-1)   # 1 ⊗ 1
    flat = c0 + math.sqrt(2) * float(np.linalg.norm(g))
    upper, dual = (flat, np.zeros(ctx.dim, dtype=complex)) if flat < top else \
        (top, top * ident - c)
    lower, best = c0, np.zeros(len(basis))
    floor = c0 if beat_product else -math.inf
    steps = solves = 0
    if upper - lower > width or lower <= floor:
        solves = 1
        nu = sum(idx.shape[0] * idx.shape[1] for idx in ctx.blocks)   # barrier parameter
        eta = nu / (upper - c0)
        x = best
        stacks = _block_stacks(ctx, basis, prod)
        try:
            grad, hess, parts = _newton_terms(stacks, x)
            while (upper - lower > width or lower <= floor) and steps < max_iter:
                # dt(η) = η·H⁻¹g + H⁻¹∇ is linear in η: one solve serves both η
                hg, hgrad = _newton_solve(hess, parts, np.array([g, grad]).T).T
                dt = eta * hg + hgrad
                if float(dt @ (eta * g + grad)) < 1:   # squared Newton decrement
                    z = _newton_dual(ctx, basis, g, parts, dt, eta)
                    bound = c0 + float(np.vdot(z, prod).real)
                    if bound < upper and _psd_floor(ctx, z) >= 0:
                        upper, dual = bound, z
                    eta *= _ETA_GROWTH   # close enough to the path: move along it
                    dt = eta * hg + hgrad
                steps += 1
                x = x + _line_search(_step_eigenvalues(parts, dt), eta * float(g @ dt)) * dt
                grad, hess, parts = _newton_terms(stacks, x)
                value = c0 + float(g @ x)   # = Re Σ k_q f_q at f = ρ⊗ + Σ x_i V_i
                if value > lower:
                    lower, best = value, x
        except np.linalg.LinAlgError:
            pass   # rounding stopped the path; the gap decides below
    jm = JoiningMatrix(ctx=ctx, values=(prod + basis.T @ best).reshape(ctx.dim_a, ctx.dim_b),
                       label=label)
    open_gap = upper - lower > width
    trusted = tangent.rank_gap >= _RANK_GAP_MIN
    report = SolveReport(
        converged=not open_gap,
        iterations=steps,
        residual=jm.worst_residual,
        tangent_dim=len(tangent.basis),
        achieved=lower,
        lower=lower,
        upper=upper,
        dual=dual.reshape(ctx.dim_a, ctx.dim_b),
        dual_floor=_psd_floor(ctx, dual),
        oracle_calls=solves,
        ambiguous_calls=int(open_gap),
        inconclusive=open_gap or not trusted,
        message=("gap closed" if not open_gap else
                 "gap still open when the Newton steps ended") +
                ("" if trusted else "; rank gap below rounding, T is uncertain"),
    )
    return jm, report


def _check_solver_options(max_iter: int, width: float):
    if not (max_iter >= 0 and math.isfinite(width) and width > 0):
        raise ValueError(f"need max_iter >= 0 and a finite width > 0, got {max_iter}, {width}")


def find_joining(ctx: TensorContext, objective=None, max_iter: int = DEFAULT_MAX_ITER,
                 width: float = DEFAULT_WIDTH):
    """Feasible joining, optionally maximizing Re ω(c) for a direction c.

    Without an objective the product state is returned (it is always
    feasible). With one, the report brackets the maximum in [lower, upper]
    (see `SolveReport`); it is inconclusive when the gap upper − lower is
    still above `width` after `max_iter` Newton steps.
    """
    _check_solver_options(max_iter, width)
    tangent = _tangent_space(ctx)
    if objective is None:
        prod = product_joining(ctx)
        return prod, SolveReport(converged=True, iterations=0, residual=prod.worst_residual,
                                 tangent_dim=len(tangent.basis),
                                 message="product state is feasible")
    k, top, desc = _objective(ctx, objective)
    jm, report = _barrier_solve(ctx, tangent, k, top, f"solver:{desc}", width, max_iter)
    report.message = f"objective {desc}: " + report.message
    return jm, report


@dataclass
class DisjointnessCertificate:
    """Whether the product state is the only joining, with its evidence.

    "disjoint": T = {0}, proved by `min_margin`, the rank gap min(δ, σ) of
    `_tangent_space`. "not_disjoint":
    `witness` is a joining other than the product, `witness_gap` above it
    along `witness_direction`. "inconclusive": the rank gap is below
    rounding, or the witness solve did not close its gap or did not get
    above the product.
    """

    verdict: str                      # disjoint | not_disjoint | inconclusive
    tangent_dim: int
    min_margin: float | None = None   # the rank gap
    max_gap_bound: float | None = None
    witness_direction: tuple | None = None
    witness_gap: float | None = None
    witness: JoiningMatrix | None = None
    directions_scanned: int = 0


def disjointness_test(ctx: TensorContext, max_iter: int = DEFAULT_MAX_ITER,
                      width: float = DEFAULT_WIDTH) -> DisjointnessCertificate:
    """Decide whether the product state is the only joining.

    μ⊗ν is faithful, so its density is positive definite and every V ≠ 0 in
    T gives the joinings μ⊗ν ± εV: the product is the only joining iff
    T = {0}. Otherwise the witness is the first direction w·(e_i ⊗ f_j), in
    (i, j, w) order with w = 1, i, −1, −i, whose Hermitian part is not
    orthogonal to T, maximized by `find_joining`'s solver until its value
    exceeds the product's.
    """
    _check_solver_options(max_iter, width)
    tangent = _tangent_space(ctx)
    cert = DisjointnessCertificate(verdict="inconclusive", tangent_dim=len(tangent.basis),
                                   min_margin=tangent.rank_gap)
    if tangent.rank_gap < _RANK_GAP_MIN:
        return cert
    if len(tangent.basis) == 0:
        cert.verdict, cert.max_gap_bound = "disjoint", 0.0
        cert.directions_scanned = 4 * ctx.dim
        return cert
    for pos in range(4 * ctx.dim):
        (i, j), w = divmod(pos // 4, ctx.dim_b), 1j ** (pos % 4)
        k, top, _ = _objective(ctx, w * ctx.basis_pair(i, j))
        if np.linalg.norm((tangent.basis @ k).real) > _RANK_GAP_MIN:
            break
    else:
        cert.directions_scanned = 4 * ctx.dim
        return cert
    cert.directions_scanned = pos + 1
    witness, report = _barrier_solve(ctx, tangent, k, top, f"witness({i},{j})", width, max_iter,
                                     beat_product=True)
    gap = report.lower - float((k @ ctx.product_values().reshape(-1)).real)
    if not report.inconclusive and gap > 0:
        cert.verdict = "not_disjoint"
        cert.witness_direction = (i, j, w)
        cert.witness_gap = gap
        cert.witness = witness
    return cert


# ---------------------------------------------------------------------------
# conditional expectation, faces, averages, ratio scan


@dataclass
class ConditionalExpectation:
    matrix: np.ndarray            # P*: H_ν -> H_μ in canonical coordinates
    norm: float
    intertwining_residual: float


def conditional_expectation(ctx: TensorContext, joining: JoiningMatrix) -> ConditionalExpectation:
    """Operator P* with ⟨γ_μ(a*), P* γ_ν(b)⟩ = ω(a ⊗ b).

    For a joining this is a contraction intertwining the two unitary
    representations; the product state yields the rank-one map b ↦ ν(b) Ω.
    """
    if residual_magnitude(joining.residuals) > 1e-6:
        raise NonJoiningError(
            f"matrix violates the joining battery: {joining.residuals}")
    X = np.linalg.solve(_state_products(ctx), joining.values)
    ca, cb_inv = ctx.A.gns[0].onb_factor, ctx.B.gns[0].onb_factor_inv
    norm = operator_norm(ca @ X @ cb_inv)
    inter = 0.0
    for Ua, Ub in zip(ctx.A.gns[1].matrices, ctx.B.gns[1].matrices):
        inter = max(inter, operator_norm(ca @ (Ua @ X - X @ Ub) @ cb_inv))
    return ConditionalExpectation(matrix=X, norm=norm, intertwining_residual=inter)


def joining_face_dimension(ctx: TensorContext, joining: JoiningMatrix) -> int:
    """Dimension of the face of the joining set that has the joining inside it.

    The face is {t : P⊥·V(t) = 0 on every density block}, with V(t) = Σ t_i V_i
    a tangent direction and P⊥ the projection onto the kernel of that block
    of the joining's density: a Hermitian perturbation that vanishes on the
    kernel keeps its range inside the range of the density. The kernel of a
    block of size N is spanned by its eigenvectors with eigenvalue at most
    N·1e-7. Zero means the state is an extreme point of the joining set.
    """
    basis = _tangent_space(ctx).basis
    if not len(basis):
        return 0
    images = []
    z = joining.values.reshape(-1)
    for idx in ctx.blocks:
        vals, vecs = np.linalg.eigh(_hermitian_part(z[idx]))
        kernel = vecs * (vals <= 1e-7 * idx.shape[-1])[:, None, :]
        images.append((kernel.conj().swapaxes(-1, -2) @ basis[:, idx]).reshape(len(basis), -1))
    M = np.concatenate(images, axis=1)
    s = np.linalg.svd(np.concatenate([M.real, M.imag], axis=1), compute_uv=False)
    return len(basis) - int(np.sum(s > 1e-8))


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
    acc = _diagonal_values(ctx, sys.gns[1].folner_mean(sys.group, n))
    deviation = float(np.max(np.abs(acc - ctx.product_values())))
    return CesaroDiagonalResult(values=acc, deviation=deviation,
                                ergodic=len(sys.spectrum.fixed) == 1)


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


def ornstein_ratio_scan(ctx: TensorContext, test_elements, n_range,
                        labels=None) -> OrnsteinScan:
    """Table of Δ_n(c*c) / (μ ⊙ μ̃)(c*c) over a window of shifts.

    `ctx` is `mirror_context(sys)`, the tensor algebra of the system
    `ctx.A` with its promoted mirror, in which the elements live.
    Nontrivial finite systems recur instead of mixing, so the scan also
    reports the recurrence period of the dynamics when one exists within
    the window. Degenerate elements (denominator at most 1e-12) are skipped
    with a notice.
    """
    if ctx.A.group.kind != "Z":
        raise UnsupportedGroupError("the ratio scan needs a Z action")
    ns = list(n_range)
    if not ns:
        raise ValueError("empty scan window")
    # one power table serves the shifted tables and the period search
    lo = min(min(ns), 1)
    powers = ctx.A.gns[1].powers(0, lo, max(ns))
    tables = _diagonal_values(ctx, powers[np.array(ns) - lo]).reshape(len(ns), -1)

    # value tables of every c*c: the density blocks of c, squared as Xᴴ·X per block size
    labels = labels or [f"element {k}" for k in range(len(test_elements))]
    coords = np.array([c.coords()[ctx.pair_index] for c in test_elements],
                      dtype=complex).reshape(len(test_elements), ctx.dim)
    squares = np.zeros_like(coords)
    for idx in ctx.blocks:
        X = coords[:, idx]
        squares[:, idx] = X.conj().swapaxes(-1, -2) @ X
    denoms = (squares @ ctx.product_values().reshape(-1)).real
    values = (squares @ tables.T).real

    reports, skipped = [], []
    overall = 0.0
    for label, denom, vals in zip(labels, denoms.tolist(), values.tolist()):
        if denom <= 1e-12:
            skipped.append(label)
            continue
        rows = [OrnsteinRow(n=n, delta_value=val, ratio=val / denom) for n, val in zip(ns, vals)]
        sup = max(0.0, max(row.ratio for row in rows))
        overall = max(overall, sup)
        reports.append(OrnsteinElementReport(
            element_label=label, denominator=denom, rows=rows, sup_ratio=sup))

    # the first p with ‖U^p − 1‖ < 1e-9, from one batched norm over the powers 1..max
    recur = _operator_norms(powers[1 - lo:] - np.eye(ctx.dim_a)) < 1e-9
    period = int(np.argmax(recur)) + 1 if recur.any() else None
    return OrnsteinScan(reports=reports, period=period, skipped=skipped,
                        sup_ratio=overall)


def scan_compact_disjointness(sys: FiniteSystem, candidates) -> list[dict]:
    """Disjointness of `sys` from each named candidate system.

    A finite corpus scan only; disjointness from every member of a corpus
    proves nothing about the universally quantified statement, and the
    result rows say so.
    """
    rows = []
    for name, cand in candidates:
        ctx = build_tensor_context(sys, cand)
        cert = disjointness_test(ctx)
        rows.append({
            "candidate": name,
            "verdict": cert.verdict,
            "witness_gap": cert.witness_gap,
            "scope": "finite corpus scan; no universal conclusion",
        })
    return rows
