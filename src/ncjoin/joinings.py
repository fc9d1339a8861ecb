"""Joinings of two systems: tangent space, disjointness verdicts and barrier solves.

A joining is a state ω on A ⊙ B with marginals μ and ν that is invariant
under the diagonal action. It is stored by its values V[i, j] = ω(e_i ⊗ f_j)
on the basis pairs. Each pair is a matrix unit E_rs of one block of the
product algebra ⊕ M_{n_k·n_l}, and ω(E_rs) = ρ[s, r] for the block density
ρ_ω of ω, so V holds exactly the entries of ρ_ω, blockwise transposed. The
constraints are linear in V: trace one, both marginals, and Uaᵀ V Ub = V for
every generator. Positivity of ω is positivity of every density block.

The product state μ⊗ν is a joining with a positive definite density ρ⊗.
Let T be the tangent space: the Hermitian tables that the homogeneous
constraints (trace 0, zero marginals, invariance) map to zero. Its
dimension is P − m_A(1) − m_B(1) + 1 for P pairs of leg eigenvectors whose
characters multiply to 1 and fixed-space dimensions m(1), as in the
paper's disjointness theorem (`_tangent_space`); a context builds it once
(`TensorContext.tangent`). The joining set is the spectrahedron
{ρ⊗ + Σ t_i V_i ⪰ 0} over an orthonormal basis V_i of T. So:

- `disjointness_test` answers "disjoint" exactly when T = {0}: every V ≠ 0
  in T would give the joinings ρ⊗ ± εV. The evidence is δ, the smallest
  ‖χψ − 1‖ over the pairs of leg characters left unpaired. Otherwise the
  witness is the optimum along the first basis direction that is not
  orthogonal to T, and the verdict is "not_disjoint".
- `find_joining` maximizes a linear objective with a log-barrier Newton
  path from t = 0 and returns [lower, upper]: `lower` is the value of a
  joining that passes the battery, `upper` a bound certified by a dual
  table with PSD blocks.

A solve whose gap upper − lower is still above its width when its Newton
steps end, or a δ too close to rounding to call, answers "inconclusive";
no verdict is rounded either way.

The diagonal state of a system with its mirror and its shifts Δ_n are GNS
quantities: their value tables are Uᵀ·M·T in closed form, from the
system's cached GNS and mirror data (`_diagonal_values`).

An element c of A ⊙ B is its coefficient table: the (dim_a, dim_b) array
with c[i, j] the coefficient of e_i ⊗ f_j, so that ω(c) = Σ c[i, j] V[i, j].
`find_joining` takes its objective as such a table, or as a basis pair
(i, j), and `ornstein_ratio_scan` takes a stack of them.

A context holds the two systems and the layout of their product algebra
only: every reader takes the GNS spaces from `ctx.A.gns` and `ctx.B.gns`,
the unitaries from `generator_matrices` and the state values μ(e_i) from
`ctx.A.state.values`, each built once per system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BlockStructure,
    FiniteSystem,
    _adjoints,
    _eigvalsh,
    _inv_cholesky,
    _operator_norms,
    operator_norm,
    require_valid,
)
from .errors import InputFormatError, NcjoinError
from .gns import folner_mean, powers

DEFAULT_MAX_ITER = 500    # Newton steps of one barrier solve
DEFAULT_WIDTH = 1e-6      # a solve ends when upper − lower ≤ width
CONSTRUCTOR_RESIDUAL_TOL = 1e-8
# a pair gap δ or a projection onto T below this is too close to rounding to call
_RANK_GAP_MIN = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass
class TensorContext:
    """Two systems and the layout of the product algebra A ⊙ B in which they
    are joined.

    The product algebra has one block per pair of blocks, and each basis
    pair e_i ⊗ f_j is one of its matrix units. `blocks` groups the product
    blocks by size N, each group an (m, N, N) array of the flat positions
    i·dim_b + j of the block's matrix units in a value or coefficient table.
    `hermitian_positions` lists the flat positions of the diagonal units
    and of the units above the diagonal and their adjoints, block by block.
    These depend only on the two block structures and are shared by every
    context over them.
    """

    A: FiniteSystem
    B: FiniteSystem
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

    def product_values(self) -> np.ndarray:
        return np.outer(self.A.state.values, self.B.state.values)

    @functools.cached_property
    def tangent(self) -> _TangentSpace:
        """T at the product state, built on first read (`_tangent_space`)."""
        return _tangent_space(self)


@functools.lru_cache(maxsize=64)
def _product_layout(sizes_a: tuple[int, ...], sizes_b: tuple[int, ...]):
    """(blocks, hermitian_positions) of A ⊙ B, one per pair of block-size
    tuples, read off the product structure; the arrays are shared, so they
    are read-only."""
    sa, sb = BlockStructure(sizes_a), BlockStructure(sizes_b)
    structure = BlockStructure(tuple(na * nb for na in sizes_a for nb in sizes_b))
    # e_i ⊗ f_j is the unit (ra·nb + rb, ca·nb + cb) of product block ka·mB + kb
    ka, ra, ca = (x[:, None] for x in sa.addresses)
    kb, rb, cb = sb.addresses
    nb = np.array(sizes_b)[kb]
    k = ka * sb.num_blocks + kb
    pair_index = (np.array(structure.offsets)[k]
                  + (ra * nb + rb) * np.array(structure.block_sizes)[k] + ca * nb + cb)
    position = np.empty(structure.dimension, dtype=int)   # canonical index -> flat position
    position[pair_index.reshape(-1)] = np.arange(structure.dimension)
    blocks = [position[g.units].reshape(-1, g.size, g.size) for g in structure.size_groups]
    _, r, c = structure.addresses
    upper = np.flatnonzero(r < c)
    hermitian = tuple(position[q] for q in (
        np.flatnonzero(r == c), upper, structure.adjoint_indices[upper]))
    for shared in (*blocks, *hermitian):
        shared.flags.writeable = False
    return blocks, hermitian


def build_tensor_context(A: FiniteSystem, B: FiniteSystem) -> TensorContext:
    """The product context of two systems; builds no GNS data."""
    require_valid(A)   # an invalid leg raises before the group check
    require_valid(B)
    if A.group != B.group:
        raise InputFormatError(
            f"systems act by different groups: {A.group} vs {B.group}")
    blocks, hermitian = _product_layout(A.structure.block_sizes, B.structure.block_sizes)
    return TensorContext(A=A, B=B, blocks=blocks, hermitian_positions=hermitian)


def _hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*)/2 for each matrix of a stack."""
    return (X + _adjoints(X)) / 2


def joining_residuals(ctx: TensorContext, values) -> dict:
    """Residuals of the joining constraint battery for a candidate value table;
    a 1×1 block z has ‖z − z̄‖ = 2|Im z| and Hermitian part Re z exactly."""
    z = np.asarray(values, dtype=complex).reshape(-1)
    zh = np.empty_like(z)
    herm, psd_floor = 0.0, math.inf
    for idx in ctx.blocks:
        if idx.shape[-1] == 1:
            flat = idx.reshape(-1)
            x = z[flat]
            zh[flat] = xh = x.real + 0.0   # (z + z̄)/2, whose real part is never −0.0
            herm = max(herm, 2 * float(abs(x.imag).max()))
            psd_floor = min(psd_floor, float(xh.min()))
            continue
        X = z[idx]
        Xh = _hermitian_part(X)
        zh[idx] = Xh
        herm = max(herm, float(_operator_norms(2 * (X - Xh)).max()))   # ‖X − X*‖
        psd_floor = min(psd_floor, float(_eigvalsh(Xh).min()))
    V = zh.reshape(ctx.dim_a, ctx.dim_b)
    ua = ctx.A.structure._identity_coords
    ub = ctx.B.structure._identity_coords
    tr = ua @ V @ ub
    inv = max((float(abs(Ua.T @ V @ Ub - V).max())
               for Ua, Ub in zip(ctx.A.generator_matrices, ctx.B.generator_matrices)),
              default=0.0)
    return {
        "hermiticity": herm,
        "psd_floor": psd_floor,
        "trace": abs(tr.real - 1.0) + abs(tr.imag),
        "marginal_a": float(abs(V @ ub - ctx.A.state.values).max()),
        "marginal_b": float(abs(ua @ V - ctx.B.state.values).max()),
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
    residuals: dict = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.residuals = joining_residuals(self.ctx, self.values)


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
    return ctx.A.gns.gram[ctx.A.structure.adjoint_indices]


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
        raise InputFormatError("graph joinings need a Z action")
    ctx = mirror_context(sys)
    values = _diagonal_values(ctx, powers(sys.generator_matrices[0], n, n)[0])
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

    basis: np.ndarray          # (dim T, dim): real-orthonormal rows, each a flat value table
    pair_gap: float | None     # δ, see `_tangent_space`

    @property
    def trusted(self) -> bool:
        """No pair was left out of T within rounding of 1."""
        return self.pair_gap is None or self.pair_gap >= _RANK_GAP_MIN


def _tangent_space(ctx: TensorContext) -> _TangentSpace:
    """T from the joint eigenvectors of the two legs (`FiniteSystem.spectrum`).

    With q a joint eigenvector of the orthonormal-coordinate unitaries and C
    the GNS Cholesky factor, x = Cᵀ·conj(q) has Uᵀx = χx (`Spectrum.values`).
    For such x of A and y of B, Uaᵀ(x yᵀ)Ub = χψ·x yᵀ, and these tables form
    a basis, so the invariant tables are spanned by the P pairs with χψ = 1
    for every generator: ‖χψ − 1‖ at the rounding cut 2√k·dim·ε for k
    generators.

    dim T = P − m_A(1) − m_B(1) + 1, m(1) the size of a leg's fixed class.
    As x_i = ⟨q, γ(e_i)⟩, the marginals of x yᵀ are ⟨q', Ω_B⟩·x and
    ⟨q, Ω_A⟩·y up to scale, q' the vector of y. Each leg's fixed class is
    rotated so that one column is Ω (`Spectrum.fixed_basis`) and the others
    are orthogonal to it, so a paired table carries a marginal only in
    Ω_A's row or Ω_B's column. The marginals of those m_A(1) + m_B(1) − 1
    tables are linearly independent, since the x are and the y are, so the
    other f = P − m_A(1) − m_B(1) + 1 pairs span the zero-marginal invariant
    tables (zero marginals imply trace 0). With f = 0, T = {0} and no SVD
    is taken. These tables are closed under the adjoint ω ↦ ω*, so their
    Hermitian ones have real dimension f and are spanned by the Hermitian
    parts of the tables and of i times them. The first f left singular
    vectors of those parts, in coordinates on the real-orthonormal
    Hermitian basis read off by `hermitian_positions` (diagonal units,
    (E_ab + E_ba)/√2 and i(E_ab − E_ba)/√2 for a < b; only diagonal units
    when every block is 1×1), are an orthonormal basis of T.

    δ is the smallest ‖χψ − 1‖ over the unpaired pairs, None when every
    pair is paired, so that no rounding decision was made.
    """
    sa, sb = ctx.A.spectrum, ctx.B.spectrum
    d = sa.chars[:, None, :] * sb.chars[None, :, :] - 1
    dist = np.sqrt(np.add.reduce((d.conj() * d).real, axis=2))   # as `np.linalg.norm`
    paired = dist <= 2 * math.sqrt(sa.chars.shape[1]) * ctx.dim * _EPS
    delta = None if paired.all() else float(dist[~paired].min())
    paired[sa.fixed[0], :] = False   # the pairs that carry a marginal
    paired[:, sb.fixed[0]] = False
    i, j = np.nonzero(paired)
    f = len(i)
    if not f:
        return _TangentSpace(basis=np.empty((0, ctx.dim), dtype=complex), pair_gap=delta)
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
    E = np.linalg.svd(R, full_matrices=False)[0][:, :f].T
    basis = np.empty((f, ctx.dim), dtype=complex)
    basis[:, diag] = E[:, :nd]
    if nu:
        basis[:, upper] = h * (E[:, nd:nd + nu] + 1j * E[:, nd + nu:])
        basis[:, lower] = basis[:, upper].conj()
    basis.flags.writeable = False
    return _TangentSpace(basis=basis, pair_gap=delta)


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


def _factors(stacks, x: np.ndarray) -> list[np.ndarray]:
    """The factor of each block size of the iterate F = ρ⊗ + Σ x_i V_i: L⁻¹
    for F = L L*, by one batched Cholesky (`_inv_cholesky`), and F itself, a
    vector, on the 1×1 blocks. Raises LinAlgError when a block of F is not
    positive definite."""
    factors = []
    for n, _, B, P, _ in stacks:
        if n == 1:
            F = P + x @ B
            if not (F > 0).all():
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            factors.append(F)
        else:
            factors.append(_inv_cholesky(P + (x @ B.reshape(len(x), -1)).reshape(P.shape)))
    return factors


def _derivatives(stacks, factors):
    """Gradient and Hessian of −log det F in tangent coordinates, from the
    `_factors` of the iterate F.

    With F = L L* per block and W_i = L⁻¹ V_i L⁻*, the gradient of
    log det F(t) is tr W_i and the Hessian of −log det F(t) is ⟨W_i, W_j⟩;
    on the 1×1 blocks W_i = V_i/F. Each part keeps the block size, the
    positions, the factor and the rows W_i, flat.
    """
    r = len(stacks[0][2])   # the tangent dimension: rows of each basis stack
    grad, hess, parts = np.zeros(r), np.zeros((r, r)), []
    for (n, idx, B, _, ident), L in zip(stacks, factors):
        if n == 1:
            W = B / L
            grad += W.sum(axis=1)
            hess += W @ W.T
        else:
            W = (L @ B @ L.conj().swapaxes(-1, -2)).reshape(r, -1)
            grad += (W @ ident).real
            hess += (W.conj() @ W.T).real
        parts.append((n, idx, L, W))
    return grad, hess, parts


def _newton_solve(hess: np.ndarray, parts, rhs: np.ndarray) -> np.ndarray:
    """H⁻¹·rhs by LU; where rounding near the boundary leaves H = A Aᵀ singular
    to LU (A: the rows W_i of `_derivatives`, real and imaginary parts side by
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
    lams = [dt @ W if n == 1 else _eigvalsh((dt @ W).reshape(L.shape)).ravel()
            for n, _, L, W in parts]
    return lams[0] if len(lams) == 1 else np.concatenate(lams)


def _line_search(lams: np.ndarray, slope: float) -> float:
    """Minimizer of ψ(s) = −slope·s − Σ log(1 + s·λ_j) over 0 < s < −1/min λ.

    With λ_j the eigenvalues of L⁻¹ΔF L⁻* over all blocks, ψ is the barrier
    objective along a Newton direction, up to a constant; it is convex and
    tends to +∞ where F + s·ΔF becomes singular, at the pole −1/min λ.
    Safeguarded Newton on φ(s) = (pole − s)·ψ′(s), which has the sign of ψ′
    but no pole, so a minimizer close to the pole is reached without first
    bisecting towards it.
    """
    least = float(lams.min())
    if least >= 0:   # ΔF ⪰ 0 with trace 0: a zero step
        return 1.0
    pole = -1 / least
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
    is the value of the returned joining, which passes the battery. A joining
    ρ has ⟨c, ρ⟩ ≤ ⟨c + Z, ρ⊗⟩ + √2·‖P_T(c + Z)‖ for the objective's table c
    and the table `dual` = Z, whose blocks are PSD: ⟨c, ρ⟩ ≤ ⟨c + Z, ρ⟩, the
    part of c + Z orthogonal to T is constant on the joining set, and two
    trace-one densities are at most √2 apart. `upper` drops the last term,
    at rounding level, for Z = top·1 − c and the projected Newton duals
    (`_newton_dual`); ROADMAP item 3 bounds it.
    """

    iterations: int                   # Newton steps
    tangent_dim: int = 0
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
    eigenvalue and a label. The objective is a coefficient table, or a basis
    index pair (i, j) for e_i ⊗ f_j."""
    label = "element"
    if isinstance(objective, tuple) and len(objective) == 2:
        i, j = objective
        if not (0 <= i < ctx.dim_a and 0 <= j < ctx.dim_b):
            raise IndexError(f"basis pair ({i}, {j}) out of range "
                             f"0..{ctx.dim_a - 1} × 0..{ctx.dim_b - 1}")
        label, objective = f"basis({i},{j})", np.zeros((ctx.dim_a, ctx.dim_b), dtype=complex)
        objective[i, j] = 1
    if not isinstance(objective, np.ndarray) or objective.shape != (ctx.dim_a, ctx.dim_b):
        raise NcjoinError(f"objective must be a basis index pair or a "
                          f"({ctx.dim_a}, {ctx.dim_b}) coefficient table")
    v = objective.astype(complex).reshape(-1)
    k, tops = np.empty(ctx.dim, dtype=complex), []
    for idx in ctx.blocks:
        X = v[idx]
        k[idx] = H = 0.5 * (X + _adjoints(X))
        tops.append(float(_eigvalsh(H).max()))
    return k, max(tops), label


def _barrier_solve(ctx: TensorContext, k: np.ndarray, top: float, label: str, width: float,
                   max_iter: int, beat_product: bool = False):
    """Maximize Re Σ k_q z_q over the joining set ρ⊗ + Σ t_i V_i ⪰ 0.

    Two certificates need no solve: Z = top·1 − c gives the spectral bound
    `top`, and Z = 0 gives c0 + √2‖g‖ with g = (⟨c, V_i⟩), since joinings
    are trace-one densities and lie within √2 of the product. When neither
    closes the gap, a log-barrier Newton path starts at the product state,
    whose density is positive definite, so no phase 1 is needed. Each
    Newton step ends at the exact minimizer of the barrier along its
    direction, strictly inside the joining set. A step with Newton
    decrement below 1 is centred, close to the central path: it offers its
    dual point as a certificate, kept only when it is checked PSD, and the
    barrier weight η grows ×30.

    On the second centred step in a row η grows at least to 2ν/width,
    where the central-path gap ν/η is half the stopping width (long-step
    path following, Nesterov and Nemirovski 1994). Two centred steps in a
    row show a nearly straight path, on which the long step costs little:
    commutative products close in 3 steps. Taken on the first centred
    step, or at the start, the long step can leave the path too far behind
    to recover within `max_iter` (the Ad(u) M3 regression of the
    differential tests), so a damped step resets the count. With
    `beat_product` the steps also go on until the value exceeds the
    product's, as a witness must.
    """
    basis = ctx.tangent.basis
    prod = ctx.product_values().reshape(-1)
    c0 = float((k @ prod).real)
    g = (basis @ k).real
    flat = c0 + math.sqrt(2) * math.sqrt(g @ g)   # ‖g‖ as `np.linalg.norm` takes it
    if flat < top:
        upper, dual = flat, np.zeros(ctx.dim, dtype=complex)
    else:   # Z = top·(1 ⊗ 1) − c
        ident = np.outer(ctx.A.structure._identity_coords, ctx.B.structure._identity_coords)
        upper, dual = top, top * ident.reshape(-1) - k.conj()
    dual_floor = None   # the floor of `dual`, taken when a dual is accepted
    lower, best = c0, np.zeros(len(basis))
    floor = c0 if beat_product else -math.inf
    steps = solves = 0
    if upper - lower > width or lower <= floor:
        solves = 1
        nu = sum(idx.shape[0] * idx.shape[1] for idx in ctx.blocks)   # barrier parameter
        eta = nu / (upper - c0)
        x = best
        centred = 0   # consecutive steps that arrived centred
        stacks = _block_stacks(ctx, basis, prod)
        try:
            factors = _factors(stacks, x)
            while (upper - lower > width or lower <= floor) and steps < max_iter:
                grad, hess, parts = _derivatives(stacks, factors)
                # dt(η) = η·H⁻¹g + H⁻¹∇ is linear in η: one solve serves both η
                hg, hgrad = _newton_solve(hess, parts, np.array([g, grad]).T).T
                dt = eta * hg + hgrad
                # squared Newton decrement below 1: a centred step
                centred = centred + 1 if float(dt @ (eta * g + grad)) < 1 else 0
                if centred:
                    z = _newton_dual(ctx, basis, g, parts, dt, eta)
                    bound = c0 + float(np.vdot(z, prod).real)
                    if bound < upper and (z_floor := _psd_floor(ctx, z)) >= 0:
                        upper, dual, dual_floor = bound, z, z_floor
                    eta *= _ETA_GROWTH   # close enough to the path: move along it
                    if centred == 2:     # at least to the gap ν/η = width/2
                        eta = max(eta, 2 * nu / width)
                    dt = eta * hg + hgrad
                steps += 1
                x = x + _line_search(_step_eigenvalues(parts, dt), eta * float(g @ dt)) * dt
                factors = _factors(stacks, x)   # the step is kept only where F > 0
                value = c0 + float(g @ x)   # = Re Σ k_q f_q at f = ρ⊗ + Σ x_i V_i
                if value > lower:
                    lower, best = value, x
        except np.linalg.LinAlgError:
            pass   # rounding stopped the path; the gap decides below
    jm = JoiningMatrix(ctx=ctx, values=(prod + basis.T @ best).reshape(ctx.dim_a, ctx.dim_b),
                       label=label)
    open_gap = upper - lower > width
    report = SolveReport(
        iterations=steps,
        tangent_dim=len(basis),
        lower=lower,
        upper=upper,
        dual=dual.reshape(ctx.dim_a, ctx.dim_b),
        dual_floor=_psd_floor(ctx, dual) if dual_floor is None else dual_floor,
        oracle_calls=solves,
        ambiguous_calls=int(open_gap),
        inconclusive=open_gap or not ctx.tangent.trusted,
        message=("gap closed" if not open_gap else
                 "gap still open when the Newton steps ended") +
                ("" if ctx.tangent.trusted else
                 "; a character product within rounding of 1 was left unpaired, "
                 "T is uncertain"),
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
    if objective is None:
        prod = product_joining(ctx)
        return prod, SolveReport(iterations=0, tangent_dim=len(ctx.tangent.basis),
                                 message="product state is feasible")
    k, top, desc = _objective(ctx, objective)
    jm, report = _barrier_solve(ctx, k, top, f"solver:{desc}", width, max_iter)
    report.message = f"objective {desc}: " + report.message
    return jm, report


@dataclass
class DisjointnessCertificate:
    """Whether the product state is the only joining, with its evidence.

    "disjoint": T = {0}, since no pair of characters is left after those
    that carry a marginal (`_tangent_space`); `min_margin` is δ, the
    smallest ‖χψ − 1‖ over the unpaired pairs, or None when every pair is
    paired. "not_disjoint": `witness` is a joining other than the product,
    `witness_gap` above it along `witness_direction`. "inconclusive": δ is
    below rounding, or the witness solve did not close its gap or did not
    get above the product.
    """

    verdict: str                      # disjoint | not_disjoint | inconclusive
    tangent_dim: int
    min_margin: float | None = None   # δ
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
    exceeds the product's. It pairs with V in T as Re(w·V_q), q = i·dim_b + j:
    q is the first column of T's unit-row basis with a real (w = 1), else
    imaginary (w = i), part above rounding; `directions_scanned` = 4q + 1 or 4q + 2.
    """
    _check_solver_options(max_iter, width)
    tangent = ctx.tangent
    cert = DisjointnessCertificate(verdict="inconclusive", tangent_dim=len(tangent.basis),
                                   min_margin=tangent.pair_gap)
    if not tangent.trusted:
        return cert
    if len(tangent.basis) == 0:
        cert.verdict, cert.max_gap_bound = "disjoint", 0.0
        cert.directions_scanned = 4 * ctx.dim
        return cert
    norms = np.linalg.norm(tangent.basis.view(float), axis=0)   # Re, Im of column q at 2q, 2q + 1
    q, r = divmod(int(np.argmax(norms > _RANK_GAP_MIN)), 2)
    (i, j), w = divmod(q, ctx.dim_b), 1j ** r
    direction = np.zeros((ctx.dim_a, ctx.dim_b), dtype=complex)
    direction[i, j] = w
    k, top, _ = _objective(ctx, direction)
    cert.directions_scanned = 4 * q + r + 1
    witness, report = _barrier_solve(ctx, k, top, f"witness({i},{j})", width, max_iter,
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
        raise NcjoinError(
            f"matrix violates the joining battery: {joining.residuals}")
    X = np.linalg.solve(_state_products(ctx), joining.values)
    ca, cb_inv = ctx.A.gns.onb_factor, ctx.B.gns.onb_factor_inv
    norm = operator_norm(ca @ X @ cb_inv)
    inter = 0.0
    for Ua, Ub in zip(ctx.A.generator_matrices, ctx.B.generator_matrices):
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
    basis = ctx.tangent.basis
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
    acc = _diagonal_values(ctx, folner_mean(sys, n))
    deviation = float(np.max(np.abs(acc - ctx.product_values())))
    return CesaroDiagonalResult(values=acc, deviation=deviation,
                                ergodic=len(sys.spectrum.fixed) == 1)


@dataclass
class OrnsteinElementReport:
    label: str
    denominator: float
    ratios: list[tuple[int, float]]   # (n, Δ_n(c*c) / denominator)
    sup: float


@dataclass
class OrnsteinScan:
    period: int | None
    sup_ratio: float
    skipped: list[str]
    elements: list[OrnsteinElementReport]


def ornstein_ratio_scan(ctx: TensorContext, test_elements, n_range,
                        labels=None) -> OrnsteinScan:
    """Table of Δ_n(c*c) / (μ ⊙ μ̃)(c*c) over a window of shifts.

    `ctx` is `mirror_context(sys)`, the tensor algebra of the system
    `ctx.A` with its promoted mirror, and `test_elements` is a stack of
    coefficient tables c in it, (m, dim_a, dim_b).
    Nontrivial finite systems recur instead of mixing, so the scan also
    reports the recurrence period of the dynamics when one exists within
    the window. Degenerate elements (denominator at most 1e-12) are skipped
    with a notice.
    """
    if ctx.A.group.kind != "Z":
        raise InputFormatError("the ratio scan needs a Z action")
    ns = list(n_range)
    if not ns:
        raise ValueError("empty scan window")
    # one power table serves the shifted tables and the period search
    lo = min(min(ns), 1)
    table = powers(ctx.A.generator_matrices[0], lo, max(ns))
    tables = _diagonal_values(ctx, table[np.array(ns) - lo]).reshape(len(ns), -1)

    # value tables of every c*c: the density blocks of c, squared as Xᴴ·X per block size
    labels = labels or [f"element {k}" for k in range(len(test_elements))]
    coords = np.asarray(test_elements, dtype=complex).reshape(len(test_elements), ctx.dim)
    squares = np.zeros_like(coords)
    for idx in ctx.blocks:
        X = coords[:, idx]
        squares[:, idx] = X.conj().swapaxes(-1, -2) @ X
    denoms = (squares @ ctx.product_values().reshape(-1)).real
    values = (squares @ tables.T).real

    # one division for the kept rows only: a degenerate denominator would warn on stderr
    skip = denoms <= 1e-12
    ratios = values[~skip] / denoms[~skip, None]
    kept = zip(ratios.tolist(), ratios.max(axis=1).tolist())
    elements, skipped = [], []
    for label, denom, skipped_here in zip(labels, denoms.tolist(), skip.tolist(), strict=True):
        if skipped_here:
            skipped.append(label)
            continue
        row, sup = next(kept)
        elements.append(OrnsteinElementReport(label=label, denominator=denom,
                                              ratios=list(zip(ns, row)), sup=max(0.0, sup)))

    # the first p with ‖U^p − 1‖₂ < 1e-9: as ‖·‖₂ ≤ ‖·‖_F ≤ √d‖·‖₂, only the band takes an SVD
    X = table[1 - lo:] - np.eye(ctx.dim_a)
    frob = np.linalg.norm(X, axis=(1, 2))
    recur, band = frob < 1e-9, (frob >= 1e-9) & (frob < np.sqrt(ctx.dim_a) * 1e-9)
    if band.any():
        recur[band] = _operator_norms(X[band]) < 1e-9
    period = int(np.argmax(recur)) + 1 if recur.any() else None
    return OrnsteinScan(period=period, sup_ratio=max((r.sup for r in elements), default=0.0),
                        skipped=skipped, elements=elements)

