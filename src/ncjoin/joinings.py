"""Joinings of two systems as a convex feasibility problem.

A joining is represented by a Hermitian matrix W on the tensor product of
the two orthonormalized GNS spaces, with ω(x) = trace(W · rep(x)). The
constraints are W ⪰ 0, trace one, both marginals, and invariance under the
diagonal action; positivity of the state then reduces to a single PSD
constraint. Feasibility is solved by Dykstra alternating projections
between the spectral set {W ⪰ 0, tr W = 1} and the affine constraint
subspace; linear optimization over the joining set runs a bisection on the
objective level against that oracle.

An "infeasible" answer of the oracle is a proof whenever it can be: either
the objective is constant on the affine constraints and the level misses
that constant, or Dykstra's gap vector gives a separating hyperplane
between the affine subspace and the spectral set. The certified distance
is kept as the answer's margin. Only when neither holds does a stalled
residual decide, as a fallback that carries no margin; solve reports and
disjointness certificates count both kinds.
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
    require_valid,
)
from .errors import (
    NcjoinError,
    NonJoiningError,
    UnsupportedGroupError,
)
from .gns import GnsSpace, UnitaryRep, gns_construct, mirror_system

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 50_000
DEFAULT_BISECTION_WIDTH = 1e-6
CONSTRUCTOR_RESIDUAL_TOL = 1e-8
AMBIGUOUS_BAND_FACTOR = 100.0
_STALL_CHECK_EVERY = 100
_STALL_WINDOW_CHECKS = 10
_STALL_RELATIVE_DROP = 1e-3
# rounding allowance of a certified margin, relative to 1 + ‖x‖
_CERTIFICATE_SLACK = 1e-9
# a level row whose part outside the base row space is this small is pinned
_PINNED_LEVEL = 1e-9


@dataclass
class TensorContext:
    """Two systems with the concrete tensor representation of A ⊙ B.

    The product algebra has one block per pair of blocks; basis element
    e_i ⊗ f_j is represented by kron(L_A(e_i), L_B(f_j)) acting on the
    tensor of the orthonormalized GNS spaces.
    """

    A: FiniteSystem
    B: FiniteSystem
    structure: BlockStructure
    space_a: GnsSpace
    rep_a: UnitaryRep
    space_b: GnsSpace
    rep_b: UnitaryRep
    left_a: list[np.ndarray]
    left_b: list[np.ndarray]
    mu: np.ndarray
    nu: np.ndarray
    pair_index: np.ndarray   # (dA, dB) -> canonical index in the product basis
    index_pair: list[tuple[int, int]]

    @property
    def dim_a(self) -> int:
        return self.space_a.dimension

    @property
    def dim_b(self) -> int:
        return self.space_b.dimension

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def rep(self, i: int, j: int) -> np.ndarray:
        return np.kron(self.left_a[i], self.left_b[j])

    def rep_of(self, x: AlgebraElement) -> np.ndarray:
        coords = x.coords()
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, c in enumerate(coords):
            if c != 0:
                i, j = self.index_pair[p]
                out += c * self.rep(i, j)
        return out

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
    require_valid(A)
    require_valid(B)
    if (A.group.kind, A.group.k, A.group.m) != (B.group.kind, B.group.k, B.group.m):
        raise UnsupportedGroupError(
            f"systems act by different groups: {A.group} vs {B.group}")
    space_a, rep_a = gns_construct(A)
    space_b, rep_b = gns_construct(B)
    sizes = []
    for na in A.structure.block_sizes:
        for nb in B.structure.block_sizes:
            sizes.append(na * nb)
    structure = BlockStructure(tuple(sizes))

    dA, dB = space_a.dimension, space_b.dimension
    mB = B.structure.num_blocks
    pair_index = np.zeros((dA, dB), dtype=int)
    index_pair: list[tuple[int, int]] = [(-1, -1)] * structure.dimension
    for i in range(dA):
        ka, ra, ca = A.structure.basis_address(i)
        for j in range(dB):
            kb, rb, cb = B.structure.basis_address(j)
            nb = B.structure.block_sizes[kb]
            K = ka * mB + kb
            p = structure.basis_index(K, ra * nb + rb, ca * nb + cb)
            pair_index[i, j] = p
            index_pair[p] = (i, j)

    left_a = [space_a.left_rep_onb(A.structure.basis_element(i)) for i in range(dA)]
    left_b = [space_b.left_rep_onb(B.structure.basis_element(j)) for j in range(dB)]
    mu = np.array([A.state.value(A.structure.basis_element(i)) for i in range(dA)])
    nu = np.array([B.state.value(B.structure.basis_element(j)) for j in range(dB)])
    return TensorContext(
        A=A, B=B, structure=structure,
        space_a=space_a, rep_a=rep_a, space_b=space_b, rep_b=rep_b,
        left_a=left_a, left_b=left_b, mu=mu, nu=nu,
        pair_index=pair_index, index_pair=index_pair,
    )


def value_table(ctx: TensorContext, W: np.ndarray) -> np.ndarray:
    """ω(e_i ⊗ f_j) for every basis pair."""
    out = np.zeros((ctx.dim_a, ctx.dim_b), dtype=complex)
    for i in range(ctx.dim_a):
        for j in range(ctx.dim_b):
            out[i, j] = np.trace(W @ ctx.rep(i, j))
    return out


def joining_residuals(ctx: TensorContext, W: np.ndarray) -> dict:
    """Residuals of the joining constraint battery for a candidate W."""
    herm = operator_norm(W - W.conj().T)
    Wh = (W + W.conj().T) / 2
    eigs = np.linalg.eigvalsh(Wh)
    psd_floor = float(eigs.min())
    trace_dev = abs(np.trace(Wh).real - 1.0) + abs(np.trace(Wh).imag)
    ident_b = np.eye(ctx.dim_b, dtype=complex)
    ident_a = np.eye(ctx.dim_a, dtype=complex)
    marg_a = max(
        abs(np.trace(Wh @ np.kron(ctx.left_a[i], ident_b)) - ctx.mu[i])
        for i in range(ctx.dim_a))
    marg_b = max(
        abs(np.trace(Wh @ np.kron(ident_a, ctx.left_b[j])) - ctx.nu[j])
        for j in range(ctx.dim_b))
    inv = 0.0
    for g in range(len(ctx.A.generators)):
        Ua = ctx.rep_a.matrices[g]
        Ub = ctx.rep_b.matrices[g]
        la_g = _transformed_left(ctx.left_a, Ua)
        lb_g = _transformed_left(ctx.left_b, Ub)
        for i in range(ctx.dim_a):
            for j in range(ctx.dim_b):
                K = np.kron(la_g[i], lb_g[j]) - np.kron(ctx.left_a[i], ctx.left_b[j])
                inv = max(inv, abs(np.trace(Wh @ K)))
    return {
        "hermiticity": herm,
        "psd_floor": psd_floor,
        "trace": trace_dev,
        "marginal_a": float(marg_a),
        "marginal_b": float(marg_b),
        "invariance": float(inv),
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


def _transformed_left(left, U):
    """Left-rep matrices of the transformed basis α(e_i) = Σ_m U[m,i] e_m."""
    d = len(left)
    out = []
    for i in range(d):
        acc = np.zeros_like(left[0])
        for m in range(d):
            c = U[m, i]
            if c != 0:
                acc += c * left[m]
        out.append(acc)
    return out


@dataclass
class JoiningMatrix:
    """A state on A ⊙ B carried by a density-style matrix on the tensor space."""

    ctx: TensorContext
    matrix: np.ndarray
    label: str
    values: np.ndarray = field(default=None)
    residuals: dict = field(default=None)

    def __post_init__(self):
        if self.values is None:
            self.values = value_table(self.ctx, self.matrix)
        if self.residuals is None:
            self.residuals = joining_residuals(self.ctx, self.matrix)

    def value(self, x: AlgebraElement) -> complex:
        coords = x.coords()
        acc = 0j
        for p, c in enumerate(coords):
            if c != 0:
                i, j = self.ctx.index_pair[p]
                acc += c * self.values[i, j]
        return acc

    @property
    def worst_residual(self) -> float:
        return residual_magnitude(self.residuals)


def joining_from_values(ctx: TensorContext, values, label: str,
                        check_tol: float = CONSTRUCTOR_RESIDUAL_TOL) -> JoiningMatrix:
    """Canonical PSD lift of a state given by its values on the basis pairs.

    The state's density with respect to the block trace is transported
    through the representation; block (k, l) carries multiplicity n_k·n_l in
    the tensor space, hence the weighting.
    """
    values = np.asarray(values, dtype=complex)
    W = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    for i in range(ctx.dim_a):
        ka = ctx.A.structure.basis_address(i)[0]
        na = ctx.A.structure.block_sizes[ka]
        ti = ctx.A.structure.adjoint_index(i)
        for j in range(ctx.dim_b):
            v = values[i, j]
            if v == 0:
                continue
            kb = ctx.B.structure.basis_address(j)[0]
            nb = ctx.B.structure.block_sizes[kb]
            tj = ctx.B.structure.adjoint_index(j)
            W += (v / (na * nb)) * np.kron(ctx.left_a[ti], ctx.left_b[tj])
    out = JoiningMatrix(ctx=ctx, matrix=W, label=label)
    if residual_magnitude(out.residuals) > check_tol:
        raise NcjoinError(
            f"constructed {label} state violates the joining battery: {out.residuals}")
    return out


def product_joining(ctx: TensorContext) -> JoiningMatrix:
    """The product state μ ⊙ ν; always a joining."""
    return joining_from_values(ctx, ctx.product_values(), label="product",
                               check_tol=1e-10)


def _mirror_context(sys: FiniteSystem):
    m = mirror_system(sys)
    return m, build_tensor_context(sys, m.promoted)


def _diagonal_values(sys: FiniteSystem, ctx: TensorContext, power=None) -> np.ndarray:
    """Values of the (shifted) diagonal state on the basis pairs.

    The mirror leg is identified with the commutant through the modular
    conjugation: promoted element f acts as right multiplication by
    ρ^{1/2} transpose(f) ρ^{-1/2}. That twist makes the identification
    *-preserving for a non-tracial density, so the pulled-back functional
    is an honest state; without it Hermiticity fails off the tracial case.
    """
    from .gns import _density_power

    dA, dB = ctx.dim_a, ctx.dim_b
    rho_half = _density_power(sys, 0.5)
    rho_mhalf = _density_power(sys, -0.5)
    twisted = [
        rho_half @ ctx.B.structure.basis_element(j).transpose() @ rho_mhalf
        for j in range(dB)
    ]
    out = np.zeros((dA, dB), dtype=complex)
    for i in range(dA):
        e = sys.structure.basis_element(i)
        if power is not None:
            e = power.apply(e)
        for j in range(dB):
            out[i, j] = sys.state.value(e @ twisted[j])
    return out


def diagonal_state(sys: FiniteSystem) -> JoiningMatrix:
    """The diagonal state ω(a ⊗ b) = ⟨Ω, π(a) b Ω⟩ over the mirror system.

    The mirror leg is the promoted commutant; the constructed state is
    verified to be a joining of the system with its mirror.
    """
    _, ctx = _mirror_context(sys)
    return joining_from_values(ctx, _diagonal_values(sys, ctx), label="diagonal")


def graph_joining(sys: FiniteSystem, n: int) -> JoiningMatrix:
    """Shifted diagonal state Δ_n(a ⊗ b) = ω_diag(α_n(a) ⊗ b); needs a Z action."""
    if sys.group.kind != "Z":
        raise UnsupportedGroupError("graph joinings need a Z action")
    _, ctx = _mirror_context(sys)
    power = sys.generators[0].power(n)
    return joining_from_values(ctx, _diagonal_values(sys, ctx, power), label=f"graph:{n}")


# ---------------------------------------------------------------------------
# feasibility solver


def _real_rows(K: np.ndarray, v: complex, want_imag: bool = True):
    """Real-linear rows for trace(W K) = v over [vec Re W; vec Im W]."""
    Kt = K.T
    p = Kt.real.reshape(-1)
    q = Kt.imag.reshape(-1)
    rows = [(np.concatenate([p, -q]), v.real)]
    if want_imag:
        rows.append((np.concatenate([q, p]), v.imag))
    return rows


class _ConstraintSet:
    """Stacked real affine constraints trace(W K_c) = v_c with projection data.

    The projector onto these base constraints is factored once, on first
    use; every level system of a solve or of a disjointness scan reuses it.
    """

    def __init__(self, ctx: TensorContext):
        self.ctx = ctx
        D = ctx.dim
        rows, vals = [], []

        def add(K, v):
            for r, val in _real_rows(K, v):
                rows.append(r)
                vals.append(val)

        add(np.eye(D, dtype=complex), 1.0 + 0j)
        ib = np.eye(ctx.dim_b, dtype=complex)
        ia = np.eye(ctx.dim_a, dtype=complex)
        for i in range(ctx.dim_a):
            add(np.kron(ctx.left_a[i], ib), complex(ctx.mu[i]))
        for j in range(ctx.dim_b):
            add(np.kron(ia, ctx.left_b[j]), complex(ctx.nu[j]))
        for g in range(len(ctx.A.generators)):
            la_g = _transformed_left(ctx.left_a, ctx.rep_a.matrices[g])
            lb_g = _transformed_left(ctx.left_b, ctx.rep_b.matrices[g])
            for i in range(ctx.dim_a):
                for j in range(ctx.dim_b):
                    add(np.kron(la_g[i], lb_g[j]) -
                        np.kron(ctx.left_a[i], ctx.left_b[j]), 0j)
        A = np.array(rows)
        b = np.array(vals)
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

    def with_level(self, H: np.ndarray) -> _LevelSystem:
        """The base constraints extended by the row Re trace(W H) = t."""
        return _LevelSystem(self, _real_rows(H, 0j, want_imag=False)[0][0])


class _LevelSystem:
    """Base constraints plus one level row h·w = t, projected without a new pinv.

    With h normalized and h⊥ = h − A⁺A h its part orthogonal to the base row
    space, projecting onto the base set and then moving along h⊥ to the
    level is the orthogonal projection onto the intersection. On the base
    set the objective equals c0 + h⊥·w with c0 = h·A⁺b, and |h⊥·w| ≤ ‖h⊥‖
    for every trace-one PSD w. When ‖h⊥‖ is negligible the level row is
    implied or contradicted by the base rows: it is left out of the
    projection and `pinned_margin` decides the level instead.
    """

    def __init__(self, base: _ConstraintSet, row: np.ndarray):
        self.base = base
        self.row = row
        self.scale = float(np.linalg.norm(row))
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


def _vec(W: np.ndarray) -> np.ndarray:
    return np.concatenate([W.real.reshape(-1), W.imag.reshape(-1)])


def _unvec(w: np.ndarray, D: int) -> np.ndarray:
    half = D * D
    return w[:half].reshape(D, D) + 1j * w[half:].reshape(D, D)


def _project_spectral(w: np.ndarray, D: int) -> np.ndarray:
    """Nearest point in {W Hermitian, W ⪰ 0, trace W = 1} (Frobenius)."""
    W = _unvec(w, D)
    W = (W + W.conj().T) / 2
    vals, vecs = np.linalg.eigh(W)
    vals = _project_simplex(vals)
    return _vec((vecs * vals) @ vecs.conj().T)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto {x ≥ 0, Σx = 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


@dataclass
class _Feasibility:
    status: str          # feasible | infeasible | ambiguous
    W: np.ndarray | None
    residual: float
    iterations: int
    margin: float | None = None       # set when infeasibility is certified
    separator: np.ndarray | None = None   # the gap vector v of a Dykstra certificate


def _dykstra(affine: _LevelSystem, D: int, x0: np.ndarray, tol: float,
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
    set, while every trace-one PSD W has ⟨v, W⟩ ≤ λ_max(herm V). When
    (⟨v, x⟩ − λ_max(herm V)) / ‖v‖, a lower bound on the distance between
    the two sets, exceeds a rounding slack, no joining meets the
    constraints; that bound is the returned margin. As a fallback, a run
    that stalls at a residual above the ambiguity band is reported
    infeasible without a margin; a stall or iteration cap inside the band
    is ambiguous, never silently resolved either way.
    """
    margin = affine.pinned_margin()
    if margin is not None and margin > _CERTIFICATE_SLACK:
        return _Feasibility("infeasible", None, affine.residual(x0), 0, margin)
    band = AMBIGUOUS_BAND_FACTOR * tol
    x = x0.copy()
    p = np.zeros_like(x)
    best = math.inf
    best_W = None
    history: list[float] = []
    it = 0
    while it < max_iter:
        it += 1
        y = _project_spectral(x + p, D)
        p = x + p - y
        r = affine.residual(y)
        if r < best:
            best = r
            best_W = y
        if r < tol:
            return _Feasibility("feasible", _unvec(y, D), r, it)
        x = affine.project(y)
        v = x - y
        v_norm = float(np.linalg.norm(v))
        if v_norm > 0:
            top = float(np.linalg.eigvalsh(_herm(_unvec(v, D)))[-1])
            margin = (float(v @ x) - top) / v_norm
            if margin > _CERTIFICATE_SLACK * (1.0 + float(np.linalg.norm(x))):
                return _Feasibility("infeasible", _unvec(y, D), r, it, margin, v)
        if it % _STALL_CHECK_EVERY == 0:
            history.append(best)
            if len(history) > _STALL_WINDOW_CHECKS:
                old = history[-1 - _STALL_WINDOW_CHECKS]
                if best > old * (1.0 - _STALL_RELATIVE_DROP):
                    # the residual has settled at a positive level: the sets
                    # keep a positive distance, unless it settled so low that
                    # numerical noise could hide a feasible point
                    status = "infeasible" if best >= band else "ambiguous"
                    return _Feasibility(status, _unvec(best_W, D), best, it)
    # iteration cap with the residual still falling: no verdict either way
    return _Feasibility("ambiguous", _unvec(best_W, D) if best_W is not None else None,
                        best, it)


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
    certified: int = 0                # infeasible calls proven by a certificate
    stalled: int = 0                  # infeasible calls ended by the stall rule
    min_margin: float | None = None   # smallest certified margin
    inconclusive: bool = False
    message: str = ""


@dataclass
class _InfeasibleTally:
    """How the infeasible oracle answers of one solve or scan were decided."""

    certified: int = 0
    stalled: int = 0
    min_margin: float | None = None

    def add(self, out: _Feasibility):
        if out.margin is None:
            self.stalled += 1
            return
        self.certified += 1
        if self.min_margin is None or out.margin < self.min_margin:
            self.min_margin = out.margin


def _herm(K: np.ndarray) -> np.ndarray:
    return (K + K.conj().T) / 2


def _objective_rep(ctx: TensorContext, objective) -> tuple[np.ndarray, str]:
    if isinstance(objective, AlgebraElement):
        return ctx.rep_of(objective), "element"
    if isinstance(objective, tuple) and len(objective) == 2:
        i, j = objective
        return ctx.rep(i, j), f"basis({i},{j})"
    raise NcjoinError("objective must be an AlgebraElement or a basis index pair")


def _maximize(ctx: TensorContext, cons: _ConstraintSet, H: np.ndarray,
              t0: float, W0: np.ndarray, tol: float, max_iter: int,
              width: float):
    """Bisection on the level Re trace(W H) = t with the feasibility oracle.

    The feasible endpoint is always kept; the returned matrix is the best
    verified feasible point, so the achieved value is a sound lower bound.
    """
    affine = cons.with_level(H)
    hi = float(np.linalg.eigvalsh(_herm(H)).max()) + 1e-12
    lo = t0
    W_best = W0
    calls = ambiguous = iters = 0
    tally = _InfeasibleTally()
    while hi - lo > width:
        t = 0.5 * (lo + hi)
        affine.set_level(t)
        out = _dykstra(affine, ctx.dim, _vec(W_best), tol, max_iter)
        calls += 1
        iters += out.iterations
        if out.status == "feasible":
            lo = t
            W_best = out.W
        else:
            hi = t
            if out.status == "ambiguous":
                ambiguous += 1
            else:
                tally.add(out)
    report = SolveReport(
        converged=True,
        iterations=iters,
        residual=residual_magnitude(joining_residuals(ctx, W_best)),
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
    return W_best, report


def find_joining(ctx: TensorContext, objective=None, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 width: float = DEFAULT_BISECTION_WIDTH):
    """Feasible joining, optionally maximizing Re ω(c) for a direction c.

    Without an objective the product state is returned (it is always
    feasible). With one, the level of the objective is bisected to the given
    width; the report carries iteration counts, residuals, how the
    infeasible oracle calls were decided (certified or stalled) and an
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
    H_raw, desc = _objective_rep(ctx, objective)
    H = _herm(H_raw)
    t0 = float(np.trace(prod.matrix @ H).real)
    cons = _ConstraintSet(ctx)
    W_best, report = _maximize(ctx, cons, H, t0, prod.matrix, tol, max_iter, width)
    jm = JoiningMatrix(ctx=ctx, matrix=W_best, label=f"solver:{desc}")
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
    certified: int = 0                # infeasible probes proven by a certificate
    stalled: int = 0                  # infeasible probes ended by the stall rule
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
    certificate counts the infeasible probes that were certified and those
    ended by the stall rule, with the smallest certified margin.
    """
    thr = gap_threshold if gap_threshold is not None else 10.0 * width
    prod = product_joining(ctx)
    cons = _ConstraintSet(ctx)
    scanned = 0
    ambiguous = []
    tally = _InfeasibleTally()
    for i in range(ctx.dim_a):
        for j in range(ctx.dim_b):
            base = ctx.rep(i, j)
            for w in _WEIGHTS:
                scanned += 1
                H = _herm(w * base)
                t0 = float(np.trace(prod.matrix @ H).real)
                hi = float(np.linalg.eigvalsh(H).max())
                if hi <= t0 + thr:
                    continue  # no state at all exceeds the threshold here
                affine = cons.with_level(H)
                affine.set_level(t0 + thr)
                probe = _dykstra(affine, ctx.dim, _vec(prod.matrix), tol, max_iter)
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
                W_best, report = _maximize(
                    ctx, cons, H, t0 + thr, probe.W, tol, max_iter, width)
                gap = report.achieved - t0
                witness = JoiningMatrix(ctx=ctx, matrix=W_best, label=f"witness({i},{j})")
                return DisjointnessCertificate(
                    verdict="not_disjoint", gap_threshold=thr,
                    witness_direction=(i, j, w), witness_gap=gap, witness=witness,
                    directions_scanned=scanned, **vars(tally),
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
    dA, dB = ctx.dim_a, ctx.dim_b
    M = np.zeros((dA, dA), dtype=complex)
    for i in range(dA):
        M[i, :] = ctx.space_a.gram[ctx.A.structure.adjoint_index(i), :]
    X = np.linalg.solve(M, joining.values)
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
    """Dimension of the feasible perturbations of W, seen in state values.

    Directions are Hermitian D with range(D) inside range(W) and all affine
    constraints mapping D to zero; the returned number is the rank of their
    images on the represented values. Zero means the state is an extreme
    point of the joining set as far as the represented values go; coherence
    directions that change no value do not count.
    """
    W = (joining.matrix + joining.matrix.conj().T) / 2
    vals, vecs = np.linalg.eigh(W)
    keep = vals > rank_tol
    R = vecs[:, keep]
    r = R.shape[1]
    if r == 0:
        return 0
    cons = _ConstraintSet(ctx)
    A = cons.base_A
    params = _hermitian_param_basis(r)
    cols = []
    dirs = []
    for E in params:
        D = R @ E @ R.conj().T
        dirs.append(D)
        cols.append(A @ _vec(D))
    Mcons = np.array(cols).T
    _, s, vh = np.linalg.svd(Mcons) if Mcons.size else (None, np.array([]), None)
    rank = int(np.sum(s > 1e-8))
    null = vh[rank:].conj().T if Mcons.size else np.eye(len(params))
    if null.shape[1] == 0:
        return 0
    rows = []
    for q in range(null.shape[1]):
        D = sum(null[m, q] * dirs[m] for m in range(len(dirs)))
        D = (D + D.conj().T) / 2
        tab = value_table(ctx, D)
        rows.append(np.concatenate([tab.real.reshape(-1), tab.imag.reshape(-1)]))
    Mvals = np.array(rows)
    sv = np.linalg.svd(Mvals, compute_uv=False)
    return int(np.sum(sv > rank_tol))


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
    from .gns import classify_finite

    _, ctx = _mirror_context(sys)
    elements = sys.group.folner_elements(n)
    acc = np.zeros((ctx.dim_a, ctx.dim_b), dtype=complex)
    for g in elements:
        power = sys.element_automorphism(g)
        acc += _diagonal_values(sys, ctx, power)
    acc /= len(elements)
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
    mirror. Nontrivial finite systems recur instead of mixing, so the scan
    also reports the recurrence period of the dynamics when one exists
    within the window. Degenerate elements (denominator ~ 0) are skipped
    with a notice.
    """
    if sys.group.kind != "Z":
        raise UnsupportedGroupError("the ratio scan needs a Z action")
    _, ctx = _mirror_context(sys)
    ns = list(n_range)
    if not ns:
        raise ValueError("empty scan window")
    gen = sys.generators[0]
    prod_tab = ctx.product_values().reshape(-1)
    prod_vec = np.zeros(ctx.structure.dimension, dtype=complex)
    for i in range(ctx.dim_a):
        for j in range(ctx.dim_b):
            prod_vec[ctx.pair_index[i, j]] = ctx.mu[i] * ctx.nu[j]

    tables = {}
    for n in ns:
        tab = _diagonal_values(sys, ctx, gen.power(n))
        vec = np.zeros(ctx.structure.dimension, dtype=complex)
        for i in range(ctx.dim_a):
            for j in range(ctx.dim_b):
                vec[ctx.pair_index[i, j]] = tab[i, j]
        tables[n] = vec

    labels = labels or [f"element {k}" for k in range(len(test_elements))]
    reports, skipped = [], []
    overall = 0.0
    for c, label in zip(test_elements, labels):
        csq = c.adjoint() @ c
        coords = csq.coords()
        denom = float((coords @ prod_vec).real)
        if denom <= degenerate_tol:
            skipped.append(label)
            continue
        rows = []
        sup = 0.0
        for n in ns:
            val = float((coords @ tables[n]).real)
            ratio = val / denom
            sup = max(sup, ratio)
            rows.append(OrnsteinRow(n=n, delta_value=val, ratio=ratio))
        overall = max(overall, sup)
        reports.append(OrnsteinElementReport(
            element_label=label, denominator=denom, rows=rows, sup_ratio=sup))

    period = None
    space, rep = gns_construct(sys)
    U = rep.matrices[0]
    P = np.eye(space.dimension, dtype=complex)
    for p in range(1, max(ns) + 1 if ns else 1):
        P = U @ P
        if operator_norm(P - np.eye(space.dimension)) < 1e-9:
            period = p
            break
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
