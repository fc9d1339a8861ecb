"""GNS construction, unitary dynamics, point spectrum, and classification.

The GNS space of (A, μ) is A itself with inner product ⟨a, b⟩ = μ(a* b),
antilinear in the first argument. Coordinates are always with respect to the
canonical matrix-unit basis, so the inner product is the Gram matrix
G_ij = μ(e_i* e_j). A Cholesky factor C with G = C* C converts to
orthonormal coordinates where standard numpy eigensolvers apply.

Library functions read a system's GNS space, joint point spectrum and
mirror from `sys.gns`, `sys.spectrum` and `sys.mirror`, built once per
system object; `gns_construct`, `joint_spectrum` and `mirror_system` are
the uncached builders behind them. The GNS unitaries are the system's
`generator_matrices`, in canonical coordinates only; group elements get
theirs from power tables over them. The spectrum takes one `eigh` of a
Hermitian combination of their orthonormal-coordinate images C·U·C⁻¹; it
classifies the system, gives every Folner mean (`folner_mean`,
`cesaro_correlation`) and gives the eigenvectors from which a joining's
tangent space is built. The mirror builds no GNS data; its promoted
system shares its system's validation report. Neither a GnsSpace, a
Spectrum nor a MirrorSystem refers back to its system, so the cache forms
no cycle. The modular objects are one family, a ↦ ρ^z·a·ρ^{-z}, whose
coordinate matrices `modular_group` gives: σ_t at z = it, Δ at z = 1, and
J, the mirror's `twist`, at z = 1/2 after a ↦ a*.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    Automorphism,
    FaithfulState,
    FiniteSystem,
    _eigh,
    require_valid,
    sandwich_matrix,
)
from .errors import InputFormatError, NcjoinError

EIG_CLUSTER_TOL = 1e-8
NULLSPACE_TOL = 1e-8
SPLIT_WINDOW = 1e-6   # eigh eigenvalues this close may share a cluster that mixes characters
POLISH_MIN = 1e-13    # a first-order eigenvector correction below this is not taken
SIGMA_SAMPLES = (0.1, 0.7, 1.3)   # the times t at which σ_t(P) = P is checked


@dataclass
class GnsSpace:
    """Inner-product space carrying the left representation of the algebra.

    gram[i, j] = μ(e_i* e_j); cyclic_vector is Ω = γ(1), with γ(a) =
    `a.coords()`. onb_factor is the upper-triangular C with gram = C* C.
    Left multiplication by a is `sandwich_matrix(a, 1)` in canonical
    coordinates; U_g γ(a) = γ(α_g(a)) is the system's generator matrix.
    C and C⁻¹ are built on first read: the diagonal and graph joinings and
    the ratio scan read only the Gram matrix.
    """

    gram: np.ndarray
    cyclic_vector: np.ndarray

    @functools.cached_property
    def onb_factor(self) -> np.ndarray:
        return np.linalg.cholesky(self.gram).conj().T

    @functools.cached_property
    def onb_factor_inv(self) -> np.ndarray:
        return np.linalg.inv(self.onb_factor)

    def inner(self, x, y) -> complex:
        return complex(np.asarray(x).conj() @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x).real, 0.0))


def gns_construct(sys: FiniteSystem) -> GnsSpace:
    """Build the GNS space; read it as `sys.gns`."""
    require_valid(sys)
    struct = sys.structure
    rows, cols = struct.block_mask.nonzero()   # of the matrix units, in canonical order
    # e_i* e_j = E_{c_i c_j} when e_i, e_j share a row, so μ(e_i* e_j) = ρ[c_j, c_i]
    rho = sys.state.density.block_matrix()
    gram = np.where(rows[:, None] == rows, rho[cols[None, :], cols[:, None]], 0)
    return GnsSpace(gram=gram, cyclic_vector=struct._identity_coords.copy())


def powers(U: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Stack of U^j for j = lo..hi by running products: one `matrix_power`
    at lo and one matmul per further step."""
    table = np.empty((hi - lo + 1,) + U.shape, dtype=complex)
    base = U if lo >= 0 else np.linalg.inv(U)
    table[0] = np.linalg.matrix_power(base, abs(lo))
    for s in range(1, len(table)):
        table[s] = table[s - 1] @ U
    return table


def element_matrices(mats, elements) -> np.ndarray:
    """Stack of U_g over exponent tuples g, one power table per generator matrix."""
    exps = np.array(elements, dtype=int).reshape(len(elements), -1)
    out = None
    for U, col in zip(mats, exps.T):
        step = powers(U, col.min(), col.max())[col - col.min()]
        out = step if out is None else out @ step
    return out


def _mean_characters(sys: FiniteSystem, n: int) -> np.ndarray:
    """m_n(χ) for each column of `sys.spectrum`: the mean of χ(g) over the
    n-th Folner set.

    The set is a box, so the mean is the product over generators of the
    mean of e^{iθj} over the exponent range lo..hi of length L, which is
    e^{iθ(lo+hi)/2}·sinc(Lθ/2π)/sinc(θ/2π): no branch at θ = 0, and 0 up to
    rounding over all of Z_m for θ ≠ 0.
    """
    box = sys.group.folner_range(n)
    theta = np.angle(sys.spectrum.chars)
    return (np.exp(0.5j * (box[0] + box[-1]) * theta)
            * np.sinc(len(box) * theta / (2 * np.pi)) / np.sinc(theta / (2 * np.pi))).prod(axis=1)


def folner_mean(sys: FiniteSystem, n: int) -> np.ndarray:
    """Mean of U_g over the n-th Folner set: C⁻¹·Q·diag(m)·Q*·C, with Q the
    joint eigenbasis of `sys.spectrum`, C the Cholesky factor and m the
    `_mean_characters`."""
    space, Q = sys.gns, sys.spectrum.onb
    return space.onb_factor_inv @ (Q * _mean_characters(sys, n)) @ Q.conj().T @ space.onb_factor


def _linkage(points: np.ndarray) -> np.ndarray:
    """Single-linkage classes of the rows of an (n, k) array at EIG_CLUSTER_TOL.

    Two rows share a class when a chain of rows links them, each step
    closer than EIG_CLUSTER_TOL in every coordinate, so every row lies in
    exactly one class. Each row is labelled with the smallest row index of
    its class: the least label among a row's neighbours spreads until no
    label changes.
    """
    near = abs(points[:, None, :] - points[None, :, :]).max(axis=2) < EIG_CLUSTER_TOL
    labels = np.arange(len(points))
    while True:
        spread = np.where(near, labels, len(points)).min(axis=1)
        if (spread == labels).all():
            return labels
        labels = spread


@dataclass
class PointSpectrumEntry:
    eigenvalue: tuple[complex, ...]
    multiplicity: int
    eigenvectors: np.ndarray  # canonical GNS coordinates, Gram-orthonormal columns


@dataclass
class Spectrum:
    """Joint eigenbasis of a system's GNS unitaries.

    Column j of `onb` is a joint eigenvector in orthonormal coordinates,
    with characters `chars[j]`, one per generator. `classes` partitions the
    columns by character; every question of equal characters, and of
    characters equal to 1, reads it. `fixed_basis` rotates the fixed class
    to start with Ω; `fixed_point_algebra` and `values` read it. `entries`
    groups the columns by class, as `point_spectrum` reports them. Each is
    built on first read, since the tangent space of a joining reads only
    the characters and `values`.
    """

    onb: np.ndarray      # (d, d) unitary
    chars: np.ndarray    # (d, number of generators), of modulus 1
    space: GnsSpace

    @functools.cached_property
    def fixed_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the fixed class, the first Ω, read-only:
        Ω takes the place of the fixed column it overlaps most, which keeps
        the span, and QR with a positive diagonal starts the basis with it."""
        F = self.onb[:, self.fixed]
        omega = self.space.onb_factor @ self.space.cyclic_vector
        j = abs(omega.conj() @ F).argmax()
        q, r = np.linalg.qr(np.column_stack([omega, np.delete(F, j, axis=1)]))
        q = q * (np.diagonal(r) / abs(np.diagonal(r)))
        q.flags.writeable = False
        return q

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Column j: x = Cᵀ·conj(q_j) for the Cholesky factor C, scaled to
        unit norm, read-only, with q_j from `fixed_basis` on the fixed class,
        so column fixed[0] is Ω's and the others are orthogonal to Ω. The x_i
        = ⟨q_j, C·e_i⟩ are the values of a ↦ ⟨q_j, γ(a)⟩ on the basis, and
        Uᵀx = χx for each generator."""
        Q = self.onb.copy()
        Q[:, self.fixed] = self.fixed_basis
        X = self.space.onb_factor.T @ Q.conj()
        X /= np.linalg.norm(X, axis=0)
        X.flags.writeable = False
        return X

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """Class label of each column: single linkage of the characters at
        EIG_CLUSTER_TOL (`_linkage`)."""
        return _linkage(self.chars)

    @functools.cached_property
    def fixed(self) -> np.ndarray:
        """Indices of the columns that span the fixed space, read-only: the
        class of the column whose characters lie nearest 1."""
        nearest = abs(self.chars - 1).max(axis=1).argmin()
        out = np.flatnonzero(self.classes == self.classes[nearest])
        out.flags.writeable = False
        return out

    @functools.cached_property
    def entries(self) -> list[PointSpectrumEntry]:
        """Columns grouped by class, each group with its normalized mean
        character, sorted lexicographically by (Re, Im) of each generator
        coordinate."""
        # canonical coordinates, phases fixed: the first entry above 1e-10 of
        # each column is made real positive, exactly
        V = self.space.onb_factor_inv @ self.onb
        first, cols = np.argmax(abs(V) > 1e-10, axis=0), np.arange(V.shape[1])
        lead = V[first, cols]
        V = V * (abs(lead) / lead)
        V[first, cols] = abs(lead)
        labels = self.classes
        members = labels == np.flatnonzero(labels == np.arange(len(labels)))[:, None]
        sums = members @ self.chars
        counts = members.sum(axis=1).tolist()
        # the columns of each class, in class order: a stable sort by label
        V = V[:, np.argsort(labels, kind="stable")]
        entries = [PointSpectrumEntry(eigenvalue=tuple(chi), multiplicity=m,
                                      eigenvectors=V[:, end - m:end])
                   for chi, m, end in zip((sums / abs(sums)).tolist(), counts,
                                          itertools.accumulate(counts))]
        entries.sort(key=lambda e: [(round(v.real, 10), round(v.imag, 10)) for v in e.eigenvalue])
        return entries


def _compressions(W: np.ndarray, Q: np.ndarray):
    """C_k = Q*·W_k·Q for a unitary Q and a (k, d, d) stack W, with the
    characters (the diagonals, one row per column of Q) and each column's
    residual ‖W_k q − χ_k q‖, the norm of its off-diagonal part, largest
    over the generators."""
    C = Q.conj().T @ (W @ Q)
    chars = np.diagonal(C, axis1=1, axis2=2).T
    off = C * (1 - np.eye(len(Q)))
    # the column norms as `np.linalg.norm(off, axis=1)` takes them
    return C, chars, np.sqrt(np.add.reduce((off.conj() * off).real, axis=1)).max(axis=0)


def _split(W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning B in which every W_k is diagonal.

    B spans a sum of joint eigenspaces. The Hermitian and skew-Hermitian
    parts of each W_k, compressed to B, are diagonalised in turn, and every
    split keeps eigenvalues closer than EIG_CLUSTER_TOL together.
    """
    spaces = [B]
    for U in W:
        for part in ((U + U.conj().T) / 2, (U - U.conj().T) / 2j):
            refined = []
            for S in spaces:
                vals, V = np.linalg.eigh(S.conj().T @ part @ S)
                cuts = np.flatnonzero(np.diff(vals) > EIG_CLUSTER_TOL) + 1
                refined.extend(np.split(S @ V, cuts, axis=1))
            spaces = refined
    return np.hstack(spaces)


def _polish(Q: np.ndarray, C: np.ndarray, chars: np.ndarray) -> np.ndarray | None:
    """One first-order step towards joint eigenvectors, made orthonormal
    again; None when every entry of the step is below POLISH_MIN, since
    the eigenspaces are then already that close to exact ones.

    Column j gains Σ_i q_i·C_ij/(χ_j − χ_i) over the columns i whose
    characters differ from its own by EIG_CLUSTER_TOL or more, with the
    generator k that separates the two most. Two eigenvectors of the
    Hermitian combination whose eigenvalues lie g apart mix by about
    ε/g; the step leaves that mixing squared.
    """
    diff = chars[None, :, :] - chars[:, None, :]   # [i, j, k] = χ_k(j) − χ_k(i)
    j = np.arange(len(chars))
    i = j[:, None]
    k = abs(diff).argmax(axis=2)
    sep = diff[i, j, k]
    Z = np.divide(C[k, i, j], sep, out=np.zeros_like(sep), where=abs(sep) >= EIG_CLUSTER_TOL)
    if abs(Z).max() < POLISH_MIN:
        return None
    return np.linalg.qr(Q + Q @ Z)[0]


def joint_spectrum(sys: FiniteSystem) -> Spectrum:
    """The joint point spectrum from one `eigh`; read it as `sys.spectrum`.

    The Hermitian H = Σ_k Re(e^{-ik}·W_k) over the orthonormal-coordinate
    unitaries W_k = C·U_k·C⁻¹ (generators counted from k = 1) has eigenvalue
    Σ_k cos(θ_k − k) on the joint eigenvector of characters e^{iθ_k}. The
    angles are k radians, so no two roots of unity give one eigenvalue of
    H. The characters are the Rayleigh quotients of its eigenvectors. A
    vector that is not an eigenvector of every W_k to NULLSPACE_TOL comes
    from a cluster of H that mixes characters: the eigenvectors of H within
    SPLIT_WINDOW of it are split by `_split`. A first-order step
    (`_polish`) then removes what rounding mixed across nearby eigenvalues
    of H, and the residuals are checked again.
    """
    space = sys.gns
    W = np.array([space.onb_factor @ U @ space.onb_factor_inv for U in sys.generator_matrices])
    X = np.exp(-1j * np.arange(1, len(W) + 1))[:, None, None] * W
    vals, Q = np.linalg.eigh(((X + X.conj().swapaxes(-1, -2)) / 2).sum(axis=0))
    C, chars, residual = _compressions(W, Q)
    if (residual > NULLSPACE_TOL).any():
        runs = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > SPLIT_WINDOW) + 1)
        for run in runs:
            if (residual[run] > NULLSPACE_TOL).any():
                Q[:, run] = _split(W, Q[:, run])
        C, chars, residual = _compressions(W, Q)
    polished = _polish(Q, C, chars)
    if polished is not None:
        Q = polished
        _, chars, residual = _compressions(W, Q)
    if (residual > NULLSPACE_TOL).any():
        raise NcjoinError(
            f"joint eigenvectors have residual {residual.max():.3e} > {NULLSPACE_TOL}; "
            "the generators do not share an eigenbasis")
    return Spectrum(onb=Q, chars=chars / abs(chars), space=space)


def point_spectrum(sys: FiniteSystem) -> list[PointSpectrumEntry]:
    """Joint eigenvalues of the GNS unitaries, with eigenspaces.

    Entries are sorted lexicographically by (Re, Im) of each generator
    coordinate. Eigenvector phases are fixed by making the first nonzero
    canonical coordinate real positive. Read from the system's cached
    `spectrum`.
    """
    return list(sys.spectrum.entries)


def point_spectrum_overlap(entries_a, entries_b):
    """Character tuples occurring in both spectra (compared within EIG_CLUSTER_TOL)."""
    common = []
    for ea in entries_a:
        for eb in entries_b:
            if len(ea.eigenvalue) == len(eb.eigenvalue) and all(
                    abs(x - y) < EIG_CLUSTER_TOL for x, y in zip(ea.eigenvalue, eb.eigenvalue)):
                common.append(ea.eigenvalue)
                break
    return common


def fixed_point_algebra(sys: FiniteSystem) -> list[AlgebraElement]:
    """Gram-orthonormal basis of {a : α_g(a) = a for all generators}.

    It is `sys.spectrum.fixed_basis`, the fixed-space columns of the
    spectrum rotated to start with Ω, so the first basis element is the
    identity (its μ-norm is 1). The span is closed under adjoints since
    every α_g is *-preserving.
    """
    basis = sys.gns.onb_factor_inv @ sys.spectrum.fixed_basis
    return [sys.structure.from_coords(v) for v in basis.T]


@dataclass
class Classification:
    ergodic: bool
    weakly_mixing: bool
    discrete_spectrum: bool
    compact: bool
    fixed_algebra_dimension: int
    h0_dimension: int
    notes: tuple[str, ...] = ()


def classify_finite(sys: FiniteSystem) -> Classification:
    """Classify by fixed-point dimension and the span of joint eigenvectors.

    The fixed-point dimension is the size of the fixed class of the
    spectrum (`Spectrum.fixed`). In finite dimension every orbit closure is
    compact, so the compactness flag is always true. All supported group
    descriptors are abelian, so discrete spectrum and compactness must
    agree; the joint eigenvectors of commuting unitaries span everything
    and h0 equals the full dimension
    (`joint_spectrum` raises when its eigenvectors are not joint ones).
    """
    spec = point_spectrum(sys)
    h0 = sum(e.multiplicity for e in spec)
    fixed_dim = len(sys.spectrum.fixed)
    d = sys.dimension
    notes = (
        "finite dimension: compact is automatic (every bounded orbit is totally bounded)",
        "abelian action: discrete spectrum equals compactness, both hold",
    )
    return Classification(
        ergodic=(fixed_dim == 1),
        weakly_mixing=(h0 == 1),
        discrete_spectrum=(h0 == d),
        compact=True,
        fixed_algebra_dimension=fixed_dim,
        h0_dimension=h0,
        notes=notes,
    )


@dataclass
class CesaroResult:
    value: complex
    deviation: float
    remainder_bound: float


def cesaro_correlation(sys: FiniteSystem, x, y, n: int) -> CesaroResult:
    """Average ⟨U_g x, y⟩ over the n-th Folner set, against its limit ⟨P₁x, y⟩,
    P₁ the projection onto the fixed space, from `sys.spectrum`.

    Split off Ω: x′ = x − ⟨Ω, x⟩Ω and y′ likewise, and let a = Q*·C·x′ and
    b = Q*·C·y′ in the joint eigenbasis Q, with w_j = conj(a_j)·b_j. The
    limit is ⟨x, Ω⟩⟨Ω, y⟩ + Σ w_j over the fixed columns, and the average
    adds Σ w_j·conj(m_j) over the others, m the `_mean_characters`. deviation
    is the modulus of that sum. By Cauchy–Schwarz it is at most
    ‖x‖‖y‖·max |m_j| over the columns that are not fixed; remainder_bound is that
    product times 1 + 8(d + 2)ε, d the dimension and ε the machine epsilon,
    for the rounding of the d-term sums and of the norms. Both are 0 when
    every column is fixed.
    """
    space, spec = sys.gns, sys.spectrum
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    omega = space.cyclic_vector
    to_columns = spec.onb.conj().T @ space.onb_factor
    w = ((to_columns @ (x - space.inner(omega, x) * omega)).conj()
         * (to_columns @ (y - space.inner(omega, y) * omega)))
    m = _mean_characters(sys, n).conj()
    m[spec.fixed] = 0   # the fixed columns make up the limit
    limit = space.inner(x, omega) * space.inner(omega, y) + complex(w[spec.fixed].sum())
    remainder = complex(w @ m)
    bound = space.norm(x) * space.norm(y) * float(abs(m).max())
    return CesaroResult(value=limit + remainder, deviation=abs(remainder),
                        remainder_bound=float(bound * (1 + 8 * (len(w) + 2) * np.finfo(float).eps)))


@dataclass
class MirrorSystem:
    """Commutant picture of a system, realized on its own block structure.

    The commutant of the left representation on the GNS space consists of
    the right multiplications R_b, with the mirror state μ̃(X) = ⟨Ω, XΩ⟩ and
    the mirror dynamics X ↦ U X U⁻¹. The *-preserving identification sends
    the promoted basis element f to R_{ρ^{1/2} transpose(f) ρ^{-1/2}} (the
    modular conjugation composed with the adjoint of the left action), a
    unital *-isomorphism onto the commutant that carries the promoted state
    and dynamics to the mirror ones. `promoted` has density transpose(ρ)
    and conjugators conj(u); column j of `twist` holds the coordinates of
    the twisted element for f = e_j: `modular_group` at z = 1/2 composed
    with a ↦ a*, so J is x ↦ twist·conj(x). The ρ^{1/2} twist is invisible
    for tracial states.
    """

    promoted: FiniteSystem
    twist: np.ndarray


def mirror_system(sys: FiniteSystem) -> MirrorSystem:
    """The promoted mirror and its twist, read off the state and generators
    without GNS data; raises InputFormatError if the system is invalid."""
    require_valid(sys)
    struct = sys.structure
    # ρᵀ is one permutation of the checked vector of ρ, and conj(u) = (u*)ᵀ
    promoted_gens = [Automorphism(struct, gen.block_perm, gen.conjugator.adjoint().transpose())
                     for gen in sys.generators]
    promoted = FiniteSystem(struct, FaithfulState(struct, sys.state.density.transpose()),
                            sys.group, promoted_gens)
    # ρᵀ has the eigenvalues, trace and Hermiticity residual of ρ, conj(u) the
    # unitarity residuals of u, and μ'(α'(E_ab)) = μ(α(E_ba)): every validated
    # invariant holds for the promoted system exactly when it holds for sys
    object.__setattr__(promoted, "validation", sys.validation)
    twist = modular_group(sys, 0.5)[0][:, struct.adjoint_indices]
    twist.flags.writeable = False   # every reader of `sys.mirror` shares it
    return MirrorSystem(promoted=promoted, twist=twist)


def eigenoperator(sys: FiniteSystem, chi) -> AlgebraElement:
    """Unitary u with α_g(u) = χ(g) u, for a multiplicity-one eigenvalue.

    u*u is scalar whenever the system is ergodic; the returned u is the
    normalization u/‖u‖ and is verified unitary. Raises NcjoinError when χ is
    not in the point spectrum, has multiplicity above one, or u*u is not
    scalar (the last signals a non-ergodic system).
    """
    if isinstance(chi, (int, float, complex)):
        chi = (complex(chi),)
    chi = tuple(complex(v) for v in chi)
    spec = point_spectrum(sys)
    match = None
    for entry in spec:
        if len(entry.eigenvalue) == len(chi) and all(
                abs(a - b) < 1e-6 for a, b in zip(entry.eigenvalue, chi)):
            match = entry
            break
    if match is None:
        raise NcjoinError(f"{chi} is not in the point spectrum")
    if match.multiplicity != 1:
        raise NcjoinError(
            f"{chi} has multiplicity {match.multiplicity}; eigenoperator is ambiguous")
    u0 = sys.structure.from_coords(match.eigenvectors[:, 0])
    p = u0.adjoint() @ u0
    scale = complex(sys.state.value(p))
    ident = sys.structure.identity()
    if (p - scale * ident).norm() > 1e-8 * max(1.0, abs(scale)):
        raise NcjoinError("u*u is not scalar; the system is not ergodic")
    if scale.real <= 0:
        raise NcjoinError("u*u is a nonpositive scalar; eigenvector is degenerate")
    u = (1.0 / math.sqrt(scale.real)) * u0
    if (u @ u.adjoint() - ident).norm() > 1e-8:
        raise NcjoinError("uu* is not the identity; the system is not ergodic")
    return u


def spectral_atoms(u: AlgebraElement):
    """Spectral decomposition of a unitary element: [(value, projector), ...].

    The eigenvalues of all blocks are partitioned by single linkage at
    EIG_CLUSTER_TOL (`_linkage`), so each lies in exactly one atom. Atoms
    come in lexicographic (Re, Im) order, each valued at its first
    eigenvalue in that order. Projectors are Hermitian idempotents obtained
    blockwise; degenerate clusters are re-orthonormalized.
    """
    ident = u.structure.identity()
    if (u.adjoint() @ u - ident).norm() > 1e-8:
        raise NcjoinError("element is not unitary within tolerance")
    per_block = [np.linalg.eig(b) for b in u.blocks]
    vals = np.concatenate([v for v, _ in per_block])
    order = sorted(range(len(vals)), key=lambda j: (round(vals[j].real, 12),
                                                    round(vals[j].imag, 12)))
    first = _linkage(vals[order, None])   # the sorted position of each atom's first value
    labels = np.empty_like(first)
    labels[order] = first
    per_block_labels = np.split(labels, np.cumsum(u.structure.block_sizes)[:-1])
    out = []
    for atom in np.flatnonzero(first == np.arange(len(first))):
        blocks = []
        for (_, vecs), lab in zip(per_block, per_block_labels):
            q, _ = np.linalg.qr(vecs[:, lab == atom])
            blocks.append(q @ q.conj().T)
        out.append((complex(vals[order[atom]]), AlgebraElement(u.structure, blocks)))
    return out


def spectral_interval_projection(u: AlgebraElement, theta1: float,
                                 theta2: float) -> AlgebraElement:
    """Sum of the spectral projections of u with argument in (theta1, theta2].

    Arguments of unitary eigenvalues live in (-pi, pi], so theta1 = -pi is
    allowed and acts as an open endpoint; partitions of the full circle can
    therefore start at -pi.
    """
    if not (-math.pi <= theta1 < theta2 <= math.pi):
        raise ValueError("need -pi <= theta1 < theta2 <= pi")
    proj = u.structure.zero()
    for v, p in spectral_atoms(u):
        arg = math.atan2(v.imag, v.real)
        if theta1 < arg <= theta2:
            proj = proj + p
    return proj


@dataclass
class SpectralCovarianceReport:
    atom_residual: float
    grid_commutation_residual: float
    atoms: int


def verify_spectral_covariance(sys: FiniteSystem, u: AlgebraElement, chi: complex,
                               n: int, grid: int = 12) -> SpectralCovarianceReport:
    """Residuals of α^n E({v}) = E({χ^n v}) and of interval-projection commutation.

    Requires a Z action with α(u) = χ u already established; that
    precondition is re-checked. The grid part partitions (-π, π] into `grid`
    half-open cells and reports max ‖P α^n(P) - α^n(P) P‖ over the cells.
    u is decomposed once, and α^n(E) of each atom E is read off the power
    table of the generator's matrix; a cell's P and α^n(P) are sums of these.
    """
    if sys.group.kind != "Z":
        raise InputFormatError("spectral covariance check needs a Z action")
    chi = complex(chi)
    U = sys.generator_matrices[0]
    s = u.structure
    if (s.from_coords(U @ u.coords()) - chi * u).norm() > 1e-8:
        raise NcjoinError("precondition failed: alpha(u) != chi * u")
    U_n = powers(U, n, n)[0]
    atoms = spectral_atoms(u)
    moved = [s.from_coords(U_n @ proj.coords()) for _, proj in atoms]
    atom_res = 0.0
    for (v, _), image in zip(atoms, moved):
        # α^n composed with the spectral measure rotates atoms by χ^{-n}:
        # matching coefficients in α^n(u) = χ^n u gives α^n(E({v})) = E({χ^{-n} v}).
        target = chi ** (-n) * v
        best = min(atoms, key=lambda a: abs(a[0] - target))
        atom_res = max(atom_res, (image - best[1]).norm())
    args = [math.atan2(v.imag, v.real) for v, _ in atoms]
    grid_res = 0.0
    for j in range(grid):
        t1 = -math.pi + 2 * math.pi * j / grid
        t2 = -math.pi + 2 * math.pi * (j + 1) / grid
        cell = [k for k, arg in enumerate(args) if t1 < arg <= t2]
        P = sum((atoms[k][1] for k in cell), s.zero())
        Q = sum((moved[k] for k in cell), s.zero())
        grid_res = max(grid_res, (P @ Q - Q @ P).norm())
    return SpectralCovarianceReport(
        atom_residual=atom_res,
        grid_commutation_residual=grid_res,
        atoms=len(atoms),
    )


def _density_powers(sys: FiniteSystem, *zs: complex) -> list[AlgebraElement]:
    """ρ^z for each z of zs, from one batched eigendecomposition per block size."""
    coords = np.empty((len(zs), sys.dimension), dtype=complex)
    for g, x in zip(sys.structure.size_groups, sys.state.density.stacks()):
        vals, vecs = _eigh((x + x.conj().swapaxes(-1, -2)) / 2)
        logs, vecs_h, eye = np.log(vals), vecs.conj().swapaxes(-1, -2), np.eye(g.size)
        for out, z in zip(coords, zs):
            # a diagonal factor, not a column scaling: for real z this rounds
            # exactly as the per-block reference in tests/oracles.py
            diag = np.exp(z * logs)[:, :, None] * eye
            out[g.units] = (vecs @ diag @ vecs_h).reshape(len(x), -1)
    return [AlgebraElement.of_vector(sys.structure, out) for out in coords]


def modular_group(sys: FiniteSystem, *zs: complex) -> list[np.ndarray]:
    """Coordinate matrix of a ↦ ρ^z·a·ρ^{-z} for each z of zs, from one
    `_density_powers` call; raises InputFormatError if the system is invalid.

    z = it gives the modular automorphism σ_t, z = 1 the modular operator Δ,
    and z = 1/2 composed with a ↦ a* the modular conjugation J, which the
    mirror keeps as its `twist`.
    """
    require_valid(sys)
    rho = _density_powers(sys, *(w for z in zs for w in (z, -z)))
    return [sandwich_matrix(left, right) for left, right in zip(rho[::2], rho[1::2])]


@dataclass
class ModularInvarianceResult:
    sigma_residual: float
    conjugation_vector_residual: float
    t_samples: tuple[float, ...]


def modular_invariance_check(sys: FiniteSystem, P: AlgebraElement) -> ModularInvarianceResult:
    """max_t ‖σ_t(P) - P‖ for a projection P, plus the J P Ω = P Ω residual.

    σ_t at every t of SIGMA_SAMPLES comes from one `modular_group` call,
    and J is the mirror's `twist`.
    """
    ident_res = max((P @ P - P).norm(), (P.adjoint() - P).norm())
    if ident_res > 1e-8:
        raise NcjoinError(f"P is not a projection (residual {ident_res:.3e})")
    sigma = modular_group(sys, *(1j * t for t in SIGMA_SAMPLES))
    res = max((sys.structure.from_coords(s @ P.coords()) - P).norm() for s in sigma)
    vec_res = sys.gns.norm(sys.mirror.twist @ P.coords().conj() - P.coords())
    return ModularInvarianceResult(
        sigma_residual=res,
        conjugation_vector_residual=vec_res,
        t_samples=SIGMA_SAMPLES,
    )


def asymptotic_abelianness_profile(sys: FiniteSystem, a: AlgebraElement,
                                   b: AlgebraElement, n_max: int) -> list[float]:
    """Averages (1/|Λ_n|) Σ_{g in Λ_n} ‖[a, α_g(b)]‖ for n = 1..n_max.

    The norm is the operator norm, exact via singular values. Folner boxes
    follow the group descriptor and are nested, so the norms are computed
    once on the largest box, with α_g(b) from power tables of the generator
    matrices; no GNS data is built.
    """
    group = sys.group
    images = element_matrices(sys.generator_matrices, group.folner_elements(n_max)) @ b.coords()
    norms = np.array([(a @ bg - bg @ a).norm() for bg in map(sys.structure.from_coords, images)])
    norms = norms.reshape((len(group.folner_range(n_max)),) * group.k)
    return [float(np.mean(norms[(slice(len(group.folner_range(n))),) * norms.ndim]))
            for n in range(1, n_max + 1)]
