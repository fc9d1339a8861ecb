"""GNS construction, unitary dynamics, point spectrum, and classification.

The GNS space of (A, μ) is A itself with inner product ⟨a, b⟩ = μ(a* b),
antilinear in the first argument. Coordinates are always with respect to the
canonical matrix-unit basis, so the inner product is the Gram matrix
G_ij = μ(e_i* e_j). A Cholesky factor C with G = C* C converts to
orthonormal coordinates where standard numpy eigensolvers apply.

Library functions read a system's GNS pair, joint point spectrum and
mirror from `sys.gns`, `sys.spectrum` and `sys.mirror`, built once per
system object; `gns_construct`, `joint_spectrum` and `mirror_system` are
the uncached builders behind them. The GNS unitaries are kept in canonical
coordinates only. The spectrum takes one `eigh` of a Hermitian
combination of their orthonormal-coordinate images C·U·C⁻¹; it classifies
the system and gives the eigenvectors from which a joining's tangent space
is built. The promoted mirror shares its system's validation report.
Neither a GnsSpace, a Spectrum nor a MirrorSystem refers back to its
system, so the cache forms no cycle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    require_valid,
    sandwich_matrix,
)
from .errors import (
    AmbiguousEigenvalueError,
    NcjoinError,
    NonProjectionError,
    NonScalarError,
    NonUnitaryError,
    NotInSpectrumError,
    UnsupportedGroupError,
)

EIG_CLUSTER_TOL = 1e-8
NULLSPACE_TOL = 1e-8
SPLIT_WINDOW = 1e-6   # eigh eigenvalues this close may share a cluster that mixes characters
POLISH_MIN = 1e-13    # a first-order eigenvector correction below this is not taken
SIGMA_SAMPLES = (0.1, 0.7, 1.3)   # the times t at which σ_t(P) = P is checked
NET_WINDOW = 512                  # group elements of an infinite orbit in compactness_net


@dataclass
class GnsSpace:
    """Inner-product space carrying the left representation of the algebra.

    gram[i, j] = μ(e_i* e_j); cyclic_vector is γ(1). onb_factor is the
    upper-triangular C with gram = C* C. Left multiplication by a is
    `sandwich_matrix(a, 1)` in canonical coordinates.
    """

    structure: BlockStructure
    dimension: int
    gram: np.ndarray
    cyclic_vector: np.ndarray
    onb_factor: np.ndarray
    onb_factor_inv: np.ndarray

    def gamma(self, a: AlgebraElement) -> np.ndarray:
        return a.coords()

    def element(self, coords) -> AlgebraElement:
        return self.structure.from_coords(coords)

    def inner(self, x, y) -> complex:
        return complex(np.asarray(x).conj() @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x).real, 0.0))

    def to_onb(self, x) -> np.ndarray:
        return self.onb_factor @ np.asarray(x, dtype=complex)

    def from_onb(self, x) -> np.ndarray:
        return self.onb_factor_inv @ np.asarray(x, dtype=complex)


@dataclass
class UnitaryRep:
    """One matrix per generator, acting on canonical GNS coordinates.

    Group elements get their matrices from power tables: a generator's
    powers over an exponent range cost one `matrix_power` at its start and
    one matmul per further step. Følner means need only each generator's
    power sum over its box, which doubling gets in O(log N) matmuls.
    """

    matrices: list[np.ndarray]

    def powers(self, k: int, lo: int, hi: int) -> np.ndarray:
        """Stack of U_k^j for j = lo..hi, built by running products."""
        U = self.matrices[k]
        table = np.empty((hi - lo + 1,) + U.shape, dtype=complex)
        base = U if lo >= 0 else np.linalg.inv(U)
        table[0] = np.linalg.matrix_power(base, abs(lo))
        for s in range(1, len(table)):
            table[s] = table[s - 1] @ U
        return table

    def of_elements(self, elements) -> np.ndarray:
        """Stack of U_g over exponent tuples g, one power table per generator."""
        exps = np.array(elements, dtype=int).reshape(len(elements), -1)
        out = None
        for k, col in enumerate(exps.T):
            step = self.powers(k, col.min(), col.max())[col - col.min()]
            out = step if out is None else out @ step
        return out

    def power_sum(self, k: int, lo: int, hi: int) -> np.ndarray:
        """Σ U_k^j over j = lo..hi (0 ≤ lo ≤ hi), by binary doubling.

        Reading the bits of the count m = hi − lo + 1 from the top, the sum
        S_m = Σ_{j<m} U^j and the power U^m double as S_2m = S_m + U^m·S_m,
        and a set bit adds U^2m; so the sum takes O(log m) matmuls.
        """
        U = self.matrices[k]
        total, power = np.eye(len(U), dtype=complex), U
        for bit in bin(hi - lo + 1)[3:]:
            total = total + power @ total
            power = power @ power
            if bit == "1":
                total = total + power
                power = power @ U
        return np.linalg.matrix_power(U, lo) @ total

    def folner_mean(self, group, n: int) -> np.ndarray:
        """Mean of U_g over the n-th Folner set, a box of exponent ranges.

        By distributivity the mean of the products U_1^{g_1}⋯U_k^{g_k} over
        a box is the product of the generators' mean powers.
        """
        box = group.folner_range(n)
        return functools.reduce(np.matmul, (
            self.power_sum(k, box[0], box[-1]) / len(box) for k in range(len(self.matrices))))


def gns_construct(sys: FiniteSystem) -> tuple[GnsSpace, UnitaryRep]:
    """Build the GNS data; the unitaries U_g γ(a) = γ(α_g(a)) of the
    generators are the system's `generator_matrices`."""
    require_valid(sys)
    struct = sys.structure
    rows, cols = np.nonzero(struct.block_mask)   # of the matrix units, in canonical order
    # e_i* e_j = E_{c_i c_j} when e_i, e_j share a row, so μ(e_i* e_j) = ρ[c_j, c_i]
    rho = sys.state.density_element().block_matrix()
    gram = np.where(rows[:, None] == rows, rho[cols[None, :], cols[:, None]], 0)

    onb = np.linalg.cholesky(gram).conj().T
    space = GnsSpace(structure=struct, dimension=struct.dimension, gram=gram,
                     cyclic_vector=struct.identity().coords(), onb_factor=onb,
                     onb_factor_inv=np.linalg.inv(onb))

    return space, UnitaryRep(matrices=list(sys.generator_matrices))


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
    characters equal to 1, reads it. `entries` groups the columns by class,
    as `point_spectrum` reports them; both are built on first read, since
    the tangent space of a joining reads only the columns and `values`.
    """

    onb: np.ndarray      # (d, d) unitary
    chars: np.ndarray    # (d, number of generators), of modulus 1
    space: GnsSpace

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Column j: x = Cᵀ·conj(q_j) for the Cholesky factor C, scaled to
        unit norm, read-only. x_i = ⟨q_j, C·e_i⟩ are the values on the basis
        of the functional a ↦ ⟨q_j, γ(a)⟩, and Uᵀx = χx for each generator."""
        X = self.space.onb_factor.T @ self.onb.conj()
        X /= np.linalg.norm(X, axis=0)
        X.flags.writeable = False
        return X

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """Class label of each column: single linkage of the characters at
        EIG_CLUSTER_TOL (`_linkage`)."""
        return _linkage(self.chars)

    @property
    def fixed(self) -> np.ndarray:
        """Indices of the columns that span the fixed space: the class of
        the column whose characters lie nearest 1."""
        nearest = abs(self.chars - 1).max(axis=1).argmin()
        return np.flatnonzero(self.classes == self.classes[nearest])

    @functools.cached_property
    def entries(self) -> list[PointSpectrumEntry]:
        """Columns grouped by class, each group with its normalized mean
        character, sorted lexicographically by (Re, Im) of each generator
        coordinate."""
        # canonical coordinates, phases fixed: the first entry above 1e-10 of
        # each column is made real positive, exactly
        V = self.space.from_onb(self.onb)
        first, cols = np.argmax(abs(V) > 1e-10, axis=0), np.arange(V.shape[1])
        lead = V[first, cols]
        V = V * (abs(lead) / lead)
        V[first, cols] = abs(lead)
        labels = self.classes
        members = labels == np.flatnonzero(labels == np.arange(len(labels)))[:, None]
        sums = members @ self.chars
        entries = [PointSpectrumEntry(eigenvalue=tuple(chi), multiplicity=m,
                                      eigenvectors=V[:, cols])
                   for chi, m, cols in zip((sums / abs(sums)).tolist(),
                                           members.sum(axis=1).tolist(), members)]
        entries.sort(key=lambda e: tuple(
            (round(v.real, 10), round(v.imag, 10)) for v in e.eigenvalue))
        return entries


def _compressions(W: np.ndarray, Q: np.ndarray):
    """C_k = Q*·W_k·Q for a unitary Q and a (k, d, d) stack W, with the
    characters (the diagonals, one row per column of Q) and each column's
    residual ‖W_k q − χ_k q‖, the norm of its off-diagonal part, largest
    over the generators."""
    C = Q.conj().T @ (W @ Q)
    chars = np.diagonal(C, axis1=1, axis2=2).T
    off = C * (1 - np.eye(len(Q)))
    return C, chars, np.linalg.norm(off, axis=1).max(axis=0)


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
    i, j = np.indices(diff.shape[:2])
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
    space, rep = sys.gns
    W = np.array([space.onb_factor @ U @ space.onb_factor_inv for U in rep.matrices])
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

    It spans the fixed-space columns of `sys.spectrum` (`Spectrum.fixed`).
    The first basis element is the identity (its μ-norm is 1). The span is
    closed under adjoints since every α_g is *-preserving.
    """
    space, spec = sys.gns[0], sys.spectrum
    F = spec.onb[:, spec.fixed]
    omega = space.to_onb(space.cyclic_vector)
    # Ω takes the place of the column it overlaps most, which keeps the span;
    # QR with a positive diagonal then starts the basis with Ω
    j = abs(omega.conj() @ F).argmax()
    q, r = np.linalg.qr(np.column_stack([omega, np.delete(F, j, axis=1)]))
    q = q * (np.diagonal(r) / abs(np.diagonal(r)))
    return [space.element(v) for v in space.from_onb(q).T]


@dataclass
class Classification:
    ergodic: bool
    weakly_mixing: bool
    discrete_spectrum: bool
    compact: bool
    fixed_algebra_dimension: int
    h0_dimension: int
    notes: tuple[str, ...] = ()
    # the joint eigenspaces the flags were read from, as `point_spectrum` gives them
    point_spectrum: list[PointSpectrumEntry] = field(default_factory=list, compare=False,
                                                     repr=False)


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
        point_spectrum=spec,
    )


def compactness_net(sys: FiniteSystem, eps: float = 0.1) -> list[int]:
    """Greedy eps-net sizes for the orbits of the basis vectors.

    Exercises total boundedness directly instead of quoting the
    finite-dimension shortcut. Orbits are enumerated over a symmetric window
    of about NET_WINDOW group elements (all of them for Z_m) and points
    farther than eps from the net extend it.
    """
    space, rep = sys.gns
    d = space.dimension
    group = sys.group
    if group.kind == "Zm":
        exponents = [(j,) for j in range(group.m)]
    elif group.kind == "Z":
        exponents = [(j,) for j in range(-NET_WINDOW // 2, NET_WINDOW // 2 + 1)]
    else:
        side = max(2, int(round(NET_WINDOW ** (1.0 / group.k))))
        rng = range(-side, side + 1)
        exponents = [tuple(t) for t in itertools.product(rng, repeat=group.k)]
    orbit = space.onb_factor @ rep.of_elements(exponents)   # orthonormal coordinates
    sizes = []
    for i in range(d):
        net: list[np.ndarray] = []
        for y in orbit[:, :, i]:
            if all(np.linalg.norm(y - z) > eps for z in net):
                net.append(y)
        sizes.append(len(net))
    return sizes


@dataclass
class CesaroResult:
    value: complex
    deviation: float
    bound: float
    ergodic: bool


def cesaro_correlation(sys: FiniteSystem, x, y, n: int) -> CesaroResult:
    """Average ⟨U_g x, y⟩ over the n-th Folner set.

    deviation is the distance to ⟨x, Ω⟩⟨Ω, y⟩, the ergodic limit; bound is
    the generic remainder estimate (2/n)·‖x‖‖y‖ reported alongside. A
    non-ergodic system is allowed but flagged, since the limit need not be
    the rank-one value there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    space, rep = sys.gns
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    value = space.inner(rep.folner_mean(sys.group, n) @ x, y)
    omega = space.cyclic_vector
    limit = space.inner(x, omega) * space.inner(omega, y)
    deviation = abs(value - limit)
    bound = 2.0 / n * space.norm(x) * space.norm(y)
    ergodic = len(sys.spectrum.fixed) == 1
    return CesaroResult(value=value, deviation=deviation, bound=bound, ergodic=ergodic)


@dataclass
class MirrorSystem:
    """Commutant picture of a system inside its own GNS space.

    commutant_basis spans π(A)' and is built only when read; the mirror
    state is μ̃(X) = ⟨Ω, XΩ⟩ and the mirror dynamics conjugates by the GNS
    unitaries. promoted realizes the same data as an ordinary system on the
    original block structure: the commutant consists of right
    multiplications R_b, and the *-preserving identification sends the
    promoted basis element f to R_{ρ^{1/2} transpose(f) ρ^{-1/2}} (the
    modular conjugation composed with the adjoint of the left action);
    column j of `twist` holds the coordinates of that twisted element for
    f = e_j. promoted has density transpose(ρ) and conjugators conj(u); the
    ρ^{1/2} twist is invisible for tracial states.
    """

    structure: BlockStructure
    promoted: FiniteSystem
    twist: np.ndarray
    _space: GnsSpace
    _rep: UnitaryRep

    @property
    def commutant_basis(self) -> list[np.ndarray]:
        """R_{e_j} over the canonical basis, built on each read."""
        return [self.right_mult_matrix(self.structure.basis_element(j))
                for j in range(self.structure.dimension)]

    def automorphism_image(self, gen_index: int, X: np.ndarray) -> np.ndarray:
        U = self._rep.matrices[gen_index]
        return U @ X @ np.linalg.inv(U)

    def state_of(self, X: np.ndarray) -> complex:
        omega = self._space.cyclic_vector
        return self._space.inner(omega, X @ omega)

    def right_mult_matrix(self, b: AlgebraElement) -> np.ndarray:
        """Matrix of x ↦ x·b in canonical GNS coordinates."""
        return sandwich_matrix(self.structure.identity(), b)

    def promoted_image(self, f: AlgebraElement) -> np.ndarray:
        """Commutant operator carrying a promoted element.

        f ↦ R_{ρ^{1/2} transpose(f) ρ^{-1/2}}; this is the composition of
        the modular conjugation with the adjoint of the left action and is a
        unital *-isomorphism onto the commutant.
        """
        return self.right_mult_matrix(self.structure.from_coords(self.twist @ f.coords()))


def mirror_system(sys: FiniteSystem) -> MirrorSystem:
    """Commutant of the left representation, with state and dynamics.

    The commutant of the left regular representation is the algebra of
    right multiplications, so its basis is R_{e_j} over the canonical basis.
    """
    space, rep = sys.gns
    struct = sys.structure
    promoted_state = FaithfulState(struct, [b.T.copy() for b in sys.state.density])
    promoted_gens = [
        Automorphism(struct, gen.block_perm, [u.conj() for u in gen.conjugator])
        for gen in sys.generators
    ]
    promoted = FiniteSystem(struct, promoted_state, sys.group, promoted_gens)
    # ρᵀ has the eigenvalues, trace and Hermiticity residual of ρ, conj(u) the
    # unitarity residuals of u, and μ'(α'(E_ab)) = μ(α(E_ba)): every validated
    # invariant holds for the promoted system exactly when it holds for sys
    object.__setattr__(promoted, "validation", sys.validation)

    return MirrorSystem(structure=struct, promoted=promoted, twist=_modular_conjugation(sys),
                        _space=space, _rep=rep)


def eigenoperator(sys: FiniteSystem, chi) -> AlgebraElement:
    """Unitary u with α_g(u) = χ(g) u, for a multiplicity-one eigenvalue.

    u*u is scalar whenever the system is ergodic; the returned u is the
    normalization u/‖u‖ and is verified unitary. Raises NotInSpectrumError,
    AmbiguousEigenvalueError, or NonScalarError (the latter signals a
    non-ergodic system).
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
        raise NotInSpectrumError(f"{chi} is not in the point spectrum")
    if match.multiplicity != 1:
        raise AmbiguousEigenvalueError(
            f"{chi} has multiplicity {match.multiplicity}; eigenoperator is ambiguous")
    u0 = sys.structure.from_coords(match.eigenvectors[:, 0])
    p = u0.adjoint() @ u0
    scale = complex(sys.state.value(p))
    ident = sys.structure.identity()
    if (p - scale * ident).norm() > 1e-8 * max(1.0, abs(scale)):
        raise NonScalarError("u*u is not scalar; the system is not ergodic")
    if scale.real <= 0:
        raise NonScalarError("u*u is a nonpositive scalar; eigenvector is degenerate")
    u = (1.0 / math.sqrt(scale.real)) * u0
    if (u @ u.adjoint() - ident).norm() > 1e-8:
        raise NonScalarError("uu* is not the identity; the system is not ergodic")
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
        raise NonUnitaryError("element is not unitary within tolerance")
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


def spectral_interval_projection(sys: FiniteSystem, u: AlgebraElement,
                                 theta1: float, theta2: float) -> AlgebraElement:
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
    """
    if sys.group.kind != "Z":
        raise UnsupportedGroupError("spectral covariance check needs a Z action")
    chi = complex(chi)
    alpha = sys.generators[0]
    if (alpha.apply(u) - chi * u).norm() > 1e-8:
        raise NcjoinError("precondition failed: alpha(u) != chi * u")
    alpha_n = alpha.power(n)
    atoms = spectral_atoms(u)
    atom_res = 0.0
    for v, proj in atoms:
        # α^n composed with the spectral measure rotates atoms by χ^{-n}:
        # matching coefficients in α^n(u) = χ^n u gives α^n(E({v})) = E({χ^{-n} v}).
        target = chi ** (-n) * v
        best = min(atoms, key=lambda a: abs(a[0] - target))
        atom_res = max(atom_res, (alpha_n.apply(proj) - best[1]).norm())
    grid_res = 0.0
    for j in range(grid):
        t1 = -math.pi + 2 * math.pi * j / grid
        t2 = -math.pi + 2 * math.pi * (j + 1) / grid
        P = spectral_interval_projection(sys, u, t1, t2)
        Q = alpha_n.apply(P)
        grid_res = max(grid_res, (P @ Q - Q @ P).norm())
    return SpectralCovarianceReport(
        atom_residual=atom_res,
        grid_commutation_residual=grid_res,
        atoms=len(atoms),
    )


@dataclass
class ModularData:
    """Modular objects of (A, μ) in canonical GNS coordinates.

    delta_matrix is the linear map a ↦ ρ a ρ^{-1}; the conjugation acts
    antilinearly as x ↦ conj_matrix · conj(x) and realizes
    a ↦ ρ^{1/2} a* ρ^{-1/2}. For block-scalar (tracial) densities the
    modular operator is the identity and J reduces to the adjoint.
    """

    system: FiniteSystem
    delta_matrix: np.ndarray
    conj_matrix: np.ndarray

    def apply_conjugation(self, coords) -> np.ndarray:
        return self.conj_matrix @ np.asarray(coords, dtype=complex).conj()

    def sigma(self, t: float, a: AlgebraElement) -> AlgebraElement:
        rho_it = _density_power(self.system, 1j * t)
        rho_mit = _density_power(self.system, -1j * t)
        return rho_it @ a @ rho_mit


def _density_power(sys: FiniteSystem, z: complex) -> AlgebraElement:
    """ρ^z from one batched eigendecomposition per block size."""
    coords = np.empty(sys.dimension, dtype=complex)
    for g, x in zip(sys.structure.size_groups, sys.state.stacks()):
        vals, vecs = np.linalg.eigh((x + x.conj().swapaxes(-1, -2)) / 2)
        # a diagonal factor, not a column scaling: for real z this rounds exactly
        # as the per-block reference in tests/oracles.py
        diag = np.exp(z * np.log(vals))[:, :, None] * np.eye(g.size)
        coords[g.units] = (vecs @ diag @ vecs.conj().swapaxes(-1, -2)).reshape(len(x), -1)
    return sys.structure.from_coords(coords)


def _modular_conjugation(sys: FiniteSystem) -> np.ndarray:
    """Column j: coordinates of ρ^{1/2}·e_j*·ρ^{-1/2}, with e_j* = transpose(e_j)."""
    return sandwich_matrix(_density_power(sys, 0.5),
                           _density_power(sys, -0.5))[:, sys.structure.adjoint_indices]


def modular_data(sys: FiniteSystem) -> ModularData:
    require_valid(sys)
    delta = sandwich_matrix(sys.state.density_element(), _density_power(sys, -1))
    return ModularData(system=sys, delta_matrix=delta, conj_matrix=_modular_conjugation(sys))


@dataclass
class ModularInvarianceResult:
    sigma_residual: float
    conjugation_vector_residual: float
    t_samples: tuple[float, ...]


def modular_invariance_check(sys: FiniteSystem, P: AlgebraElement) -> ModularInvarianceResult:
    """max_t ‖σ_t(P) - P‖ for a projection P, plus the J P Ω = P Ω residual."""
    ident_res = max((P @ P - P).norm(), (P.adjoint() - P).norm())
    if ident_res > 1e-8:
        raise NonProjectionError(f"P is not a projection (residual {ident_res:.3e})")
    md = modular_data(sys)
    space, _ = sys.gns
    res = max((md.sigma(t, P) - P).norm() for t in SIGMA_SAMPLES)
    jp = md.apply_conjugation(P.coords())
    vec_res = space.norm(jp - P.coords())
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
    once on the largest box, with α_g(b) from the GNS power tables.
    """
    group, (_, rep) = sys.group, sys.gns
    images = rep.of_elements(group.folner_elements(n_max)) @ b.coords()
    norms = np.array([(a @ bg - bg @ a).norm() for bg in map(sys.structure.from_coords, images)])
    norms = norms.reshape((len(group.folner_range(n_max)),) * group.num_generators)
    return [float(np.mean(norms[(slice(len(group.folner_range(n))),) * norms.ndim]))
            for n in range(1, n_max + 1)]
