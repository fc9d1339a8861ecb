"""Finite-dimensional *-algebras with a faithful state and automorphism group.

An algebra is a direct sum of full matrix blocks ``⊕_k M_{n_k}``. The
canonical basis consists of the matrix units of every block, ordered
block-major then row-major; all coordinate conventions downstream (GNS
spaces, joining matrices) refer to this ordering.

An automorphism is stored in the normal form ``a ↦ u · perm(a) · u*`` where
``perm`` permutes blocks of equal size and ``u`` is a block-diagonal unitary.
Every *-automorphism of a finite direct sum of matrix blocks is of this form.
The permutation uses the pull convention: output block ``k`` reads input
block ``perm[k]``. Its coordinate matrix (`Automorphism.matrix`) has the
block ``kron(u_k, conj(u_k))`` at (output block k, input block perm[k]); it
is the GNS unitary of the automorphism, and validation reads every
invariant from it and from the normal form, without applying the map to
basis elements.

Blockwise kernels run once per block size, not once per block: a
`BlockStructure` groups its blocks by size (`size_groups`), and norms,
eigenvalues and Kronecker products act on one ``(m, n, n)`` stack per size.
So the number of numpy calls of validation, the GNS unitaries and the
mirror does not grow with the number of blocks. A stack of 1×1 blocks
reads norms and eigenvalues off its entries where a larger one calls
LAPACK. An `AlgebraElement` is one flat vector: sums and scalar multiples
act on it directly, the adjoint and transpose are one permutation of it,
and its stacks are one fancy index per size.

A `FiniteSystem` is immutable and owns its derived data: its generators'
coordinate matrices, validation report, GNS space, joint point spectrum and
mirror system are each built on first use and kept on the instance; a
promoted mirror system shares the report of the system it mirrors. The
builders `validate_system`, `gns.gns_construct`, `gns.joint_spectrum` and
`gns.mirror_system` stay uncached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputFormatError, NcjoinError, StructureError

VALIDATION_TOL = 1e-9
FAITHFULNESS_MIN_EIG = 1e-12


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (m, n, n) stack."""
    if stack.shape[-1] == 1:
        return np.abs(stack[:, 0, 0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a stack, as `eigvalsh`;
    on 1×1 matrices the real part, the bits LAPACK returns."""
    if stack.shape[-1] == 1:
        return stack[..., 0].real
    return np.linalg.eigvalsh(stack)


def _eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh` of each Hermitian matrix of a stack; on 1×1 matrices
    `_eigvalsh` and eigenvectors 1, the bits LAPACK returns."""
    if stack.shape[-1] == 1:
        return _eigvalsh(stack), np.ones_like(stack)
    return np.linalg.eigh(stack)


def _inv_cholesky(stack: np.ndarray) -> np.ndarray:
    """L⁻¹ for the Cholesky factor F = L L* of each matrix of a stack; raises
    LinAlgError, as `cholesky` does, when one is not positive definite."""
    return np.linalg.inv(np.linalg.cholesky(stack))


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _kron_stack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kron(x_k, y_k) for each k of two (m, n, n) stacks, as one (m, n², n²) array."""
    m, n, _ = x.shape
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(m, n * n, n * n)


class SizeGroup(NamedTuple):
    """The blocks of one size n, in ascending order, and the canonical
    indices of their matrix units: row k of `units` lists block blocks[k]."""

    size: int
    blocks: np.ndarray   # (m,)
    units: np.ndarray    # (m, n²)


@dataclass(frozen=True)
class BlockStructure:
    """Shape of ``⊕_k M_{n_k}``; total dimension is the sum of squares."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_sizes) == 0:
            raise StructureError("block structure needs at least one block")
        for k, n in enumerate(self.block_sizes):
            if not isinstance(n, int) or n < 1:
                raise StructureError(f"block {k} has invalid size {n!r}")
        object.__setattr__(self, "block_sizes", tuple(self.block_sizes))

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def dimension(self) -> int:
        return sum(n * n for n in self.block_sizes)

    @property
    def matrix_size(self) -> int:
        """Side length of the block-diagonal matrix embedding."""
        return sum(self.block_sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Canonical index of the first matrix unit of every block."""
        return tuple(itertools.accumulate((n * n for n in self.block_sizes[:-1]), initial=0))

    @cached_property
    def size_groups(self) -> tuple[SizeGroup, ...]:
        """The blocks grouped by size, sizes in order of first appearance."""
        by_size: dict[int, list[int]] = {}
        for k, n in enumerate(self.block_sizes):
            by_size.setdefault(n, []).append(k)
        offs = self.offsets
        return tuple(
            SizeGroup(n, np.array(ks), np.array([offs[k] for k in ks])[:, None] + np.arange(n * n))
            for n, ks in by_size.items())

    def basis_index(self, block: int, row: int, col: int) -> int:
        n = self.block_sizes[block] if 0 <= block < self.num_blocks else 0
        if not (0 <= row < n and 0 <= col < n):
            raise IndexError(f"basis address {block, row, col} out of range for {self.block_sizes}")
        return self.offsets[block] + row * n + col

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.dimension:
            raise IndexError(f"basis index {i} out of range 0..{self.dimension - 1}")

    def basis_address(self, i: int) -> tuple[int, int, int]:
        """Inverse of basis_index: canonical index -> (block, row, col)."""
        self._check_index(i)
        return tuple(int(x[i]) for x in self.addresses)

    @cached_property
    def addresses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(block, row, col) arrays of every canonical index; basis_address, vectorized.
        Computed once per structure and shared: callers do not write to them."""
        sizes = np.array(self.block_sizes)
        k = np.repeat(np.arange(self.num_blocks), sizes ** 2)
        local = np.arange(self.dimension) - np.array(self.offsets)[k]
        return k, local // sizes[k], local % sizes[k]

    @cached_property
    def block_mask(self) -> np.ndarray:
        """The entries of the blocks in the block-diagonal matrix. Read in
        row-major order, they are the matrix units in canonical order."""
        block = np.repeat(np.arange(self.num_blocks), self.block_sizes)
        return block[:, None] == block

    @cached_property
    def adjoint_indices(self) -> np.ndarray:
        """Index of the adjoint (matrix-unit transpose) of every basis element:
        the units of each block, transposed as an n×n array."""
        out = np.empty(self.dimension, dtype=int)
        for g in self.size_groups:
            out[g.units] = g.units.reshape(-1, g.size, g.size).swapaxes(1, 2).reshape(g.units.shape)
        return out

    @cached_property
    def _identity_coords(self) -> np.ndarray:
        out = np.zeros(self.dimension, dtype=complex)
        for g in self.size_groups:
            out[g.units[:, ::g.size + 1]] = 1   # the diagonal units
        return out

    def zero(self) -> "AlgebraElement":
        return AlgebraElement.of_vector(self, np.zeros(self.dimension, dtype=complex))

    def identity(self) -> "AlgebraElement":
        return AlgebraElement.of_vector(self, self._identity_coords.copy())

    def basis_element(self, i: int) -> "AlgebraElement":
        self._check_index(i)
        v = np.zeros(self.dimension, dtype=complex)
        v[i] = 1.0
        return AlgebraElement.of_vector(self, v)

    def from_coords(self, v) -> "AlgebraElement":
        v = np.array(v, dtype=complex).reshape(-1)
        if v.size != self.dimension:
            raise NcjoinError(
                f"coordinate vector has length {v.size}, expected {self.dimension}")
        return AlgebraElement.of_vector(self, v)

    def from_block_matrix(self, m) -> "AlgebraElement":
        """Read the blocks off a block-diagonal matrix; off-block mass is an error."""
        m = _as_complex(m)
        size = self.matrix_size
        if m.shape != (size, size):
            raise StructureError(f"matrix shape {m.shape} does not match blocks {self.block_sizes}")
        rest = np.where(self.block_mask, 0, m)
        off = operator_norm(rest) if rest.any() else 0.0   # no SVD of a zero remainder
        if off > VALIDATION_TOL:
            raise StructureError(f"matrix has off-block entries of norm {off:.3e}")
        return AlgebraElement.of_vector(self, m[self.block_mask])


def _checked_coords(structure: BlockStructure, blocks, what: str) -> np.ndarray:
    """The coordinate vector of a block list or an element: the one check of
    count, shape and finiteness.

    An element on the same block sizes has its shapes already; its vector is
    checked finite and taken as it is, not copied. Otherwise raises
    StructureError for a wrong block count or block sizes, and names the
    first block, in block order, that has the wrong shape or a non-finite
    entry. Finiteness is checked once for all blocks; only a failure goes
    through them one by one to find the block it names.
    """
    if isinstance(blocks, AlgebraElement):
        if blocks.structure.block_sizes != structure.block_sizes:
            raise StructureError(f"{what} has blocks {blocks.structure.block_sizes}, "
                                 f"expected {structure.block_sizes}")
        if np.isfinite(blocks._coords).all():
            return blocks._coords
        blocks = blocks.blocks
    if len(blocks) != structure.num_blocks:
        raise StructureError(f"{what} block count mismatch")
    out = [_as_complex(b) for b in blocks]
    sizes = structure.block_sizes
    if all(b.shape == (n, n) for b, n in zip(out, sizes)):
        v = np.concatenate([b.reshape(-1) for b in out])
        if np.isfinite(v).all():
            return v
    for k, (b, n) in enumerate(zip(out, sizes)):
        if b.shape != (n, n):
            raise StructureError(f"{what} block {k} has shape {b.shape}, expected ({n}, {n})")
        if not np.isfinite(b).all():
            raise StructureError(f"{what} block {k} has non-finite entries")


def sandwich_matrix(left: "AlgebraElement", right: "AlgebraElement") -> np.ndarray:
    """Coordinate matrix of a ↦ left·a·right: kron(left_k, right_kᵀ) on block k."""
    s = left.structure
    out = np.zeros((s.dimension,) * 2, dtype=complex)
    for g, x, y in zip(s.size_groups, left.stacks(), right.stacks()):
        out[g.units[:, :, None], g.units[:, None, :]] = _kron_stack(x, y.swapaxes(-1, -2))
    return out


class AlgebraElement:
    """Element of ``⊕_k M_{n_k}``, stored as its canonical coordinate vector.

    Built from a block list it checks the list (`_checked_coords`), as a
    state and an automorphism do; `of_vector` wraps a vector unchecked.
    `blocks` are (n, n) views of the vector, built on first read. The
    linear operations act on the vector, and products act on one stack per
    block size. Treated as immutable.
    """

    def __init__(self, structure: BlockStructure, blocks):
        self.structure = structure
        self._coords = _checked_coords(structure, blocks, "element")

    @classmethod
    def of_vector(cls, structure: BlockStructure, v: np.ndarray) -> "AlgebraElement":
        """Wrap a complex coordinate vector of length ``dimension``; not copied."""
        a = cls.__new__(cls)
        a.structure, a._coords = structure, v
        return a

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        v, s = self._coords, self.structure
        return [v[off:off + n * n].reshape(n, n) for off, n in zip(s.offsets, s.block_sizes)]

    def _check_same(self, other: "AlgebraElement"):
        if self.structure.block_sizes != other.structure.block_sizes:
            raise NcjoinError(
                f"block structures differ: {self.structure.block_sizes} vs "
                f"{other.structure.block_sizes}")

    def _same(self, v: np.ndarray) -> "AlgebraElement":
        return AlgebraElement.of_vector(self.structure, v)

    def __add__(self, other):
        self._check_same(other)
        return self._same(self._coords + other._coords)

    def __sub__(self, other):
        self._check_same(other)
        return self._same(self._coords - other._coords)

    def __neg__(self):
        return self._same(-self._coords)

    def __rmul__(self, scalar):
        return self._same(complex(scalar) * self._coords)

    def __matmul__(self, other):
        self._check_same(other)
        out = np.empty_like(self._coords)
        for g, x, y in zip(self.structure.size_groups, self.stacks(), other.stacks()):
            out[g.units] = (x @ y).reshape(len(g.blocks), -1)
        return self._same(out)

    def adjoint(self) -> "AlgebraElement":
        return self._same(self._coords[self.structure.adjoint_indices].conj())

    def coords(self) -> np.ndarray:
        return self._coords.copy()

    def stacks(self) -> list[np.ndarray]:
        """One (m, n, n) array per size group, each one fancy index of the vector."""
        return [self._coords[g.units].reshape(-1, g.size, g.size)
                for g in self.structure.size_groups]

    def transpose(self) -> "AlgebraElement":
        return self._same(self._coords[self.structure.adjoint_indices])

    def norm(self) -> float:
        """Operator norm: max over blocks of the largest singular value."""
        return max(float(_operator_norms(x).max()) for x in self.stacks())

    def block_matrix(self) -> np.ndarray:
        out = np.zeros((self.structure.matrix_size,) * 2, dtype=complex)
        out[self.structure.block_mask] = self._coords
        return out


class FaithfulState:
    """State ``a ↦ trace(ρ a)`` given by a block-diagonal density ρ.

    Faithful means ρ is strictly positive definite; normalization is
    ``trace(ρ) = 1`` over the whole block-diagonal matrix. `density` is ρ,
    given as a block list or an element (`_checked_coords`). Treated as
    immutable.
    """

    def __init__(self, structure: BlockStructure, density):
        self.structure = structure
        self.density = AlgebraElement.of_vector(
            structure, _checked_coords(structure, density, "density"))

    @cached_property
    def values(self) -> np.ndarray:
        """μ(e_i) over the canonical basis; read-only. μ(E_rc) = ρ[c, r], so
        these are the coordinates of ρᵀ."""
        out = self.density._coords[self.structure.adjoint_indices]
        out.flags.writeable = False
        return out

    def value(self, a: AlgebraElement) -> complex:
        if a.structure.block_sizes != self.structure.block_sizes:
            raise NcjoinError("state and element block structures differ")
        return complex(self.values @ a.coords())

    def min_eigenvalue(self) -> float:
        return min(float(_eigvalsh((x + _adjoints(x)) / 2).min()) for x in self.density.stacks())

    def trace(self) -> float:
        traces = np.empty(self.structure.num_blocks)
        for g, x in zip(self.structure.size_groups, self.density.stacks()):
            traces[g.blocks] = np.trace(x, axis1=-2, axis2=-1).real
        return float(sum(traces.tolist()))   # in block order, whatever the grouping

    def hermiticity_residual(self) -> float:
        return max(float(_operator_norms(x - _adjoints(x)).max()) for x in self.density.stacks())


def uniform_state(structure: BlockStructure) -> FaithfulState:
    """Normalized multiple of the identity in every block (tracial)."""
    size = structure.matrix_size
    return FaithfulState(
        structure, [np.eye(n, dtype=complex) / size for n in structure.block_sizes])


class Automorphism:
    """Normal form ``a ↦ u · perm(a) · u*``; output block k reads input block perm[k].

    `conjugator` is u, given as a block list or an element (`_checked_coords`).
    Treated as immutable.
    """

    def __init__(self, structure: BlockStructure, block_perm, conjugator):
        sizes = structure.block_sizes
        m = len(sizes)
        perm = tuple(block_perm)
        if sorted(perm) != list(range(m)):
            raise StructureError(f"block_perm {perm} is not a permutation of 0..{m - 1}")
        for k in range(m):
            if sizes[perm[k]] != sizes[k]:
                raise StructureError(
                    f"block_perm maps block {perm[k]} (size {sizes[perm[k]]}) onto "
                    f"block {k} (size {sizes[k]})")
        self.structure, self.block_perm = structure, perm
        self.conjugator = AlgebraElement.of_vector(
            structure, _checked_coords(structure, conjugator, "conjugator"))

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.structure.block_sizes != self.structure.block_sizes:
            raise NcjoinError("automorphism and element block structures differ")
        blocks = [
            u @ a.blocks[p] @ u.conj().T
            for u, p in zip(self.conjugator.blocks, self.block_perm)
        ]
        return AlgebraElement(self.structure, blocks)

    def matrix(self) -> np.ndarray:
        """Coordinate matrix: column j holds the coordinates of the image of e_j.

        (u E_ab u*)[i, j] = u[i, a]·conj(u[j, b]), so the block at (output
        block k, input block perm[k]) is kron(u_k, conj(u_k)) and every
        other block is zero.
        """
        s = self.structure
        source = np.array(s.offsets)[list(self.block_perm)]   # first unit of the input block
        out = np.zeros((s.dimension,) * 2, dtype=complex)
        for g, u in zip(s.size_groups, self.conjugator.stacks()):
            read = source[g.blocks, None] + np.arange(g.size ** 2)
            out[g.units[:, :, None], read[:, None, :]] = _kron_stack(u, u.conj())
        return out

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other)).apply(a) == self.apply(other.apply(a))."""
        perm = tuple(other.block_perm[p] for p in self.block_perm)
        u, v = self.conjugator.blocks, other.conjugator.blocks
        conj = [u[k] @ v[self.block_perm[k]] for k in range(self.structure.num_blocks)]
        return Automorphism(self.structure, perm, conj)

    def inverse(self) -> "Automorphism":
        m = self.structure.num_blocks
        inv_perm = [0] * m
        for k, p in enumerate(self.block_perm):
            inv_perm[p] = k
        conj = [self.conjugator.blocks[inv_perm[j]].conj().T for j in range(m)]
        return Automorphism(self.structure, tuple(inv_perm), conj)

    def power(self, n: int) -> "Automorphism":
        """n-fold composite (inverse for n < 0), by repeated squaring."""
        base = self if n >= 0 else self.inverse()
        out = None
        n = abs(n)
        while n:
            if n & 1:
                out = base if out is None else base.compose(out)
            n >>= 1
            if n:
                base = base.compose(base)
        return out if out is not None else identity_automorphism(self.structure)

    def unitarity_residual(self) -> float:
        return max(float(_operator_norms(_adjoints(u) @ u - np.eye(u.shape[-1])).max())
                   for u in self.conjugator.stacks())


def identity_automorphism(structure: BlockStructure) -> Automorphism:
    return Automorphism(
        structure,
        tuple(range(structure.num_blocks)),
        [np.eye(n, dtype=complex) for n in structure.block_sizes],
    )


@dataclass(frozen=True)
class GroupDescriptor:
    """Acting group: Z (one generator), Z^k (k commuting generators), or Z_m.

    Canonical: Z^1 is built as Z, and `k` is the generator count of every
    kind, so two descriptors of one group compare equal. Folner sets used
    for averages: boxes {1..N} for Z, cubes {1..N}^k for Z^k, and the whole
    group for Z_m.
    """

    kind: str
    k: int | None = None   # given for Zk only; the other kinds have one generator
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Zk", "Zm"):
            raise StructureError(f"unknown group kind {self.kind!r}")
        if self.kind == "Zk" and (self.k is None or self.k < 1):
            raise StructureError("Zk needs k >= 1")
        if self.kind != "Zk" and self.k not in (None, 1):
            raise StructureError(f"{self.kind} has one generator, not k = {self.k}")
        if self.kind == "Zm" and (self.m is None or self.m < 1):
            raise StructureError("Zm needs m >= 1")
        if self.kind != "Zm" and self.m is not None:
            raise StructureError(f"{self.kind} has no order m")
        if self.kind == "Zk" and self.k == 1:
            object.__setattr__(self, "kind", "Z")
        object.__setattr__(self, "k", self.k or 1)

    def folner_range(self, n: int) -> range:
        """Exponents of each generator in the n-th Folner set, which is a box."""
        if n < 1:
            raise ValueError("Folner index must be >= 1")
        return range(self.m) if self.kind == "Zm" else range(1, n + 1)


@dataclass(frozen=True)
class FiniteSystem:
    """A finite-dimensional dynamical system: algebra, state, group, generators."""

    structure: BlockStructure
    state: FaithfulState
    group: GroupDescriptor
    generators: tuple[Automorphism, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if len(self.generators) != self.group.k:
            raise StructureError(
                f"group {self.group.kind} expects {self.group.k} generators, "
                f"got {len(self.generators)}")
        for label, part in [("the state", self.state),
                            *((f"generator {k}", g) for k, g in enumerate(self.generators))]:
            if part.structure != self.structure:
                raise StructureError(f"{label} is built on blocks {part.structure.block_sizes}, "
                                     f"the system on {self.structure.block_sizes}")

    @property
    def dimension(self) -> int:
        return self.structure.dimension

    @cached_property
    def generator_matrices(self) -> tuple[np.ndarray, ...]:
        """`Automorphism.matrix()` of each generator, read-only: validation,
        the GNS unitaries and the joining battery read these."""
        mats = tuple(gen.matrix() for gen in self.generators)
        for M in mats:
            M.flags.writeable = False
        return mats

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_system(self)

    @cached_property
    def gns(self):
        """The gns.GnsSpace (unitaries: `generator_matrices`); raises InputFormatError."""
        from . import gns
        return gns.gns_construct(self)

    @cached_property
    def spectrum(self):
        """The joint point spectrum (gns.Spectrum); raises InputFormatError if invalid."""
        from . import gns
        return gns.joint_spectrum(self)

    @cached_property
    def mirror(self):
        """The MirrorSystem; raises InputFormatError if invalid."""
        from . import gns
        return gns.mirror_system(self)


@dataclass
class Violation:
    kind: str
    where: str
    residual: float

    def __str__(self):
        return f"{self.kind} at {self.where}: residual {self.residual:.3e}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def _column_norm(structure: BlockStructure, X: np.ndarray) -> float:
    """Largest operator norm of an element whose coordinates are a column of X."""
    return max(
        float(_operator_norms(X[g.units].swapaxes(1, 2).reshape(-1, g.size, g.size)).max())
        for g in structure.size_groups)


def _negligible(residuals) -> bool:
    """Whether the arrays together have Frobenius norm f ≤ VALIDATION_TOL/2,
    by one `vdot` each. Every operator norm among them is then at most f, and
    for u*u − 1 so are ‖uu* − 1‖ (u u* and u*u have one spectrum) and the
    multiplicativity residual, at most f(1 + f): no check on them can fail,
    and none takes an SVD. The half leaves room for rounding."""
    return sum(float(np.vdot(r, r).real) for r in residuals) <= (VALIDATION_TOL / 2) ** 2


def validate_system(sys: FiniteSystem) -> ValidationReport:
    """Check every defining invariant, collecting residuals of the failures.

    Reported kinds: state_hermiticity, state_trace, faithfulness, unitarity,
    invariance, multiplicativity, unital, commutation (Z^k), generator_order
    (Z_m). Structural problems (wrong shapes, non-finite entries) raise
    instead. Each residual has a closed form in the normal form u·perm(a)·u*
    and the coordinate matrix M of a generator. Invariance at index i is
    |(μ·M − μ)_i|, with μ_i = μ(e_i). Unitarity and unital are ‖u_k*u_k − 1‖
    and ‖u_k u_k* − 1‖. Multiplicativity: α(E_ab)α(E_cd) − α(E_ab E_cd) =
    (u_k*u_k − 1)_bc · u_k E_ad u_k*, of norm |(u_k*u_k − 1)_bc|·‖u_k e_a‖·‖u_k e_d‖,
    so the worst pair gives max |(u_k*u_k − 1)_bc| · (largest column norm of u_k)².
    Commutation and generator_order are the largest operator norms over the
    columns of M_a M_b − M_b M_a and Mᵐ − 1. No "adjoint" residual exists:
    (u a u*)* = u a* u* holds for every matrix u and rounds identically.
    The norms are taken, by SVD, only of the residuals that the Frobenius
    norm does not clear (`_negligible`), so a valid system takes none.
    """
    report = ValidationReport()

    def check(kind: str, where: str, residual: float):
        if residual > VALIDATION_TOL:
            report.violations.append(Violation(kind, where, residual))

    st = sys.state
    if not _negligible(x - _adjoints(x) for x in st.density.stacks()):
        check("state_hermiticity", "density", st.hermiticity_residual())
    check("state_trace", "density", abs(st.trace() - 1.0))
    min_eig = st.min_eigenvalue()
    if min_eig <= FAITHFULNESS_MIN_EIG:
        report.violations.append(Violation("faithfulness", "density", -min_eig))

    mu = st.values
    mats = sys.generator_matrices
    for gi, (gen, M) in enumerate(zip(sys.generators, mats)):
        where = f"generator {gi}"
        stacks = gen.conjugator.stacks()
        defects = [_adjoints(u) @ u - np.eye(u.shape[-1]) for u in stacks]   # u*u − 1
        unitary = _negligible(defects)
        if not unitary:
            check("unitarity", where, gen.unitarity_residual())
        moved = np.abs(mu @ M - mu)
        for i in np.flatnonzero(moved > VALIDATION_TOL):
            check("invariance", f"{where}, basis {i}", float(moved[i]))
        if not unitary:
            check("multiplicativity", where, max(
                float((np.abs(d).max(axis=(1, 2))
                       * np.linalg.norm(u, axis=1).max(axis=1) ** 2).max())
                for u, d in zip(stacks, defects)))
            check("unital", where, max(
                float(_operator_norms(u @ _adjoints(u) - np.eye(u.shape[-1])).max())
                for u in stacks))

    for a, b in itertools.combinations(range(len(mats)), 2):
        X = mats[a] @ mats[b] - mats[b] @ mats[a]
        if not _negligible([X]):
            check("commutation", f"generators {a},{b}", _column_norm(sys.structure, X))
    if sys.group.kind == "Zm":
        X = np.linalg.matrix_power(mats[0], sys.group.m) - np.eye(sys.dimension)
        if not _negligible([X]):
            check("generator_order", f"order {sys.group.m}", _column_norm(sys.structure, X))
    return report


def require_valid(sys: FiniteSystem) -> None:
    """Raise InputFormatError unless the system's (cached) report is clean."""
    if not sys.validation.valid:
        raise InputFormatError(sys.validation)


def cyclic_rotation_system(points: int) -> FiniteSystem:
    """Rotation on `points` one-dimensional blocks, acting by e_i -> e_{i+1},
    with the uniform (invariant) state.

    The group descriptor is Z so the same system feeds graph joinings and
    correlation scans.
    """
    structure = BlockStructure(tuple([1] * points))
    perm = tuple((k - 1) % points for k in range(points))
    gen = Automorphism(structure, perm, [np.eye(1, dtype=complex)] * points)
    return FiniteSystem(structure, uniform_state(structure), GroupDescriptor("Z"), [gen])


def identity_system(block_sizes, group: GroupDescriptor | None = None) -> FiniteSystem:
    """System whose every group element acts as the identity map."""
    structure = BlockStructure(tuple(block_sizes))
    group = group or GroupDescriptor("Z")
    gens = [identity_automorphism(structure) for _ in range(group.k)]
    return FiniteSystem(structure, uniform_state(structure), group, gens)


def single_block_system(unitary, density=None,
                        group: GroupDescriptor | None = None) -> FiniteSystem:
    """One full matrix block M_n with Ad(u) dynamics.

    `unitary` may be a single matrix (one generator) or a list of matrices.
    Density defaults to the trace state.
    """
    mats = unitary if isinstance(unitary, (list, tuple)) else [unitary]
    mats = [_as_complex(u) for u in mats]
    n = mats[0].shape[0]
    structure = BlockStructure((n,))
    if density is None:
        state = uniform_state(structure)
    else:
        state = FaithfulState(structure, [_as_complex(density)])
    if group is None:
        group = GroupDescriptor("Zk", k=len(mats))
    gens = [Automorphism(structure, (0,), [u]) for u in mats]
    return FiniteSystem(structure, state, group, gens)
