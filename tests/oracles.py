"""Brute-force oracles, deliberately independent of the package's solver.

Both systems diagonal means the joining set is the invariant transportation
polytope: entrywise nonnegative matrices with prescribed row and column
sums and a permutation-invariance constraint. Linear optimization over it
is an ordinary LP, solved here with scipy's HiGHS backend.

The diagonal state's value tables are evaluated one basis pair at a time
through algebra products, without the GNS matrices, and system validation
is re-derived by brute force over the basis elements and their pairs.

The blockwise kernels of validation, the GNS unitaries, the mirror, the
state's value and the density powers are kept here as they read one block
at a time, one numpy call per block, before the package ran them once per
block size or on one flat vector. The mirror's commutant picture (the right
multiplications, the mirror state and dynamics on the GNS space, and the
operator that carries a promoted element) is kept here as the mirror system
kept it before it reduced to its promoted system and twist.

Group-element matrices are rebuilt one element at a time from matrix
powers, group-element automorphisms as ordered products of generator
powers in normal form, and the dual-system square Δ_n(c*c) by the full
pair loop at each n, as the package computed them before their power and
square tables.
The finite Ornstein ratios are summed one element and one n at a time, the
dual correlations are tested one n at a time, and elements are drawn by the
sampler that rebuilt its alphabet on every call, as the package did before
it solved shift times once per key and batched the finite scan.

Algebra elements are sliced into blocks and multiplied one block at a time,
Følner means sum one power per step, and the sampled coherence counts of
`dual classify` check every sample on its own, as the package did before it
stored elements as flat vectors, read Følner means off the joint spectrum
and checked each distinct sample once. The Cesàro limit ⟨P₁x, y⟩ takes
the fixed space from a null space of its own, not from the spectrum.

The product algebra A ⊙ B is built here as a block structure with one
kron per pair of leg blocks, in which an element is a coordinate vector, as
the package built objectives, witness directions and Ornstein elements
before it took them as coefficient tables.

The barrier line search is kept as safeguarded Newton on ψ′ itself, as
the solver ran it before it removed the pole of ψ′ at the step bound. The
Newton step's kernels (the gradient and Hessian of the barrier, the dual
point and the eigenvalues of a step) are kept on (m, N, N) stacks for
every block size, 1×1 included, as the solver ran them before it carried
the 1×1 density blocks as flat vectors.

The tangent space is built from the dense constraint rows K on the dense
(dim × dim) matrix H of a real-orthonormal basis of the tables with
Hermitian blocks, as the solver built it before it gathered the columns
of K·H from K and before it took T from the two legs' point spectra. The
joint point spectrum is found by iterated eigenspace refinement, one
null-space SVD per eigenvalue cluster of each unitary, as the package
found it before it took one `eigh` per system.

The spectral toolkit that no command reads lives here as the package had
it: the eigenoperator of a multiplicity-one character, the spectral atoms
and interval projections of a unitary element, the covariance check of
those projections under the dynamics, and the asymptotic-abelianness
profile with the power-table element matrices and Folner elements it reads.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ncjoin.algebra import (FAITHFULNESS_MIN_EIG, VALIDATION_TOL, AlgebraElement, BlockStructure,
                            FiniteSystem, _adjoints, _eigvalsh, _inv_cholesky, _operator_norms,
                            identity_automorphism, sandwich_matrix)
from ncjoin.dual import (IDENTITY_PERM, DeltaEvaluation, FinPerm, QQi, classify_dual,
                         word_multiply)
from ncjoin.errors import InputFormatError, NcjoinError
from ncjoin.gns import _linkage, point_spectrum, powers
from ncjoin.joinings import _RANK_GAP_MIN, _diagonal_values


def invariant_transportation_max(mu, nu, sigma, tau, cost):
    """Maximize Σ cost_ij w_ij over the invariant transportation polytope.

    sigma and tau are the index images of the two leg rotations: invariance
    reads w[sigma[i], tau[j]] = w[i, j].
    """
    p, q = len(mu), len(nu)
    n = p * q

    def idx(i, j):
        return i * q + j

    a_eq, b_eq = [], []
    for i in range(p):
        row = np.zeros(n)
        for j in range(q):
            row[idx(i, j)] = 1.0
        a_eq.append(row)
        b_eq.append(mu[i])
    for j in range(q):
        row = np.zeros(n)
        for i in range(p):
            row[idx(i, j)] = 1.0
        a_eq.append(row)
        b_eq.append(nu[j])
    for i in range(p):
        for j in range(q):
            row = np.zeros(n)
            row[idx(sigma[i], tau[j])] += 1.0
            row[idx(i, j)] -= 1.0
            if np.any(row):
                a_eq.append(row)
                b_eq.append(0.0)
    c = -np.asarray(cost, dtype=float).reshape(-1)
    res = linprog(c, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun, res.x.reshape(p, q)


def invariant_segment_vertices(mu, nu, sigma, tau):
    """Vertices of a one-dimensional invariant transportation polytope.

    Solves the equality system, verifies the feasible set is a segment, and
    walks the single null direction to both nonnegativity boundaries.
    """
    p, q = len(mu), len(nu)
    n = p * q

    def idx(i, j):
        return i * q + j

    rows, vals = [], []
    for i in range(p):
        row = np.zeros(n)
        for j in range(q):
            row[idx(i, j)] = 1.0
        rows.append(row)
        vals.append(mu[i])
    for j in range(q):
        row = np.zeros(n)
        for i in range(p):
            row[idx(i, j)] = 1.0
        rows.append(row)
        vals.append(nu[j])
    for i in range(p):
        for j in range(q):
            row = np.zeros(n)
            row[idx(sigma[i], tau[j])] += 1.0
            row[idx(i, j)] -= 1.0
            if np.any(row):
                rows.append(row)
                vals.append(0.0)
    A = np.array(rows)
    b = np.array(vals)
    particular, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, s, vh = np.linalg.svd(A)
    null = vh[np.sum(s > 1e-10):]
    assert null.shape[0] == 1, "affine set is not one dimensional"
    d = null[0]
    ts = []
    for sign in (1.0, -1.0):
        t = np.inf
        for k in range(n):
            if sign * d[k] < -1e-12:
                t = min(t, particular[k] / (-sign * d[k]))
        assert np.isfinite(t)
        ts.append(sign * t)
    return [(particular + t * d).reshape(p, q) for t in ts]


def diagonal_table(sys, alpha):
    """Values μ(α(e_i) · t_j) of the diagonal state shifted by the automorphism α.

    t_j = ρ^{1/2} transpose(f_j) ρ^{-1/2} is the twisted mirror element of
    the basis element f_j; ρ^{±1/2} come from a blockwise eigendecomposition.
    """
    struct = sys.structure
    powers = []
    for z in (0.5, -0.5):
        blocks = []
        for b in sys.state.density.blocks:
            vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
            blocks.append(vecs @ np.diag(vals ** z) @ vecs.conj().T)
        powers.append(AlgebraElement(struct, blocks))
    half, mhalf = powers
    basis = [struct.basis_element(i) for i in range(struct.dimension)]
    twisted = [half @ f.transpose() @ mhalf for f in basis]
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, e in enumerate(basis):
        moved = alpha.apply(e)
        for j, t in enumerate(twisted):
            out[i, j] = state_value_reference(sys.state, moved @ t)
    return out


def _norm(x):
    """Operator norm of an algebra element; blocks that are exactly zero need no SVD."""
    return max((float(np.linalg.norm(b, 2)) for b in x.blocks if b.any()), default=0.0)


def _opnorm(m):
    return float(np.linalg.norm(m, 2))


def min_eigenvalue_reference(state):
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in state.density.blocks)


def state_value_reference(state, a):
    """μ(a) = Σ_k tr(ρ_k a_k), one block at a time."""
    return complex(sum(np.trace(r @ b) for r, b in zip(state.density.blocks, a.blocks)))


def trace_reference(state):
    return float(sum(np.trace(b).real for b in state.density.blocks))


def hermiticity_reference(state):
    return max(_opnorm(b - b.conj().T) for b in state.density.blocks)


def unitarity_reference(gen):
    return max(_opnorm(u.conj().T @ u - np.eye(len(u))) for u in gen.conjugator.blocks)


def multiplicativity_reference(gen):
    return max(float(np.abs(u.conj().T @ u - np.eye(len(u))).max())
               * float(np.linalg.norm(u, axis=0).max()) ** 2 for u in gen.conjugator.blocks)


def unital_reference(gen):
    return max(_opnorm(u @ u.conj().T - np.eye(len(u))) for u in gen.conjugator.blocks)


def element_norm_reference(a):
    return max(_opnorm(b) for b in a.blocks)


def top_eigenvalue_reference(h):
    """Largest eigenvalue of a Hermitian element, one block at a time."""
    return max(float(np.linalg.eigvalsh(b).max()) for b in h.blocks)


def automorphism_matrix_reference(gen):
    """kron(u_k, conj(u_k)) at (output block k, input block perm[k]), block by block."""
    offs = gen.structure.offsets
    out = np.zeros((gen.structure.dimension,) * 2, dtype=complex)
    for k, (u, p) in enumerate(zip(gen.conjugator.blocks, gen.block_perm)):
        out[offs[k]:offs[k] + u.size, offs[p]:offs[p] + u.size] = np.kron(u, u.conj())
    return out


def sandwich_matrix_reference(left, right):
    """kron(left_k, right_kᵀ) on the diagonal block of block k, block by block."""
    out = np.zeros((left.structure.dimension,) * 2, dtype=complex)
    for off, x, y in zip(left.structure.offsets, left.blocks, right.blocks):
        out[off:off + x.size, off:off + x.size] = np.kron(x, y.T)
    return out


def blocks_reference(structure, v):
    """The (n, n) blocks of a coordinate vector, sliced and copied one block at a time."""
    blocks, pos = [], 0
    for n in structure.block_sizes:
        blocks.append(np.array(v[pos:pos + n * n], dtype=complex).reshape(n, n))
        pos += n * n
    return blocks


def product_blocks_reference(a, b):
    """Blocks of a·b, one matmul per block."""
    return [x @ y for x, y in zip(blocks_reference(a.structure, a.coords()),
                                  blocks_reference(b.structure, b.coords()))]


def tensor_blocks_reference(a, b):
    """Blocks of a ⊗ b in the product algebra: one kron per pair of blocks."""
    return [np.kron(x, y) for x in blocks_reference(a.structure, a.coords())
            for y in blocks_reference(b.structure, b.coords())]


def product_algebra_reference(ctx):
    """(structure, index) of the product algebra A ⊙ B of a context, from
    `tensor_blocks_reference`: one block of size n_k·n_l per pair of leg
    blocks, and index[i, j] the coordinate at which the blocks of
    e_i ⊗ f_j, read off in order, hold their one nonzero entry."""
    return _product_algebra(ctx.A.structure.block_sizes, ctx.B.structure.block_sizes)


@functools.cache
def _product_algebra(sizes_a, sizes_b):
    sa, sb = BlockStructure(sizes_a), BlockStructure(sizes_b)
    structure = BlockStructure(tuple(na * nb for na in sizes_a for nb in sizes_b))
    index = np.empty((sa.dimension, sb.dimension), dtype=int)
    for i, j in np.ndindex(index.shape):
        blocks = tensor_blocks_reference(sa.basis_element(i), sb.basis_element(j))
        index[i, j] = np.flatnonzero(np.concatenate([x.reshape(-1) for x in blocks]))[0]
    return structure, index


def product_element_reference(ctx, table):
    """The element of A ⊙ B whose coefficient of e_i ⊗ f_j is table[i, j]."""
    structure, index = product_algebra_reference(ctx)
    v = np.zeros(structure.dimension, dtype=complex)
    v[index] = table
    return structure.from_coords(v)


def product_table_reference(ctx, c):
    """The coefficient table of an element c of A ⊙ B."""
    return c.coords()[product_algebra_reference(ctx)[1]]


def density_power_reference(sys, z):
    blocks = []
    for b in sys.state.density.blocks:
        vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        blocks.append(vecs @ np.diag(np.exp(z * np.log(vals))) @ vecs.conj().T)
    return AlgebraElement(sys.structure, blocks)


def modular_conjugation_reference(sys):
    s = sys.structure
    adjoint = [s.basis_index(k, c, r) for k, r, c in map(s.basis_address, range(sys.dimension))]
    return sandwich_matrix_reference(density_power_reference(sys, 0.5),
                                     density_power_reference(sys, -0.5))[:, adjoint]


def right_mult_reference(structure, b):
    """Matrix of x ↦ x·b in canonical GNS coordinates."""
    return sandwich_matrix(structure.identity(), b)


def commutant_basis_reference(structure):
    """R_{e_j} over the canonical basis: the right multiplications span the
    commutant of the left representation."""
    return [right_mult_reference(structure, structure.basis_element(j))
            for j in range(structure.dimension)]


def mirror_dynamics_reference(sys, gen_index, X):
    """U X U⁻¹ for the GNS unitary U of a generator: the mirror dynamics."""
    U = sys.generator_matrices[gen_index]
    return U @ X @ np.linalg.inv(U)


def mirror_state_reference(sys, X):
    """The mirror state ⟨Ω, XΩ⟩ of a GNS-space operator X."""
    space = sys.gns
    omega = space.cyclic_vector
    return space.inner(omega, X @ omega)


def promoted_image_reference(sys, f):
    """The commutant operator R_{ρ^{1/2} transpose(f) ρ^{-1/2}} that carries
    the promoted element f; column j of the mirror's twist is that twisted
    element for f = e_j."""
    s = sys.structure
    return right_mult_reference(s, s.from_coords(sys.mirror.twist @ f.coords()))


def _column_norm_reference(structure, X):
    return max(
        float(np.linalg.norm(X[off:off + n * n].T.reshape(-1, n, n), 2, axis=(-2, -1)).max())
        for off, n in zip(structure.offsets, structure.block_sizes))


def blockwise_validation_reference(sys, tol=VALIDATION_TOL):
    """(kind, where, residual) of every violated invariant, from the closed
    forms of `validate_system` evaluated one block at a time."""
    out = []
    st = sys.state

    def check(kind, where, residual):
        if residual > tol:
            out.append((kind, where, residual))

    check("state_hermiticity", "density", hermiticity_reference(st))
    check("state_trace", "density", abs(trace_reference(st) - 1.0))
    min_eig = min_eigenvalue_reference(st)
    if min_eig <= FAITHFULNESS_MIN_EIG:
        out.append(("faithfulness", "density", -min_eig))
    mu = st.density.transpose().coords()
    mats = [automorphism_matrix_reference(gen) for gen in sys.generators]
    for gi, (gen, M) in enumerate(zip(sys.generators, mats)):
        where = f"generator {gi}"
        check("unitarity", where, unitarity_reference(gen))
        moved = np.abs(mu @ M - mu)
        for i in np.flatnonzero(moved > tol):
            check("invariance", f"{where}, basis {i}", float(moved[i]))
        check("multiplicativity", where, multiplicativity_reference(gen))
        check("unital", where, unital_reference(gen))
    if sys.group.kind == "Zk":
        for a, b in itertools.combinations(range(len(mats)), 2):
            check("commutation", f"generators {a},{b}",
                  _column_norm_reference(sys.structure, mats[a] @ mats[b] - mats[b] @ mats[a]))
    if sys.group.kind == "Zm":
        check("generator_order", f"order {sys.group.m}", _column_norm_reference(
            sys.structure, np.linalg.matrix_power(mats[0], sys.group.m) - np.eye(sys.dimension)))
    return out


def validation_reference(sys, tol=VALIDATION_TOL):
    """(kind, where, residual) of every violated invariant, by brute force.

    Applies each generator to every basis element and to every product of
    two, as the definitions read; same kinds, order and tolerances as
    `validate_system`, plus the "adjoint" residual.
    """
    out = []
    st = sys.state

    def check(kind, where, residual):
        if residual > tol:
            out.append((kind, where, residual))

    basis = [sys.structure.basis_element(i) for i in range(sys.dimension)]
    check("state_hermiticity", "density", hermiticity_reference(st))
    check("state_trace", "density", abs(trace_reference(st) - 1.0))
    min_eig = min_eigenvalue_reference(st)
    if min_eig <= FAITHFULNESS_MIN_EIG:
        out.append(("faithfulness", "density", -min_eig))
    for gi, gen in enumerate(sys.generators):
        check("unitarity", f"generator {gi}", unitarity_reference(gen))
        for i, e in enumerate(basis):
            check("invariance", f"generator {gi}, basis {i}",
                  abs(st.value(gen.apply(e)) - st.value(e)))
        images = [gen.apply(e) for e in basis]
        check("multiplicativity", f"generator {gi}", max(
            _norm(gen.apply(basis[i] @ basis[j]) - images[i] @ images[j])
            for i, j in itertools.product(range(sys.dimension), repeat=2)))
        check("adjoint", f"generator {gi}", max(
            _norm(gen.apply(e.adjoint()) - im.adjoint()) for e, im in zip(basis, images)))
        ident = sys.structure.identity()
        check("unital", f"generator {gi}", _norm(gen.apply(ident) - ident))
    if sys.group.kind == "Zk":
        for a, b in itertools.combinations(range(len(sys.generators)), 2):
            ga, gb = sys.generators[a], sys.generators[b]
            check("commutation", f"generators {a},{b}", max(
                _norm(ga.apply(gb.apply(e)) - gb.apply(ga.apply(e))) for e in basis))
    if sys.group.kind == "Zm":
        powm = sys.generators[0].power(sys.group.m)
        check("generator_order", f"order {sys.group.m}",
              max(_norm(powm.apply(e) - e) for e in basis))
    return out


def onb_matrices_reference(sys):
    """The GNS unitaries in orthonormal coordinates: C·U·C⁻¹ with gram = C*C."""
    space = sys.gns
    return [space.onb_factor @ U @ space.onb_factor_inv for U in sys.generator_matrices]


def element_matrix_reference(mats, g, unitary=False):
    """U_g as the ordered product of one fresh matrix power per generator
    matrix; with `unitary`, negative powers are powers of the adjoint."""
    out = np.eye(mats[0].shape[0], dtype=complex)
    for U, e in zip(mats, g):
        if e >= 0:
            out = out @ np.linalg.matrix_power(U, e)
        else:
            out = out @ np.linalg.matrix_power(U.conj().T if unitary else np.linalg.inv(U), -e)
    return out


def element_automorphism_reference(sys, g):
    """The automorphism of the group element with generator exponents g, as
    the ordered product of generator powers in normal form."""
    out = identity_automorphism(sys.structure)
    for gen, e in zip(sys.generators, g):
        out = out.compose(gen.power(e))
    return out


def folner_elements(group, n):
    """Group elements of the n-th Folner set, as exponent tuples."""
    return list(itertools.product(group.folner_range(n), repeat=group.k))


def element_matrices(mats, elements) -> np.ndarray:
    """Stack of U_g over exponent tuples g, one power table per generator matrix."""
    exps = np.array(elements, dtype=int).reshape(len(elements), -1)
    out = None
    for U, col in zip(mats, exps.T):
        step = powers(U, col.min(), col.max())[col - col.min()]
        out = step if out is None else out @ step
    return out


def folner_mean_reference(sys, n):
    """Mean of U_g over the n-th Folner set, one element matrix at a time."""
    elements = folner_elements(sys.group, n)
    return sum(element_matrix_reference(sys.generator_matrices, g)
               for g in elements) / len(elements)


def folner_mean_running_reference(mats, group, n, x=None):
    """Mean of U_g over the n-th Folner set, applied to x (the identity when
    x is None): each generator's box of powers summed by running products,
    one product per power. The generators commute, so their order is free."""
    box = group.folner_range(n)
    v = np.eye(len(mats[0]), dtype=complex) if x is None else np.asarray(x, dtype=complex)
    for U in mats:
        power, total = np.linalg.matrix_power(U, box[0]) @ v, np.zeros_like(v)
        for _ in box:
            total = total + power
            power = U @ power
        v = total / len(box)
    return v


def cesaro_correlation_reference(sys, x, y, n):
    """(value, deviation) of the mean of ⟨U_g x, y⟩ over the n-th Folner set,
    from running products on the vector, against the limit ⟨P₁x, y⟩: P₁
    projects onto the null space of the stacked orthonormal-coordinate
    W_k − 1."""
    space = sys.gns
    value = space.inner(folner_mean_running_reference(sys.generator_matrices, sys.group, n, x), y)
    fixed = _null_space(np.vstack([W - np.eye(len(W)) for W in onb_matrices_reference(sys)]))
    limit = complex((fixed.conj().T @ space.onb_factor @ x).conj()
                    @ (fixed.conj().T @ space.onb_factor @ y))
    return value, abs(value - limit)


def recurrence_period_reference(sys, n_max):
    """Least p in 1..n_max with U^p = 1 (to 1e-9 in operator norm), else None."""
    ident = np.eye(sys.dimension)
    return next((p for p in range(1, n_max + 1)
                 if np.linalg.norm(element_matrix_reference(sys.generator_matrices, (p,))
                                   - ident, 2) < 1e-9),
                None)


def delta_n_reference(sys, c, n):
    """Δ_n(c) and Δ_n(c*c) of a dual pair combination by the full pair loop."""
    value = QQi()
    for (g, h), coef in c.items():
        if sys.apply_T(g, n) == h:
            value = value + coef
    square = QQi()
    for (g1, h1), c1 in c.items():
        for (g2, h2), c2 in c.items():
            w = sys.multiply(sys.inverse(g1), g2)
            v = sys.multiply(sys.inverse(h1), h2)
            if sys.apply_T(w, n) == v:
                square = square + c1.conjugate() * c2
    assert square.im == 0
    product = sum((coef.abs2() for coef in c.values()), QQi().re)
    return DeltaEvaluation(value=value, square_value=square.re, product_square=product)


def ornstein_ratio_reference(ctx, c, window):
    """(denominator, Δ_n values) of the element of a mirror context with
    coefficient table c, squared in the product algebra, one sum per n."""
    c = product_element_reference(ctx, c)
    coef = product_table_reference(ctx, c.adjoint() @ c)
    tables = _diagonal_values(ctx, np.array(
        [element_matrix_reference(ctx.A.generator_matrices, (n,)) for n in window]))
    return (float(np.sum(coef * ctx.product_values()).real),
            [float(np.sum(coef * table).real) for table in tables])


def correlation_reference(sys, a, b, n_range):
    """(raw, centered) correlations μ(α^n(a) b), testing every g of a at every n."""
    mean = a.get(sys.identity(), QQi()) * b.get(sys.identity(), QQi())
    raw = []
    for n in n_range:
        acc = QQi()
        for g, cg in a.items():
            dh = b.get(sys.inverse(sys.apply_T(g, n)))
            if dh is not None:
                acc = acc + cg * dh
        raw.append(acc)
    return raw, [v - mean for v in raw]


def sample_element_reference(sys, rng, max_len=6):
    """A random element, drawn after rebuilding and normalizing the alphabet."""
    letters = []
    for t in sys.spec.tracks:
        if t.kind == "cycle":
            letters.extend((t.id, i) for i in range(t.m))
        else:
            letters.extend((t.id, i) for i in range(-4, 5))
    if sys.family == "free":
        n = rng.randrange(0, max_len + 1)
        word = ()
        for _ in range(n):
            letter = sys.spec.normalize(letters[rng.randrange(len(letters))])
            word = word_multiply(word, ((letter, rng.choice((1, -1))),))
        return word
    k = rng.randrange(0, min(max_len, len(letters)) + 1)
    if k < 2:
        return IDENTITY_PERM
    chosen = rng.sample(letters, k)
    images = chosen[:]
    rng.shuffle(images)
    return FinPerm(tuple(zip(chosen, images)))


def dual_coherence_reference(sys, samples, seed):
    """The sampled coherence counts of `dual classify`, checked one sample at a time."""
    rng = random.Random(seed)
    cls = classify_dual(sys)
    finite = infinite = violations = 0
    for _ in range(samples):
        g = sample_element_reference(sys, rng)
        cert = sys.orbit_length(g)
        if cert.kind == "finite":
            finite += 1
            violations += (sys.apply_T(g, cert.period) != g) + (
                cls.ergodic and g != sys.identity())
        else:
            infinite += 1
            violations += cls.compact
    return {"samples": samples, "seed": seed, "finite_orbits": finite,
            "infinite_orbits": infinite, "violations": violations}


def line_search_reference(lams, slope):
    """Minimizer of ψ(s) = −slope·s − Σ log(1 + s·λ_j) over 0 < s < −1/min λ,
    by safeguarded Newton on ψ′(s), with the pole of ψ′ inside its bracket."""
    if lams.min() >= 0:
        return 1.0
    lo, hi = 0.0, -1 / lams.min()
    s = min(1.0, hi / 2)
    for _ in range(50):
        q = lams / (1 + s * lams)
        d1 = -slope - q.sum()
        lo, hi = (s, hi) if d1 < 0 else (lo, s)
        nxt = s - d1 / (q @ q)
        nxt = nxt if lo < nxt < hi else (lo + hi) / 2
        if abs(nxt - s) <= 1e-6 * s:
            return nxt
        s = nxt
    return s


def block_stacks_reference(ctx, basis, prod):
    """Per block size: positions, the tangent basis and the product density
    as (m, N, N) stacks, and the flat identity stack that reads off traces."""
    return [(idx, basis[:, idx], prod[idx], np.tile(np.eye(idx.shape[-1]).ravel(), len(idx)))
            for idx in ctx.blocks]


def newton_terms_reference(stacks, x):
    """(gradient, Hessian, parts) of −log det F at F = ρ⊗ + Σ x_i V_i, with
    W_i = L⁻¹ V_i L⁻* from the inverse Cholesky factor of every block."""
    r = len(x)
    grad, hess, parts = np.zeros(r), np.zeros((r, r)), []
    for idx, B, P, ident in stacks:
        Linv = _inv_cholesky(P + (x @ B.reshape(r, -1)).reshape(P.shape))
        W = (Linv @ B @ Linv.conj().swapaxes(-1, -2)).reshape(r, -1)
        grad += (W @ ident).real
        hess += (W.conj() @ W.T).real
        parts.append((idx, Linv, W))
    return grad, hess, parts


def newton_dual_reference(ctx, basis, g, parts, dt, eta):
    """Z = F⁻¹(F − ΔF)F⁻¹/η per block, projected onto ⟨c + Z, V_i⟩ = 0."""
    z = np.empty(ctx.dim, dtype=complex)
    for idx, Linv, W in parts:
        step = (dt @ W).reshape(Linv.shape)   # L⁻¹ ΔF L⁻*
        Z = Linv.conj().swapaxes(-1, -2) @ (Linv - step @ Linv) / eta
        z[idx] = (Z + Z.conj().swapaxes(-1, -2)) / 2
    return z - basis.T @ (g + (basis @ z.conj()).real)


def step_eigenvalues_reference(parts, dt):
    """Eigenvalues of L⁻¹ΔF L⁻* over all blocks."""
    return np.concatenate([_eigvalsh((dt @ W).reshape(Linv.shape)).ravel()
                           for _, Linv, W in parts])


def joining_residuals_reference(ctx, values):
    """The joining battery with one Hermitian part, skew norm and `eigvalsh`
    per block size, 1×1 blocks included."""
    z = np.asarray(values, dtype=complex).reshape(-1)
    zh = np.empty_like(z)
    herm, psd_floor = 0.0, math.inf
    for idx in ctx.blocks:
        X = z[idx]
        Xh = (X + _adjoints(X)) / 2
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


def hermitian_basis_reference(ctx):
    """Columns: a real-orthonormal basis of the tables with Hermitian blocks.

    Per density block: the diagonal units, and (E_ab + E_ba)/√2 and
    i(E_ab − E_ba)/√2 for a < b.
    """
    diag, upper, lower = [], [], []
    for idx in ctx.blocks:
        a, b = np.triu_indices(idx.shape[-1], 1)
        diag.append(np.diagonal(idx, axis1=1, axis2=2).reshape(-1))
        upper.append(idx[:, a, b].reshape(-1))
        lower.append(idx[:, b, a].reshape(-1))
    diag, upper, lower = (np.concatenate(x) for x in (diag, upper, lower))
    H = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    H[diag, np.arange(diag.size)] = 1.0
    sym = diag.size + np.arange(upper.size)
    H[upper, sym] = H[lower, sym] = 1 / np.sqrt(2)
    H[upper, sym + upper.size] = 1j / np.sqrt(2)
    H[lower, sym + upper.size] = -1j / np.sqrt(2)
    return H


def constraint_rows_reference(ctx):
    """Complex rows K of the joining constraints on flat value tables.

    A joining satisfies K z = (1, μ, ν, 0, …, 0): trace one, the marginals
    V·1 = μ and 1ᵀ·V = ν, and Uaᵀ V Ub = V for every generator.
    """
    dA, dB, n = ctx.dim_a, ctx.dim_b, ctx.dim
    ua = ctx.A.structure.identity().coords()
    ub = ctx.B.structure.identity().coords()
    K = [np.outer(ua, ub).reshape(1, n),
         (np.eye(dA)[:, :, None] * ub).reshape(dA, n),
         (ua[:, None] * np.eye(dB)[:, None, :]).reshape(dB, n)]
    for Ua, Ub in zip(ctx.A.generator_matrices, ctx.B.generator_matrices):
        # entry (i, j) of Uaᵀ V Ub is Σ Ua[m, i] Ub[l, j] V[m, l]
        K.append(np.einsum("mi,lj->ijml", Ua, Ub).reshape(n, n) - np.eye(n))
    return np.vstack(K)


def tangent_space_reference(ctx):
    """(basis, rank gap) of T from the SVD of K·H with the dense H."""
    H = hermitian_basis_reference(ctx)
    KH = constraint_rows_reference(ctx) @ H
    M = np.vstack([KH.real, KH.imag])
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(M.shape) * np.finfo(float).eps))
    return vt[rank:] @ H.T, float(s[rank - 1])


def _null_space(m):
    _, s, vh = np.linalg.svd(m)
    return vh[int(np.sum(s > 1e-8)):].conj().T


def _cluster_values(values, tol=1e-8):
    reps = []
    for v in sorted(values, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
        if all(abs(v - r) >= tol for r in reps):
            reps.append(complex(v))
    return reps


def joint_eigenspaces_reference(onb_unitaries):
    """(character tuple, orthonormal basis columns) of every joint eigenspace.

    Iterated eigenspace refinement, as the package computed the point
    spectrum before it took one `eigh`: each unitary in turn splits every
    space found so far by the null spaces of U − v at the modulus-one
    eigenvalues v of its compression.
    """
    d = onb_unitaries[0].shape[0]
    spaces = [((), np.eye(d, dtype=complex))]
    for U in onb_unitaries:
        refined = []
        for chars, B in spaces:
            comp = B.conj().T @ U @ B
            cands = [v for v in np.linalg.eigvals(comp) if abs(abs(v) - 1.0) < 1e-6]
            for v in _cluster_values(cands):
                ns = _null_space(U @ B - v * B)
                if ns.shape[1] == 0:
                    continue
                Bv = B @ ns
                # polish the eigenvalue with a Rayleigh quotient
                chi = complex(np.mean(np.diagonal(Bv.conj().T @ U @ Bv)))
                refined.append((chars + (chi / abs(chi),), Bv))
        spaces = refined
    return spaces


def witness_direction_reference(ctx):
    """(directions_scanned, witness_direction) of a trusted `disjointness_test`.

    The first of the 4·dim directions w·(e_i ⊗ f_j), in (i, j, w) order with
    w = 1, i, −1, −i, whose Hermitian part, built as an element of the
    product algebra, has a projection onto T above rounding, as the test
    scanned them before it read the direction off T's basis; (4·dim, None)
    when T = {0}.
    """
    for pos in range(4 * ctx.dim):
        (i, j), w = divmod(pos // 4, ctx.dim_b), 1j ** (pos % 4)
        table = np.zeros((ctx.dim_a, ctx.dim_b), dtype=complex)
        table[i, j] = w
        c = product_element_reference(ctx, table)
        k = product_table_reference(ctx, 0.5 * (c + c.adjoint())).reshape(-1)
        if np.linalg.norm((ctx.tangent.basis @ k).real) > _RANK_GAP_MIN:
            return pos + 1, (i, j, w)
    return 4 * ctx.dim, None


def _shifted(lengths, letter):
    """T on one letter: index + 1, modulo m on a cycle track of length m."""
    tid, idx = letter
    m = lengths[tid]
    return (tid, (idx + 1) % m if m else idx + 1)


def orbit_periods_reference(sys, max_len=2, shift_letters=2):
    """[(element, period under T or None)] over a finite piece of Γ.

    The piece: every reduced word of length at most `max_len` (free family),
    or every permutation (finperm), over the letters of the cycle tracks and
    the letters 0..shift_letters − 1 of each shift track. T is iterated one
    step at a time on the element itself; it fixes every cycle letter after
    L steps, L the lcm of the cycle lengths, so an element that comes back
    comes back within L steps, and None marks one that does not.
    """
    lengths = {t.id: t.m for t in sys.spec.tracks}   # None on a shift track
    letters = [(t.id, i) for t in sys.spec.tracks
               for i in range(t.m if t.kind == "cycle" else shift_letters)]
    bound = math.lcm(*(m for m in lengths.values() if m))
    if sys.family == "free":
        steps = [(x, e) for x in letters for e in (1, -1)]
        words, frontier = [()], [()]
        for _ in range(max_len):
            frontier = [w + (s,) for w in frontier for s in steps
                        if not w or w[-1] != (s[0], -s[1])]
            words += frontier
        elements = [(w, w) for w in words]
    else:   # a permutation as the dict of the letters it moves
        elements = []
        for image in itertools.permutations(letters):
            moved = {x: y for x, y in zip(letters, image) if x != y}
            elements.append((FinPerm(tuple(moved.items())), moved))

    def shift(h):
        if sys.family == "free":
            return tuple((_shifted(lengths, x), e) for x, e in h)
        return {_shifted(lengths, x): _shifted(lengths, y) for x, y in h.items()}

    out = []
    for g, raw in elements:
        h, period = raw, None
        for n in range(1, bound + 1):
            h = shift(h)
            if h == raw:
                period = n
                break
        out.append((g, period))
    return out


def classify_dual_reference(sys, max_len=2):
    """(ergodic, compact, gamma_order) from `orbit_periods_reference`.

    Ergodic: no element but the identity comes back. Compact: every element
    comes back. The order is the size of the piece when every element comes
    back and the piece is all of Γ: the words stopped short of `max_len`,
    or the permutations moved every letter, there being no shift track.
    """
    periods = orbit_periods_reference(sys, max_len)
    ergodic = all(p is None for g, p in periods if g != sys.identity())
    compact = all(p is not None for _, p in periods)
    if sys.family == "free":
        whole = all(len(g) < max_len for g, _ in periods)
    else:
        whole = not sys.spec.shift_tracks
    return ergodic, compact, len(periods) if compact and whole else None


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


def asymptotic_abelianness_profile(sys: FiniteSystem, a: AlgebraElement,
                                   b: AlgebraElement, n_max: int) -> list[float]:
    """Averages (1/|Λ_n|) Σ_{g in Λ_n} ‖[a, α_g(b)]‖ for n = 1..n_max.

    The norm is the operator norm, exact via singular values. Folner boxes
    follow the group descriptor and are nested, so the norms are computed
    once on the largest box, with α_g(b) from power tables of the generator
    matrices; no GNS data is built.
    """
    group = sys.group
    images = element_matrices(sys.generator_matrices, folner_elements(group, n_max)) @ b.coords()
    norms = np.array([(a @ bg - bg @ a).norm() for bg in map(sys.structure.from_coords, images)])
    norms = norms.reshape((len(group.folner_range(n_max)),) * group.k)
    return [float(np.mean(norms[(slice(len(group.folner_range(n))),) * norms.ndim]))
            for n in range(1, n_max + 1)]
