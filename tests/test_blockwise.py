"""Kernels run once per block size agree with the per-block loops in `oracles`.

Systems have 1-4 blocks of sizes 1-3, so sizes repeat and block
permutations move blocks among those of one size. Conjugators are Haar
unitaries; densities are tracial or not, and both may carry noise, which
makes the system invalid. Coordinate matrices are compared exactly, density
powers and residuals within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    _eigh,
    _eigvalsh,
    sandwich_matrix,
    uniform_state,
    validate_system,
)
from ncjoin.gns import _density_powers
from ncjoin.joinings import _objective, mirror_context

from oracles import (
    automorphism_matrix_reference,
    blockwise_validation_reference,
    density_power_reference,
    element_norm_reference,
    hermiticity_reference,
    min_eigenvalue_reference,
    modular_conjugation_reference,
    sandwich_matrix_reference,
    state_value_reference,
    top_eigenvalue_reference,
    trace_reference,
    unitarity_reference,
)

REL = 1e-12
# residuals of valid data are rounding (~1e-16); |x| of a 1×1 block and its
# SVD may differ in the last bit, which no relative bound can absorb there
ABS_FLOOR = 1e-15


def _close(x, y):
    return abs(x - y) <= REL * abs(y) + ABS_FLOOR


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def _noise(rng, n, scale):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@st.composite
def systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    structure = BlockStructure(sizes)
    # block permutation among blocks of equal size
    perm = list(range(len(sizes)))
    for n in set(sizes):
        same = [k for k, m in enumerate(sizes) if m == n]
        for k, p in zip(same, rng.permutation(same)):
            perm[k] = int(p)
    if draw(st.booleans()):
        state = uniform_state(structure)
    else:
        weights = rng.uniform(0.1, 1.0, sum(sizes))
        weights /= weights.sum()
        pos, density = 0, []
        for n in sizes:
            v = _haar(rng, n)
            density.append(v @ np.diag(weights[pos:pos + n]) @ v.conj().T)
            pos += n
        state = FaithfulState(structure, density)
    state_noise = draw(st.sampled_from((0.0, 1e-6, 0.3)))
    if state_noise:
        state = FaithfulState(structure, [b + _noise(rng, len(b), state_noise)
                                          for b in state.density.blocks])
    kind = draw(st.sampled_from(("Z", "Zk", "Zm")))
    group = {"Z": GroupDescriptor("Z"), "Zk": GroupDescriptor("Zk", k=2),
             "Zm": GroupDescriptor("Zm", m=draw(st.integers(1, 3)))}[kind]
    scale = draw(st.sampled_from((0.0, 1e-6, 0.3)))
    gens = [Automorphism(structure, tuple(perm),
                         [_haar(rng, n) + _noise(rng, n, scale) for n in sizes])
            for _ in range(group.k)]
    return FiniteSystem(structure, state, group, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(systems())
def test_validation_matches_blockwise_reference(sysd):
    ref = blockwise_validation_reference(sysd)
    report = validate_system(sysd)
    assert [(v.kind, v.where) for v in report.violations] == [(k, w) for k, w, _ in ref]
    for v, (_, _, r) in zip(report.violations, ref):
        assert _close(v.residual, r), (v, r)
    st_ = sysd.state
    assert _close(st_.hermiticity_residual(), hermiticity_reference(st_))
    assert _close(st_.trace(), trace_reference(st_))
    assert _close(st_.min_eigenvalue(), min_eigenvalue_reference(st_))
    for gen in sysd.generators:
        assert _close(gen.unitarity_residual(), unitarity_reference(gen))
        assert np.array_equal(gen.matrix(), automorphism_matrix_reference(gen))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(systems())
def test_products_and_norms_match_blockwise_reference(sysd):
    s = sysd.structure
    rng = np.random.default_rng(s.dimension)
    left, right = (s.from_coords(rng.standard_normal(s.dimension)
                                 + 1j * rng.standard_normal(s.dimension)) for _ in range(2))
    assert np.array_equal(sandwich_matrix(left, right), sandwich_matrix_reference(left, right))
    assert _close(left.norm(), element_norm_reference(left))
    assert _close(sysd.state.value(left), state_value_reference(sysd.state, left))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(systems())
def test_density_powers_match_blockwise_reference(sysd):
    if not sysd.state.min_eigenvalue() > 0.01:
        return   # ρ^z needs a positive definite density
    zs = (0.5, -0.5, -1, 0.3j)
    for z, got in zip(zs, _density_powers(sysd, *zs)):
        ref = density_power_reference(sysd, z)
        for g, r in zip(got.blocks, ref.blocks):
            assert np.abs(g - r).max() <= REL * np.abs(r).max()
    # the twist's arithmetic, built here: a generated system need not be valid
    got = sandwich_matrix(*_density_powers(sysd, 0.5, -0.5))[:, sysd.structure.adjoint_indices]
    ref = modular_conjugation_reference(sysd)
    assert np.abs(got - ref).max() <= REL * np.abs(ref).max()


@pytest.mark.parametrize("sizes", [(1, 2), (2, 1, 2), (1, 1, 3)])
def test_objective_top_eigenvalue_matches_blockwise_reference(sizes):
    # the product algebra of a system with its mirror repeats every size
    s = BlockStructure(sizes)
    rng = np.random.default_rng(len(sizes))
    sysd = FiniteSystem(s, uniform_state(s), GroupDescriptor("Z"),
                        [Automorphism(s, tuple(range(len(sizes))), [_haar(rng, n) for n in sizes])])
    ctx = mirror_context(sysd)
    d = ctx.structure.dimension
    c = ctx.structure.from_coords(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    assert _close(_objective(ctx, c)[1], top_eigenvalue_reference(0.5 * (c + c.adjoint())))


def test_one_by_one_eigen_shortcuts_match_lapack_bit_for_bit():
    """`_eigvalsh` and `_eigh` read the Hermitian part (x + x*)/2 of a 1×1
    matrix off its entry: the same bits as LAPACK, whose eigenvector is 1,
    also for zeros of either sign and entries whose Hermitian part
    overflows."""
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((64, 1, 1)) * 10.0 ** rng.integers(-320, 309, (64, 1, 1))
         + 1j * rng.standard_normal((64, 1, 1)))
    x[:4, 0, 0] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -2.0), 1.5e308]
    with np.errstate(over="ignore", invalid="ignore"):
        h = (x + x.conj().swapaxes(-1, -2)) / 2
        vals, vecs = np.linalg.eigh(h)
        assert _eigvalsh(h).tobytes() == np.linalg.eigvalsh(h).tobytes() == vals.tobytes()
        got_vals, got_vecs = _eigh(h)
    assert got_vals.tobytes() == vals.tobytes()
    assert got_vecs.tobytes() == vecs.tobytes()
