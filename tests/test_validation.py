"""Closed-form validation against the brute-force reference, and input guards.

`validate_system` reads every invariant from the normal form and the
coordinate matrix of each generator. The reference in `oracles` applies the
generators to every basis element and every pair of them. On generated
systems, valid and invalid, both must report the same (kind, where) list,
with residuals equal up to 1e-9 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import corpus
from ncjoin.algebra import (
    VALIDATION_TOL,
    AlgebraElement,
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    cyclic_rotation_system,
    identity_automorphism,
    single_block_system,
    uniform_state,
    validate_system,
)
from ncjoin.errors import StructureError
from ncjoin.gns import gns_construct

from oracles import validation_reference

PERTURBATIONS = (0.0, 1e-10, 1e-6, 0.3)
# A residual reported near the 1e-9 tolerance carries the ~1e-17 rounding of
# its O(1) inputs in both computations; relative 1e-9 alone cannot hold there.
ABS_FLOOR = 1e-15


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def _noise(rng, n, scale, hermitian=False):
    """Complex noise of operator norm `scale`."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        z = z + z.conj().T
    return scale * z / np.linalg.norm(z, 2)


def _perm(rng, sizes):
    """A random block permutation that maps each block onto one of its size."""
    perm = list(range(len(sizes)))
    for n in set(sizes):
        same = [k for k, m in enumerate(sizes) if m == n]
        for k, p in zip(same, rng.permutation(same)):
            perm[k] = int(p)
    return tuple(perm)


def _generator(rng, structure, kind, order, scale):
    """A Haar generator, or Ad(u) with u^order = 1 (no block permutation),
    with conjugators perturbed by noise of norm `scale`."""
    sizes = structure.block_sizes
    if kind == "haar":
        perm, conj = _perm(rng, sizes), [_haar(rng, n) for n in sizes]
    else:
        perm, conj = tuple(range(len(sizes))), []
        for n in sizes:
            v = _haar(rng, n)
            roots = np.exp(2j * np.pi * rng.integers(0, order, n) / order)
            conj.append(v @ np.diag(roots) @ v.conj().T)
    return Automorphism(structure, perm, [u + _noise(rng, len(u), scale) for u in conj])


@st.composite
def systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    structure = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    kind = draw(st.sampled_from(("Z", "Zk", "Zm")))
    if kind == "Z":
        group = GroupDescriptor("Z")
    elif kind == "Zk":
        group = GroupDescriptor("Zk", k=draw(st.integers(2, 3)))
    else:
        group = GroupDescriptor("Zm", m=draw(st.integers(1, 4)))
    order = group.m or 3
    scale = draw(st.sampled_from(PERTURBATIONS))
    gen_kind = draw(st.sampled_from(("haar", "root")))
    if kind == "Zk" and draw(st.booleans()):
        # powers of one generator commute; independent draws mostly do not
        base = _generator(rng, structure, gen_kind, order, scale)
        gens = [base.power(j + 1) for j in range(group.k)]
    else:
        gens = [_generator(rng, structure, draw(st.sampled_from(("haar", "root"))), order, scale)
                for _ in range(group.k)]
    state = uniform_state(structure)
    state_scale = draw(st.sampled_from(PERTURBATIONS))
    if state_scale:
        hermitian = draw(st.booleans())
        state = FaithfulState(structure, [
            b + _noise(rng, len(b), state_scale / structure.matrix_size, hermitian)
            for b in state.density.blocks])
    return FiniteSystem(structure, state, group, gens)


def _assert_matches_reference(sysd):
    ref = validation_reference(sysd)
    # (u a u*)* = u a* u* rounds identically on both sides for finite entries
    assert all(kind != "adjoint" for kind, _, _ in ref)
    report = validate_system(sysd)
    assert [(v.kind, v.where) for v in report.violations] == [(k, w) for k, w, _ in ref]
    for v, (_, _, r) in zip(report.violations, ref):
        assert abs(v.residual - r) <= 1e-9 * abs(r) + ABS_FLOOR, (v, r)
    return report


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems())
def test_closed_forms_match_reference(sysd):
    _assert_matches_reference(sysd)


@pytest.mark.parametrize("name", corpus.FINITE_SYSTEMS)
def test_closed_forms_match_reference_on_corpus(name):
    sysd = corpus.system(name)
    assert _assert_matches_reference(sysd).valid
    assert _assert_matches_reference(sysd.mirror.promoted).valid


def _band_noise(rng, n, scale, spread):
    """Complex noise of operator norm `scale`: rank one, or spread over the
    whole n×n block, where its Frobenius norm exceeds its operator norm."""
    if spread:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        z = np.outer(*(rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))))
    return scale * z / np.linalg.norm(z, 2)


def _unitary_noise(rng, n, scale, spread):
    """exp(iH) for a Hermitian H of operator norm `scale`: the Hermitian part
    of rank-one or of spread noise."""
    z = _band_noise(rng, n, 1.0, spread)
    vals, vecs = np.linalg.eigh(z + z.conj().T)
    return (vecs * np.exp(1j * scale * vals / abs(vals).max())) @ vecs.conj().T


@st.composite
def near_tolerance_systems(draw):
    """Valid systems on a 3×3 block, optionally beside a 1×1 one, moved by a
    perturbation of norm in [VALIDATION_TOL/3, 3·VALIDATION_TOL]: the
    density or a conjugator by additive noise, or, with the tracial state,
    one generator of a commuting Z^k pair or the generator of a Z_m action
    by a unitary factor, so that only commutation or the order can fail."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(VALIDATION_TOL / 3, 3 * VALIDATION_TOL))
    spread = draw(st.booleans())
    target = draw(st.sampled_from(("density", "conjugator", "commutation", "order")))
    sizes = (3, 1) if draw(st.booleans()) else (3,)
    structure = BlockStructure(sizes)
    bases = [_haar(rng, n) for n in sizes]

    def diagonal(phases, v):   # v·diag(phases)·v*
        return (v * phases) @ v.conj().T

    weights = [rng.uniform(0.2, 1.0, n) for n in sizes]
    total = sum(w.sum() for w in weights)
    density = [diagonal(w / total, v) for w, v in zip(weights, bases)]
    m = draw(st.integers(2, 4))
    group = (GroupDescriptor("Zk", k=2) if target == "commutation" else
             GroupDescriptor("Zm", m=m) if target == "order" else GroupDescriptor("Z"))

    def conjugators():
        roots = [np.exp(2j * np.pi * rng.integers(0, m, n) / m) for n in sizes]
        return [diagonal(r, v) for r, v in zip(roots, bases)]

    gens = [conjugators() for _ in range(group.k)]
    if target == "density":
        density[0] = density[0] + _band_noise(rng, 3, scale, spread)
    elif target == "conjugator":
        gens[0][0] = gens[0][0] + _band_noise(rng, 3, scale, spread)
    else:
        density = [np.eye(n) / sum(sizes) for n in sizes]
        gens[-1][0] = gens[-1][0] @ _unitary_noise(rng, 3, scale / group.m if target == "order"
                                                   else scale, spread)
    perm = tuple(range(len(sizes)))
    return FiniteSystem(structure, FaithfulState(structure, density), group,
                        [Automorphism(structure, perm, conj) for conj in gens])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_tolerance_systems())
def test_residuals_near_the_tolerance_match_reference(sysd):
    """Residuals of norm near VALIDATION_TOL, where the Frobenius screen and
    the operator norm can disagree, give the reference's kinds, places and
    residuals."""
    _assert_matches_reference(sysd)


@st.composite
def valid_systems(draw):
    """Valid systems: corpus entries, rotations C_p, Haar Ad(u) with a
    non-tracial density that commutes with u, block permutations with Haar
    conjugators, and Z^k and Z_m actions by unitaries that share the
    density's eigenbasis."""
    kind = draw(st.sampled_from(("corpus", "rotation", "haar", "permutation", "Zk", "Zm")))
    if kind == "corpus":
        return corpus.system(draw(st.sampled_from(sorted(corpus.FINITE_SYSTEMS))))
    if kind == "rotation":
        return cyclic_rotation_system(draw(st.integers(2, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "permutation":
        structure = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=2,
                                                       max_size=4))))
        sizes = structure.block_sizes
        gen = Automorphism(structure, _perm(rng, sizes), [_haar(rng, n) for n in sizes])
        return FiniteSystem(structure, uniform_state(structure), GroupDescriptor("Z"), [gen])
    n = draw(st.integers(2, 4))
    v = _haar(rng, n)
    weights = rng.uniform(0.2, 1.0, n)
    density = (v * (weights / weights.sum())) @ v.conj().T

    def unitary(order=None):
        """Diagonal in the eigenbasis of the density, so Ad of it keeps the state."""
        phases = rng.uniform(0, 2 * np.pi, n) if order is None else \
            2 * np.pi * rng.integers(0, order, n) / order
        return (v * np.exp(1j * phases)) @ v.conj().T

    if kind == "haar":
        return single_block_system(unitary(), density)
    if kind == "Zk":
        return single_block_system([unitary() for _ in range(draw(st.integers(2, 3)))], density)
    m = draw(st.integers(1, 4))
    return single_block_system(unitary(m), density, group=GroupDescriptor("Zm", m=m))


@settings(max_examples=60, deadline=None)
@given(valid_systems())
def test_mirror_shares_the_validation_report(sysd):
    """The promoted mirror carries its system's report itself, and a fresh
    validation of the promoted system finds no violation either."""
    assert sysd.validation.valid
    promoted = sysd.mirror.promoted
    assert promoted.validation is sysd.validation
    assert not validate_system(promoted).violations


def test_validation_and_gns_do_not_apply_generators(monkeypatch):
    def refuse(self, a):
        raise AssertionError("Automorphism.apply called")

    monkeypatch.setattr(Automorphism, "apply", refuse)
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        assert validate_system(sysd).valid
        gns_construct(sysd)
        assert len(sysd.generator_matrices) == len(sysd.generators)


def test_matrix_columns_are_images_of_basis_elements():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        s = sysd.structure
        for gen in sysd.generators:
            columns = np.column_stack(
                [gen.apply(s.basis_element(j)).coords() for j in range(s.dimension)])
            assert np.array_equal(gen.matrix(), columns), name


@pytest.mark.parametrize("blocks,message", [
    ([np.full((2, 2), np.nan), np.eye(2), np.eye(3)], "block 0 has non-finite entries"),
    ([np.eye(2), np.full((2, 2), np.inf), np.eye(2)], "block 1 has non-finite entries"),
    ([np.full((2, 2), np.nan), np.eye(2), np.eye(2)], "block 0 has non-finite entries"),
    ([np.eye(3), np.full((2, 2), np.nan), np.eye(2)], r"block 0 has shape \(3, 3\)"),
    ([np.eye(2), np.eye(2), np.eye(3)], r"block 2 has shape \(3, 3\), expected \(2, 2\)"),
], ids=["nan-then-shape", "inf-in-middle", "nan-first", "shape-then-nan", "shape-last"])
def test_constructors_name_the_first_failing_block(blocks, message):
    """Shape and finiteness are checked in block order, shape first within a block."""
    s = BlockStructure((2, 2, 2))
    with pytest.raises(StructureError, match="density " + message):
        FaithfulState(s, blocks)
    with pytest.raises(StructureError, match="conjugator " + message):
        Automorphism(s, (0, 1, 2), blocks)
    with pytest.raises(StructureError, match="element " + message):
        AlgebraElement(s, blocks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_constructors_reject_non_finite_blocks(bad):
    s = BlockStructure((2, 1))
    density = [np.eye(2) / 3, np.array([[1 / 3]])]
    density[0] = density[0].astype(complex)
    density[0][0, 1] = bad
    with pytest.raises(StructureError, match="non-finite"):
        FaithfulState(s, density)
    conj = [np.eye(2, dtype=complex), np.array([[bad]])]
    with pytest.raises(StructureError, match="non-finite"):
        Automorphism(s, (0, 1), conj)
    for blocks in (density, conj):
        with pytest.raises(StructureError, match="non-finite"):
            AlgebraElement(s, blocks)
    # finite data still constructs
    identity_automorphism(s)


def test_constructors_check_an_element_as_its_blocks():
    """A state or an automorphism built from an element takes its vector
    when it is finite and on the same block sizes; otherwise it raises as
    for the element's block list."""
    s = BlockStructure((2, 1))
    v = np.array([0.5, 0, 0, 0.3, 0.2], dtype=complex)
    assert FaithfulState(s, s.from_coords(v)).density.coords().tobytes() == v.tobytes()
    v[4] = np.nan
    bad = s.from_coords(v)
    with pytest.raises(StructureError, match="density block 1 has non-finite entries"):
        FaithfulState(s, bad)
    with pytest.raises(StructureError, match="conjugator block 1 has non-finite entries"):
        Automorphism(s, (0, 1), bad)
    other = BlockStructure((1, 2)).from_coords(np.ones(5))
    with pytest.raises(StructureError, match=r"density has blocks \(1, 2\), expected \(2, 1\)"):
        FaithfulState(s, other)
