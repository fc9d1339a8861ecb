import dataclasses
import itertools

import numpy as np
import pytest

from ncjoin import corpus
from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    AlgebraElement,
    cyclic_rotation_system,
    identity_automorphism,
    identity_system,
    single_block_system,
    uniform_state,
    validate_system,
)
from ncjoin.errors import NcjoinError, StructureError
from ncjoin.joinings import build_tensor_context, find_joining
from oracles import (blocks_reference, folner_elements, product_blocks_reference,
                     tensor_blocks_reference)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_structure_indexing_roundtrip():
    s = BlockStructure((2, 3, 1))
    assert s.dimension == 4 + 9 + 1
    for i in range(s.dimension):
        k, r, c = s.basis_address(i)
        assert s.basis_index(k, r, c) == i
    assert [tuple(int(x[i]) for x in s.addresses) for i in range(s.dimension)] == [
        s.basis_address(i) for i in range(s.dimension)]
    # adjoint pairing is the transposed matrix unit
    for i in range(s.dimension):
        e = s.basis_element(i)
        assert (e.adjoint() - s.basis_element(s.adjoint_indices[i])).norm() <= 1e-10


def test_out_of_range_basis_indices_raise():
    """Negative indices do not wrap around to the last basis elements."""
    pauli = corpus.system("pauli")
    s = pauli.structure
    for i in (-1, -s.dimension, s.dimension):
        with pytest.raises(IndexError):
            s.basis_address(i)
        with pytest.raises(IndexError):
            s.basis_element(i)
    ctx = build_tensor_context(pauli, pauli)
    for i, j in ((-1, 0), (0, -1), (ctx.dim_a, 0), (0, ctx.dim_b)):
        with pytest.raises(IndexError):
            find_joining(ctx, objective=(i, j))


def test_out_of_range_basis_addresses_raise():
    """basis_index checks block, row and column as basis_address checks an index;
    none of them wraps around or spills into the next block."""
    s = BlockStructure((2, 1))
    for address in ((0, 2, 0), (0, 0, 2), (-1, 0, 0), (2, 0, 0), (1, 0, 1), (1, -1, 0)):
        with pytest.raises(IndexError):
            s.basis_index(*address)
    assert s.basis_index(1, 0, 0) == 4


def _random_element(s, rng):
    return s.from_coords(rng.standard_normal(s.dimension) + 1j * rng.standard_normal(s.dimension))


def test_coords_and_from_coords_copy():
    s = BlockStructure((2, 1))
    v = np.arange(s.dimension, dtype=complex)
    a = s.from_coords(v)
    v[0] = 7
    out = a.coords()
    out[:] = -1
    assert np.array_equal(a.coords(), np.arange(s.dimension))
    assert np.array_equal(a.blocks[0], [[0, 1], [2, 3]])
    ident = s.identity()
    ident.coords()[0] = 5
    assert np.array_equal(s.identity().coords(), [1, 0, 0, 1, 1])


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 1, 3), (1, 1, 1, 1), (3, 2, 2, 1, 2)])
def test_element_views_match_per_block_construction(sizes):
    s = BlockStructure(sizes)
    rng = np.random.default_rng(len(sizes))
    a, b = _random_element(s, rng), _random_element(s, rng)
    ref = blocks_reference(s, a.coords())

    def same(element, blocks):
        return all(np.array_equal(x, y) for x, y in zip(element.blocks, blocks, strict=True))

    assert same(a, ref)
    assert same(AlgebraElement(s, ref), ref)
    for x, g in zip(a.stacks(), s.size_groups):
        assert np.array_equal(x, np.array([ref[k] for k in g.blocks]))
    assert same(a.adjoint(), [x.conj().T for x in ref])
    assert same(a.transpose(), [x.T for x in ref])
    assert same(a + b, [x + y for x, y in zip(ref, b.blocks)])
    assert same(a - b, [x - y for x, y in zip(ref, b.blocks)])
    assert same(-a, [-x for x in ref])
    assert same(0.5j * a, [0.5j * x for x in ref])
    for x, y in zip((a @ b).blocks, product_blocks_reference(a, b), strict=True):
        assert np.allclose(x, y, rtol=1e-14, atol=1e-14)
    assert same(s.zero(), [np.zeros((n, n)) for n in sizes])
    assert same(s.identity(), [np.eye(n) for n in sizes])
    for i in range(s.dimension):
        k, r, c = s.basis_address(i)
        assert s.basis_element(i).blocks[k][r, c] == 1 and s.basis_element(i).norm() == 1
    with pytest.raises(StructureError):
        AlgebraElement(s, ref[:-1] + [np.zeros((sizes[-1] + 1,) * 2)])


def test_tensor_element_matches_per_block_kron():
    """The table of a ⊗ b, read through `ctx.blocks`, holds the per-block
    krons, grouped by size in order of first appearance."""
    A, B = identity_system((2, 1)), identity_system((1, 3, 2))
    ctx = build_tensor_context(A, B)
    rng = np.random.default_rng(8)
    a, b = _random_element(A.structure, rng), _random_element(B.structure, rng)
    z = np.outer(a.coords(), b.coords()).reshape(-1)
    krons = tensor_blocks_reference(a, b)
    sizes = [len(x) for x in krons]
    for idx, n in zip(ctx.blocks, dict.fromkeys(sizes), strict=True):
        assert np.array_equal(z[idx], [x for x in krons if len(x) == n])


def test_structure_rejects_bad_blocks():
    with pytest.raises(StructureError):
        BlockStructure(())
    with pytest.raises(StructureError):
        BlockStructure((2, 0))


def test_validate_c3_rotation_is_valid():
    report = validate_system(cyclic_rotation_system(3))
    assert report.valid


def test_validate_reports_state_invariance_residual():
    rot = cyclic_rotation_system(3)
    weights = [np.array([[w]], dtype=complex) for w in (0.5, 0.3, 0.2)]
    sysd = dataclasses.replace(rot, state=FaithfulState(rot.structure, weights))
    report = validate_system(sysd)
    assert not report.valid
    residuals = {round(v.residual, 12) for v in report.violations if v.kind == "invariance"}
    # e_0 moves to e_1: |0.3 - 0.5| = 0.2 must be among the reported residuals
    assert 0.2 in residuals
    assert max(v.residual for v in report.violations
               if v.kind == "invariance") == pytest.approx(0.3)


def test_validate_reports_nonunitary_conjugator():
    s = BlockStructure((2,))
    bad = Automorphism(s, (0,), [np.diag([1.0, 2.0]).astype(complex)])
    sysd = FiniteSystem(s, uniform_state(s), GroupDescriptor("Z"), [bad])
    report = validate_system(sysd)
    kinds = {v.kind for v in report.violations}
    assert "unitarity" in kinds
    assert max(v.residual for v in report.violations
               if v.kind == "unitarity") == pytest.approx(3.0)


def test_state_eval_examples():
    s = BlockStructure((1, 1, 1))
    st = uniform_state(s)
    assert st.value(s.identity()) == pytest.approx(1.0)
    assert st.value(s.basis_element(0)) == pytest.approx(1 / 3)
    m2 = single_block_system(np.eye(2))
    pauli_x = m2.structure.from_coords([0, 1, 1, 0])
    assert m2.state.value(pauli_x) == pytest.approx(0.0)


def test_state_eval_dimension_mismatch():
    st = uniform_state(BlockStructure((1, 1)))
    with pytest.raises(NcjoinError, match="state and element block structures differ"):
        st.value(BlockStructure((1, 1, 1)).identity())


def test_apply_automorphism_examples():
    c3 = cyclic_rotation_system(3)
    alpha = c3.generators[0]
    moved = alpha.apply(c3.structure.from_coords([1, 0, 0]))
    assert np.allclose(moved.coords(), [0, 1, 0])

    m2 = single_block_system(X)
    z = m2.structure.from_coords(Z.reshape(-1))
    assert (m2.generators[0].apply(z) - -1 * z).norm() <= 1e-10

    ident = identity_automorphism(c3.structure)
    a = c3.structure.from_coords([0.3, 1j, -2])
    assert (ident.apply(a) - a).norm() <= 1e-10


def test_composition_matches_sequential_application():
    m2 = single_block_system([X, Z], group=GroupDescriptor("Zk", k=2))
    ax, az = m2.generators
    comp = ax.compose(az)
    for i in range(m2.dimension):
        e = m2.structure.basis_element(i)
        assert (comp.apply(e) - ax.apply(az.apply(e))).norm() <= 1e-10


def test_invariance_residual_small_on_corpus():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        basis = [sysd.structure.basis_element(i) for i in range(sysd.dimension)]
        for gen in sysd.generators:
            worst = max(abs(sysd.state.value(gen.apply(e)) - sysd.state.value(e))
                        for e in basis)
            assert worst < 1e-9, name


def test_automorphisms_preserve_products_and_adjoints():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        basis = [sysd.structure.basis_element(i) for i in range(sysd.dimension)]
        for gen in sysd.generators:
            imgs = [gen.apply(e) for e in basis]
            for i, j in itertools.product(range(len(basis)), repeat=2):
                assert (gen.apply(basis[i] @ basis[j]) - imgs[i] @ imgs[j]).norm() < 1e-10
            for i in range(len(basis)):
                assert (gen.apply(basis[i].adjoint()) - imgs[i].adjoint()).norm() < 1e-10


def test_inverse_composes_to_identity():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        for gen in sysd.generators:
            both = gen.compose(gen.inverse())
            for i in range(sysd.dimension):
                e = sysd.structure.basis_element(i)
                assert (both.apply(e) - e).norm() < 1e-10


def test_group_descriptor_folner_sets():
    z = GroupDescriptor("Z")
    assert folner_elements(z, 3) == [(1,), (2,), (3,)]
    zk = GroupDescriptor("Zk", k=2)
    assert len(folner_elements(zk, 3)) == 9
    zm = GroupDescriptor("Zm", m=4)
    assert folner_elements(zm, 7) == [(0,), (1,), (2,), (3,)]


def test_z_to_the_one_is_z():
    z1 = GroupDescriptor("Zk", k=1)
    assert z1 == GroupDescriptor("Z") and z1.kind == "Z" and z1.k == 1
    assert hash(z1) == hash(GroupDescriptor("Z"))


@pytest.mark.parametrize("kind,k,m", [("Z", 2, None), ("Zm", 2, 3), ("Zk", 2, 3), ("Z", 1, 3),
                                      ("Zk", None, None)])
def test_group_fields_outside_their_kind_raise(kind, k, m):
    with pytest.raises(StructureError):
        GroupDescriptor(kind, k=k, m=m)


def test_zm_generator_order_validated():
    s = BlockStructure((1, 1, 1))
    gen = cyclic_rotation_system(3).generators[0]
    good = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=3), [gen])
    assert validate_system(good).valid
    bad = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=2), [gen])
    assert not validate_system(bad).valid


def _power_by_loop(alpha, n):
    base = alpha if n >= 0 else alpha.inverse()
    out = identity_automorphism(alpha.structure)
    for _ in range(abs(n)):
        out = base.compose(out)
    return out


def test_power_matches_compose_loop():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    m3 = single_block_system(q * (np.diag(r) / abs(np.diag(r))))
    for sysd in (corpus.system("c5"), corpus.system("pauli"), m3):
        s = sysd.structure
        basis = [s.basis_element(i) for i in range(s.dimension)]
        for alpha in sysd.generators:
            for n in range(-7, 18):
                fast, slow = alpha.power(n), _power_by_loop(alpha, n)
                for e in basis:
                    assert (fast.apply(e) - slow.apply(e)).norm() <= 1e-12, n


def test_system_is_immutable_and_keeps_its_derived_data():
    sysd = cyclic_rotation_system(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sysd.state = uniform_state(sysd.structure)
    assert isinstance(sysd.generators, tuple)
    assert sysd.validation is sysd.validation and sysd.validation.valid
    assert sysd.gns is sysd.gns
    assert sysd.mirror is sysd.mirror
    # the builder stays uncached: a fresh report per call
    assert validate_system(sysd) is not sysd.validation


@pytest.mark.parametrize("state_sizes,gen_sizes,part", [
    ((2,), (1, 1, 1, 1), "the state"),
    ((1, 1, 1, 1), (1, 1, 1), "generator 0"),
])
def test_system_rejects_parts_on_other_blocks(state_sizes, gen_sizes, part):
    """A state or generator built on other blocks than the system's raises
    StructureError naming it, before validation or a GNS build reads it."""
    s = BlockStructure((1, 1, 1, 1))
    with pytest.raises(StructureError, match=part):
        FiniteSystem(s, uniform_state(BlockStructure(state_sizes)), GroupDescriptor("Z"),
                     [identity_automorphism(BlockStructure(gen_sizes))])
