import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import cli, corpus, fileio
from ncjoin.algebra import (
    AlgebraElement,
    BlockStructure,
    FiniteSystem,
    GroupDescriptor,
    Automorphism,
    cyclic_rotation_system,
    identity_system,
    sandwich_matrix,
    single_block_system,
    uniform_state,
)
from ncjoin.errors import NcjoinError
from ncjoin.gns import (
    asymptotic_abelianness_profile,
    cesaro_correlation,
    classify_finite,
    eigenoperator,
    fixed_point_algebra,
    gns_construct,
    mirror_system,
    modular_group,
    modular_invariance_check,
    point_spectrum,
    point_spectrum_overlap,
    spectral_atoms,
    spectral_interval_projection,
    verify_spectral_covariance,
)
from ncjoin.joinings import cesaro_diagonal_average

from oracles import (
    _null_space,
    commutant_basis_reference,
    mirror_dynamics_reference,
    mirror_state_reference,
    onb_matrices_reference,
    promoted_image_reference,
)

OMEGA3 = np.exp(2j * np.pi / 3)


def _left_rep(sysd):
    """π(e_i) for each basis element e_i: left multiplication in canonical coordinates."""
    s = sysd.structure
    return [sandwich_matrix(s.basis_element(i), s.identity()) for i in range(s.dimension)]


# ---------------------------------------------------------------------------
# construction


def test_gns_c3_rotation(c3):
    space = gns_construct(c3)
    assert space.gram.shape == (3, 3)
    assert np.allclose(space.gram, np.eye(3) / 3)
    assert np.allclose(c3.generator_matrices[0], np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert np.allclose(space.cyclic_vector, np.ones(3))


def test_gns_m2_trace_state():
    m2 = single_block_system(np.eye(2))
    space = gns_construct(m2)
    assert space.gram.shape == (4, 4)
    assert np.allclose(space.gram, np.eye(4) / 2)
    assert np.allclose(m2.generator_matrices[0], np.eye(4))


def test_unitaries_fix_cyclic_vector():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        space = gns_construct(sysd)
        for U in sysd.generator_matrices:
            assert np.allclose(U @ space.cyclic_vector, space.cyclic_vector)


def test_gram_unitarity_invariant():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        space = gns_construct(sysd)
        for U in sysd.generator_matrices:
            res = np.linalg.norm(U.conj().T @ space.gram @ U - space.gram, 2)
            assert res < 1e-9, name


def test_left_rep_reproduces_products(c3, gibbs):
    for sysd in (c3, gibbs):
        space = gns_construct(sysd)
        left = _left_rep(sysd)
        for i in range(sysd.dimension):
            for j in range(sysd.dimension):
                ei = sysd.structure.basis_element(i)
                ej = sysd.structure.basis_element(j)
                lhs = left[i] @ ej.coords()
                assert np.allclose(lhs, (ei @ ej).coords())


def test_gram_matches_state_inner_products(gibbs):
    space = gns_construct(gibbs)
    for i in range(gibbs.dimension):
        for j in range(gibbs.dimension):
            ei = gibbs.structure.basis_element(i)
            ej = gibbs.structure.basis_element(j)
            assert space.gram[i, j] == pytest.approx(
                complex(gibbs.state.value(ei.adjoint() @ ej)))


# ---------------------------------------------------------------------------
# classification and spectrum


def test_classify_c5(c5):
    cls = classify_finite(c5)
    assert cls.ergodic
    assert cls.fixed_algebra_dimension == 1
    assert cls.h0_dimension == 5
    assert not cls.weakly_mixing
    assert cls.compact and cls.discrete_spectrum


def test_classify_pauli(pauli):
    cls = classify_finite(pauli)
    assert cls.ergodic
    assert cls.h0_dimension == 4
    spec = point_spectrum(pauli)
    chars = {tuple(int(round(v.real)) for v in e.eigenvalue) for e in spec}
    assert chars == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert all(e.multiplicity == 1 for e in spec)


def test_classify_trivial_system():
    cls = classify_finite(identity_system([1]))
    assert cls.ergodic and cls.weakly_mixing


def test_characters_a_micro_radian_apart_stay_apart():
    # only characters within EIG_CLUSTER_TOL (1e-8) merge: Ad(diag(1, e^{iφ})) on M2
    # has characters e^{-iφ}, 1, 1, e^{iφ}, and at φ = 1e-6 they are three classes
    sysd = single_block_system(np.diag([1, np.exp(1e-6j)]))
    cls = classify_finite(sysd)
    assert cls.fixed_algebra_dimension == 2 and not cls.ergodic
    assert [e.multiplicity for e in point_spectrum(sysd)] == [1, 2, 1]


def test_finite_dimension_facts_on_corpus():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        cls = classify_finite(sysd)
        assert cls.compact and cls.discrete_spectrum
        assert cls.weakly_mixing == (sysd.dimension == 1)
        assert cls.h0_dimension == sysd.dimension


def test_point_spectrum_c2(c2):
    spec = point_spectrum(c2)
    vals = sorted(round(e.eigenvalue[0].real) for e in spec)
    assert vals == [-1, 1]
    assert all(e.multiplicity == 1 for e in spec)


def test_point_spectrum_c3_cube_roots(c3):
    spec = point_spectrum(c3)
    got = sorted((round(v.real, 8), round(v.imag, 8))
                 for e in spec for v in e.eigenvalue)
    want = sorted((round(w.real, 8), round(w.imag, 8))
                  for w in (1, OMEGA3, OMEGA3 ** 2))
    assert got == want


def test_point_spectrum_identity_system(id3):
    spec = point_spectrum(id3)
    assert len(spec) == 1
    assert spec[0].multiplicity == 3
    assert abs(spec[0].eigenvalue[0] - 1) < 1e-12


def test_eigen_residual_invariant():
    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        space = gns_construct(sysd)
        for entry in point_spectrum(sysd):
            for col in range(entry.eigenvectors.shape[1]):
                x = entry.eigenvectors[:, col]
                for U, chi in zip(sysd.generator_matrices, entry.eigenvalue):
                    assert space.norm(U @ x - chi * x) < 1e-8


def test_eigenvectors_gram_orthonormal(c5):
    space = gns_construct(c5)
    spec = point_spectrum(c5)
    vecs = np.column_stack([e.eigenvectors for e in spec])
    g = vecs.conj().T @ space.gram @ vecs
    assert np.allclose(g, np.eye(vecs.shape[1]), atol=1e-9)


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


@st.composite
def generated_systems(draw):
    """Corpus systems, and generated Z, Z^2 and Z_m systems: rotations C_p
    acting as Z or as Z_p, identity systems, Haar Ad(u), Ad(u) with u of
    finite order m acting as Z_m, and Ad of two commuting unitaries whose
    eigenvalues are cube roots of unity, so that characters repeat."""
    kind = draw(st.sampled_from(["corpus", "rotation", "identity", "haar", "order", "pair"]))
    if kind == "corpus":
        return corpus.system(draw(st.sampled_from(sorted(corpus.FINITE_SYSTEMS))))
    if kind == "rotation":
        p = draw(st.integers(min_value=2, max_value=8))
        rot = cyclic_rotation_system(p)
        group = draw(st.sampled_from([GroupDescriptor("Z"), GroupDescriptor("Zm", m=p)]))
        return FiniteSystem(rot.structure, rot.state, group, rot.generators)
    if kind == "identity":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
        return identity_system(sizes, draw(st.sampled_from([
            GroupDescriptor("Z"), GroupDescriptor("Zk", k=2), GroupDescriptor("Zm", m=3)])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=4))
    v = _haar(rng, n)
    if kind == "haar":
        return single_block_system(v)
    if kind == "order":
        m = draw(st.integers(min_value=1, max_value=4))
        u = (v * np.exp(2j * math.pi * rng.integers(0, m, n) / m)) @ v.conj().T
        return single_block_system(u, group=GroupDescriptor("Zm", m=m))
    return single_block_system([(v * np.exp(2j * math.pi * rng.integers(0, 3, n) / 3))
                                @ v.conj().T for _ in range(2)])


@settings(max_examples=80, deadline=None)
@given(sysd=generated_systems())
def test_trivial_character_matches_fixed_space(sysd):
    """The χ = 1 class of the spectrum against the null-space SVD of the
    stacked U_k − 1 (`oracles._null_space`)."""
    svd_dim = _null_space(np.vstack([U - np.eye(len(U))
                                     for U in onb_matrices_reference(sysd)])).shape[1]
    triv = sum(e.multiplicity for e in point_spectrum(sysd)
               if all(abs(v - 1) < 1e-8 for v in e.eigenvalue))
    assert triv == svd_dim
    assert classify_finite(sysd).fixed_algebra_dimension == svd_dim
    assert len(fixed_point_algebra(sysd)) == svd_dim


@pytest.mark.parametrize("eps", [3e-9, 6e-9, 9e-9])
def test_character_chains_keep_every_column(eps, tmp_path):
    """Ad(diag(e^{iεk}), k = 0..2) has the characters 1, e^{±iε} and
    e^{±2iε}, each within 1e-8 of the next. Single linkage merges them into
    one class: every column is in the point spectrum, and the fixed space is
    that class."""
    sysd = single_block_system(np.diag(np.exp(1j * eps * np.arange(3))))
    spec = point_spectrum(sysd)
    assert sum(e.multiplicity for e in spec) == sysd.dimension
    trivial = [e for e in spec if all(abs(v - 1) < 1e-8 for v in e.eigenvalue)]
    assert len(trivial) == 1
    assert classify_finite(sysd).fixed_algebra_dimension == trivial[0].multiplicity
    assert len(fixed_point_algebra(sysd)) == trivial[0].multiplicity
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(fileio.dump_system(sysd)))
    _, code = cli.run(["classify", "--system", str(path)])
    assert code == 0


def test_point_spectrum_overlap(c2, c3):
    common = point_spectrum_overlap(point_spectrum(c2), point_spectrum(c3))
    assert len(common) == 1
    assert abs(common[0][0] - 1) < 1e-10


# ---------------------------------------------------------------------------
# fixed point algebra


def test_fixed_point_algebra_examples(c3, id3):
    assert len(fixed_point_algebra(c3)) == 1
    assert len(fixed_point_algebra(id3)) == 3
    m2 = single_block_system(np.diag([1, 1j]))
    basis = fixed_point_algebra(m2)
    assert len(basis) == 2
    assert np.allclose(basis[0].blocks[0], np.eye(2))
    for b in basis:
        assert np.allclose(b.blocks[0], np.diag(np.diagonal(b.blocks[0])))


def test_fixed_point_algebra_adjoint_closed(pauli):
    basis = fixed_point_algebra(pauli)
    space = gns_construct(pauli)
    mat = np.column_stack([space.onb_factor @ b.coords() for b in basis])
    for b in basis:
        v = space.onb_factor @ b.adjoint().coords()
        proj = mat @ (mat.conj().T @ v)
        assert np.linalg.norm(proj - v) < 1e-10


# ---------------------------------------------------------------------------
# Cesaro averages


def test_cesaro_c3_exact_period(c3):
    space = gns_construct(c3)
    e0 = np.eye(3)[:, 0]
    res = cesaro_correlation(c3, e0, e0, 3)
    assert res.value == pytest.approx(1 / 9)
    assert res.deviation < 1e-12


def test_cesaro_omega_fixed(c5):
    space = gns_construct(c5)
    res = cesaro_correlation(c5, space.cyclic_vector, space.cyclic_vector, 7)
    assert res.value == pytest.approx(1.0)
    assert res.deviation < 1e-12


def test_cesaro_partial_period_bound(c3):
    """|m_4(ω)| = |ω⁴|/4 = 1/4 for both characters ω ≠ 1, and ‖e_0‖² = 1/3."""
    e0 = np.eye(3)[:, 0]
    res = cesaro_correlation(c3, e0, e0, 4)
    assert res.deviation <= res.remainder_bound
    assert res.remainder_bound == pytest.approx((1 / 4) * (1 / 3))


def test_cesaro_multiple_of_period_invariant():
    for name, period in (("c2", 2), ("c3", 3), ("c5", 5)):
        sysd = corpus.system(name)
        space = gns_construct(sysd)
        rng = np.random.default_rng(7)
        x = rng.normal(size=sysd.dimension) + 1j * rng.normal(size=sysd.dimension)
        y = rng.normal(size=sysd.dimension) + 1j * rng.normal(size=sysd.dimension)
        for k in (1, 2, 4):
            res = cesaro_correlation(sysd, x, y, period * k)
            assert res.deviation < 1e-9


def test_cesaro_averages_reject_folner_index_0(c3):
    """n < 1 names no Følner set: both averages raise ValueError, from the
    group's one range check."""
    x = np.ones(c3.dimension)
    with pytest.raises(ValueError, match="Folner index must be >= 1"):
        cesaro_correlation(c3, x, x, 0)
    with pytest.raises(ValueError, match="Folner index must be >= 1"):
        cesaro_diagonal_average(c3, 0)


# ---------------------------------------------------------------------------
# mirror systems


def test_mirror_commutative_is_itself(c3):
    m = mirror_system(c3)
    assert len(commutant_basis_reference(m.promoted.structure)) == 3


def test_mirror_m2_dimension():
    m = mirror_system(single_block_system(np.eye(2)))
    assert len(commutant_basis_reference(m.promoted.structure)) == 4


def test_mirror_invariants(gibbs):
    m = mirror_system(gibbs)
    space = gns_construct(gibbs)
    ident = gibbs.structure.identity()
    left = _left_rep(gibbs)
    commutant = commutant_basis_reference(gibbs.structure)
    # commutation with every left representative
    for Xc in commutant:
        for L in left:
            assert np.linalg.norm(Xc @ L - L @ Xc) < 1e-9
    # mirror state is unital and invariant under the mirror dynamics
    assert mirror_state_reference(gibbs, np.eye(4, dtype=complex)) == pytest.approx(1.0)
    for Xc in commutant:
        moved = mirror_dynamics_reference(gibbs, 0, Xc)
        assert mirror_state_reference(gibbs, moved) == pytest.approx(
            complex(mirror_state_reference(gibbs, Xc)))
    # promoted system embeds into the commutant through the twisted map
    def gram_adjoint(x):
        g = space.gram
        return np.linalg.solve(g, x.conj().T @ g)

    def image(f):
        return promoted_image_reference(gibbs, f)

    for j in range(gibbs.dimension):
        f = gibbs.structure.basis_element(j)
        R = image(f)
        for L in left:
            assert np.linalg.norm(R @ L - L @ R) < 1e-12
        assert mirror_state_reference(gibbs, R) == pytest.approx(
            complex(m.promoted.state.value(f)))
        # star preservation under the Gram adjoint
        assert np.linalg.norm(image(f.adjoint()) - gram_adjoint(R)) < 1e-10
        # equivariance: mirror dynamics matches the promoted dynamics
        moved = mirror_dynamics_reference(gibbs, 0, R)
        assert np.linalg.norm(moved - image(m.promoted.generators[0].apply(f))) < 1e-10
    # multiplicativity of the promoted embedding
    f1 = gibbs.structure.from_coords([0.2, 1j, -0.4, 0.9])
    f2 = gibbs.structure.from_coords([1.0, 0.5, 0.5j, -2.0])
    assert np.linalg.norm(image(f1 @ f2) - image(f1) @ image(f2)) < 1e-10


def test_mirror_keeps_only_promoted_and_twist(gibbs):
    assert [f.name for f in dataclasses.fields(mirror_system(gibbs))] == ["promoted", "twist"]


def test_twist_is_read_only_and_is_the_modular_conjugation():
    sysd = corpus.system("gibbs")   # a fresh object: the session fixture stays untouched
    twist = sysd.mirror.twist
    half = modular_group(sysd, 0.5)[0]
    assert np.array_equal(twist, half[:, sysd.structure.adjoint_indices])
    with pytest.raises(ValueError):
        twist[0, 0] = 0


def test_coordinate_matrices_match_basis_loops():
    # the block-Kronecker forms do the arithmetic of the per-basis products exactly
    from ncjoin.gns import _density_powers

    for name in corpus.FINITE_SYSTEMS:
        sysd = corpus.system(name)
        basis = [sysd.structure.basis_element(j) for j in range(sysd.dimension)]

        def columns(f):
            return np.column_stack([f(e).coords() for e in basis])

        half, mhalf, rho, inv = _density_powers(sysd, 0.5, -0.5, 1, -1)
        m = mirror_system(sysd)
        assert np.array_equal(m.twist, columns(lambda e: half @ e.transpose() @ mhalf)), name
        assert np.array_equal(sysd.mirror.twist,
                              columns(lambda e: half @ e.adjoint() @ mhalf)), name
        assert np.array_equal(modular_group(sysd, 1)[0],
                              columns(lambda e: rho @ e @ inv)), name
        for b, R in zip(basis, commutant_basis_reference(sysd.structure)):
            assert np.array_equal(R, columns(lambda e: e @ b)), name


def test_mirror_promoted_valid_for_corpus():
    from ncjoin.algebra import validate_system

    for name in corpus.FINITE_SYSTEMS:
        m = mirror_system(corpus.system(name))
        assert validate_system(m.promoted).valid, name


# ---------------------------------------------------------------------------
# eigenoperators and spectral projections


def test_eigenoperator_c3(c3):
    u = eigenoperator(c3, np.conj(OMEGA3))
    got = np.array([b[0, 0] for b in u.blocks])
    assert np.allclose(got, [1, OMEGA3, OMEGA3 ** 2])


def test_eigenoperator_pauli_sign_pair(pauli):
    u = eigenoperator(pauli, (1, -1))
    assert np.allclose(u.blocks[0], np.array([[0, 1], [1, 0]]))


def test_eigenoperator_trivial_character(c5):
    u = eigenoperator(c5, 1.0)
    assert np.allclose(u.coords(), c5.structure.identity().coords())


def test_eigenoperator_errors(c3, id3):
    with pytest.raises(NcjoinError, match="is not in the point spectrum"):
        eigenoperator(c3, 1j)
    with pytest.raises(NcjoinError, match="eigenoperator is ambiguous"):
        eigenoperator(id3, 1.0)
    # a reducible system: swap of two points plus a fixed point; the
    # eigenvalue -1 is simple but its eigenoperator has non-scalar u*u
    s = BlockStructure((1, 1, 1))
    gen = Automorphism(s, (1, 0, 2), [np.eye(1, dtype=complex)] * 3)
    sysd = FiniteSystem(s, uniform_state(s), GroupDescriptor("Z"), [gen])
    with pytest.raises(NcjoinError, match=r"u\*u is not scalar"):
        eigenoperator(sysd, -1.0)


def test_eigenoperator_invariants_across_spectra(c3, c5, pauli):
    for sysd in (c3, c5, pauli):
        ident = sysd.structure.identity()
        for entry in point_spectrum(sysd):
            if entry.multiplicity != 1:
                continue
            u = eigenoperator(sysd, entry.eigenvalue)
            assert (u.adjoint() @ u - ident).norm() < 1e-8
            for gen, chi in zip(sysd.generators, entry.eigenvalue):
                assert (gen.apply(u) - chi * u).norm() < 1e-8


def test_spectral_interval_projection_examples(c3):
    u = eigenoperator(c3, np.conj(OMEGA3))
    p_mid = spectral_interval_projection(u, 0.0, np.pi)
    assert np.allclose([b[0, 0] for b in p_mid.blocks], [0, 1, 0])
    p_all = spectral_interval_projection(u, -np.pi, np.pi)
    assert p_all.isclose(c3.structure.identity())
    p_none = spectral_interval_projection(u, 2.2, 2.5)
    assert p_none.norm() < 1e-12


def test_spectral_projection_idempotent_and_partition(c3, pauli):
    for sysd, chi in ((c3, np.conj(OMEGA3)), (pauli, (1, -1))):
        u = eigenoperator(sysd, chi)
        total = sysd.structure.zero()
        for k in range(12):
            t1 = -np.pi + 2 * np.pi * k / 12
            t2 = -np.pi + 2 * np.pi * (k + 1) / 12
            P = spectral_interval_projection(u, t1, t2)
            assert (P @ P - P).norm() < 1e-10
            assert (P.adjoint() - P).norm() < 1e-10
            total = total + P
        assert (total - sysd.structure.identity()).norm() < 1e-9


@pytest.mark.parametrize("sizes", [(3,), (1, 1, 1)])
def test_spectral_atoms_of_a_character_chain_partition_the_identity(sizes):
    """u = diag(1, e^{iε}, e^{2iε}) at ε = 6e-9: the three eigenvalues chain
    into one atom, so the projectors sum to 1 and are pairwise orthogonal."""
    s = BlockStructure(sizes)
    u = s.from_block_matrix(np.diag(np.exp(6e-9j * np.arange(3))))
    projectors = [p for _, p in spectral_atoms(u)]
    assert (sum(projectors, s.zero()) - s.identity()).norm() < 1e-12
    for p, q in itertools.combinations(projectors, 2):
        assert (p @ q).norm() < 1e-12


def test_spectral_covariance_residuals(c3):
    u = eigenoperator(c3, np.conj(OMEGA3))
    for n in range(1, 7):
        rep = verify_spectral_covariance(c3, u, np.conj(OMEGA3), n)
        assert rep.atom_residual < 1e-10
        assert rep.grid_commutation_residual < 1e-12
    rep3 = verify_spectral_covariance(c3, u, np.conj(OMEGA3), 3)
    assert rep3.atom_residual < 1e-12   # alpha^3 is the identity


def test_spectral_covariance_trivial_atom(c3):
    u = eigenoperator(c3, 1.0)
    rep = verify_spectral_covariance(c3, u, 1.0, 1)
    assert rep.atoms == 1
    assert rep.atom_residual < 1e-12


# ---------------------------------------------------------------------------
# modular data


def _conjugation(sysd, x):
    """J x = twist·conj(x), the mirror's modular conjugation."""
    return sysd.mirror.twist @ np.asarray(x, dtype=complex).conj()


def test_modular_tracial_cases(pauli):
    assert np.allclose(modular_group(pauli, 1)[0], np.eye(4))
    for i in range(4):
        e = pauli.structure.basis_element(i)
        jvec = _conjugation(pauli, e.coords())
        assert np.allclose(jvec, e.adjoint().coords())


def test_modular_gibbs_spectrum(gibbs):
    vals = sorted(np.linalg.eigvals(modular_group(gibbs, 1)[0]).real)
    assert np.allclose(vals, [0.5, 1.0, 1.0, 2.0])


def test_modular_invariants(gibbs):
    delta = modular_group(gibbs, 1)[0]
    space = gns_construct(gibbs)
    rng = np.random.default_rng(3)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    # antiunitary involution fixing the cyclic vector
    assert np.allclose(_conjugation(gibbs, _conjugation(gibbs, x)), x)
    assert np.allclose(_conjugation(gibbs, space.cyclic_vector), space.cyclic_vector)
    # positivity of the modular operator in the GNS inner product
    onb_delta = space.onb_factor @ delta @ space.onb_factor_inv
    evals = np.linalg.eigvalsh((onb_delta + onb_delta.conj().T) / 2)
    assert evals.min() > 0
    # J Delta^{1/2} realizes the adjoint
    dhalf = space.onb_factor_inv @ _matrix_sqrt(onb_delta) @ space.onb_factor
    a = gibbs.structure.from_coords(x)
    svec = _conjugation(gibbs, dhalf @ a.coords())
    assert np.allclose(svec, a.adjoint().coords())
    # sigma_t fixes the unit and preserves the state
    s, one = gibbs.structure, gibbs.structure.identity()
    for sigma in modular_group(gibbs, 0.1j, 0.7j, 1.3j):
        assert s.from_coords(sigma @ one.coords()).isclose(one)
        b = s.from_coords(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert complex(gibbs.state.value(s.from_coords(sigma @ b.coords()))) == pytest.approx(
            complex(gibbs.state.value(b)))


def _matrix_sqrt(m):
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def test_modular_invariance_check(gibbs, pauli):
    s = gibbs.structure
    diag = AlgebraElement(s, [np.diag([1.0, 0.0]).astype(complex)])
    res = modular_invariance_check(gibbs, diag)
    assert res.sigma_residual < 1e-10
    assert res.conjugation_vector_residual < 1e-10

    skew = AlgebraElement(s, [np.full((2, 2), 0.5, dtype=complex)])
    res2 = modular_invariance_check(gibbs, skew)
    assert res2.sigma_residual > 0.1

    tr = modular_invariance_check(pauli, AlgebraElement(
        pauli.structure, [np.diag([1.0, 0.0]).astype(complex)]))
    assert tr.sigma_residual < 1e-12

    with pytest.raises(NcjoinError, match="P is not a projection"):
        modular_invariance_check(gibbs, AlgebraElement(
            s, [np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)]))


# ---------------------------------------------------------------------------
# abelianness profile


def test_abelianness_profile_commutative(c3):
    a = c3.structure.basis_element(0)
    b = c3.structure.basis_element(1)
    assert max(asymptotic_abelianness_profile(c3, a, b, 6)) < 1e-14


def test_abelianness_profile_pauli(pauli):
    s = pauli.structure
    x = AlgebraElement(s, [np.array([[0, 1], [1, 0]], dtype=complex)])
    z = AlgebraElement(s, [np.array([[1, 0], [0, -1]], dtype=complex)])
    prof = asymptotic_abelianness_profile(pauli, x, z, 4)
    assert np.allclose(prof, 2.0)
    unit_prof = asymptotic_abelianness_profile(pauli, x, s.identity(), 4)
    assert max(unit_prof) < 1e-14


# ---------------------------------------------------------------------------
# systems off the corpus: non-diagonal density, twisted block swap


def _nondiagonal_density_system():
    rho = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]])
    vals, vecs = np.linalg.eigh(rho)
    u = vecs @ np.diag([1, 1j]) @ vecs.conj().T
    s = BlockStructure((2,))
    from ncjoin.algebra import FaithfulState

    return FiniteSystem(s, FaithfulState(s, [rho]), GroupDescriptor("Z"),
                        [Automorphism(s, (0,), [u])]), vals


def test_nondiagonal_density_pipeline():
    from ncjoin.algebra import validate_system

    sysd, rho_eigs = _nondiagonal_density_system()
    assert validate_system(sysd).valid
    cls = classify_finite(sysd)
    assert cls.h0_dimension == 4
    assert cls.fixed_algebra_dimension == 2
    got = sorted(np.linalg.eigvals(modular_group(sysd, 1)[0]).real)
    lo, hi = rho_eigs
    assert np.allclose(got, sorted([1.0, 1.0, lo / hi, hi / lo]))
    space = gns_construct(sysd)
    for U in sysd.generator_matrices:
        assert np.linalg.norm(U.conj().T @ space.gram @ U - space.gram, 2) < 1e-9


def test_twisted_block_swap_degenerate_spectrum():
    s = BlockStructure((2, 2))
    w = np.array([[0, 1], [1, 0]], dtype=complex)
    gen = Automorphism(s, (1, 0), [w, np.eye(2, dtype=complex)])
    sysd = FiniteSystem(s, uniform_state(s), GroupDescriptor("Z"), [gen])
    cls = classify_finite(sysd)
    assert cls.h0_dimension == 8
    assert cls.fixed_algebra_dimension == 2
    spec = point_spectrum(sysd)
    assert sorted(e.multiplicity for e in spec) == [2, 2, 2, 2]
    chars = sorted(np.round(e.eigenvalue[0], 8) for e in spec
                   for _ in range(e.multiplicity))
    assert len(chars) == 8
    space = gns_construct(sysd)
    for entry in spec:
        for col in range(entry.eigenvectors.shape[1]):
            x = entry.eigenvectors[:, col]
            chi = entry.eigenvalue[0]
            assert space.norm(sysd.generator_matrices[0] @ x - chi * x) < 1e-8
