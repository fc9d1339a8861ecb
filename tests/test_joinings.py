import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from ncjoin import corpus, joinings
from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FaithfulState,
    FiniteSystem,
    GroupDescriptor,
    cyclic_rotation_system,
    identity_automorphism,
    identity_system,
    single_block_system,
    uniform_state,
    validate_system,
)
from ncjoin.errors import InputFormatError, NcjoinError
from ncjoin.gns import (
    classify_finite,
    gns_construct,
    mirror_system,
    point_spectrum,
    point_spectrum_overlap,
)
from ncjoin.joinings import (
    build_tensor_context,
    cesaro_diagonal_average,
    conditional_expectation,
    diagonal_state,
    disjointness_test,
    find_joining,
    graph_joining,
    joining_face_dimension,
    joining_from_values,
    joining_residuals,
    mirror_context,
    ornstein_ratio_scan,
    product_joining,
    residual_magnitude,
    scan_compact_disjointness,
)

from oracles import (diagonal_table, element_automorphism_reference, invariant_transportation_max,
                     joining_residuals_reference, witness_direction_reference)

ROTATION_IMAGES = {"c2": 2, "c3": 3, "c5": 5}


def _rotation_images(points):
    return [(i + 1) % points for i in range(points)]


# ---------------------------------------------------------------------------
# constructors


def test_tensor_context_multiplication_table(c2, gibbs):
    # products of basis pairs match blockwise products on both legs
    for sysd in (c2, gibbs):
        ctx = build_tensor_context(sysd, corpus.system("c2") if sysd is c2 else
                                   corpus.system("gibbs"))
        assert ctx.structure.dimension == ctx.dim_a * ctx.dim_b
        for i, j, k, l in ((0, 0, 0, 1), (1, 0, 0, 1), (2, 1, 1, 2)):
            if max(i, k) >= ctx.dim_a or max(j, l) >= ctx.dim_b:
                continue
            lhs = ctx.basis_pair(i, j) @ ctx.basis_pair(k, l)
            ei = sysd.structure.basis_element(i) @ sysd.structure.basis_element(k)
            fj = ctx.B.structure.basis_element(j) @ ctx.B.structure.basis_element(l)
            assert lhs.isclose(ctx.tensor_element(ei, fj))
    # every basis pair is the matrix unit that the blockwise Kronecker product
    # gives, here with product blocks of sizes 2, 1, 4 and 2
    a, b = identity_system([1, 2]), identity_system([2, 1])
    ctx = build_tensor_context(a, b)
    for i in range(ctx.dim_a):
        for j in range(ctx.dim_b):
            assert ctx.basis_pair(i, j).isclose(ctx.tensor_element(
                a.structure.basis_element(i), b.structure.basis_element(j)), tol=0)


def test_product_joining_values(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    prod = product_joining(ctx)
    assert np.allclose(prod.values, 0.25)
    assert prod.value(ctx.tensor_element(c2.structure.identity(),
                                         c2.structure.identity())) == pytest.approx(1.0)
    assert residual_magnitude(prod.residuals) < 1e-12


def test_diagonal_state_values(c2):
    d = diagonal_state(c2)
    assert np.allclose(d.values, np.diag([0.5, 0.5]))
    # marginals are the state itself
    ctx = d.ctx
    for i in range(2):
        row_sum = d.values[i, :].sum()
        assert row_sum == pytest.approx(ctx.A.state.values[i])


def test_diagonal_state_trivial_system():
    triv = identity_system([1])
    d = diagonal_state(triv)
    prod = product_joining(d.ctx)
    assert np.allclose(d.values, prod.values)


def test_graph_joining_examples(c2):
    d0 = graph_joining(c2, 0)
    assert np.allclose(d0.values, diagonal_state(c2).values)
    d1 = graph_joining(c2, 1)
    assert np.allclose(d1.values, np.array([[0, 0.5], [0.5, 0]]))
    d2 = graph_joining(c2, 2)
    assert np.allclose(d2.values, d0.values)


def test_graph_joining_needs_z(pauli):
    with pytest.raises(InputFormatError, match="graph joinings need a Z action"):
        graph_joining(pauli, 1)


def test_constructor_battery_on_z_corpus():
    for name in ("c2", "c3", "c5", "id2", "id3", "gibbs"):
        sysd = corpus.system(name)
        d = diagonal_state(sysd)
        assert residual_magnitude(d.residuals) < 1e-8, name
        for n in range(3):
            g = graph_joining(sysd, n)
            assert residual_magnitude(g.residuals) < 1e-8, (name, n)


# (system on both legs, perturbation P of the product table, t, the one
# residual that t·P breaks, its value, the battery's magnitude)
BROKEN_TABLES = [
    # E₀₀ − E₀₁ − E₁₀ + E₁₁ keeps trace, marginals and positivity (t < 1/9);
    # the rotation moves it to E₁₁ − E₁₂ − E₂₁ + E₂₂, off by t at entry (0, 0)
    ("c3", [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], 0.05, "invariance", 0.05, 0.05),
    # [[1, −1], [−1, 1]] is swap invariant with zero marginals; each entry
    # is a 1×1 block, so the entry 1/4 − t is the PSD floor, deficit t − 1/4
    ("c2", [[1, -1], [-1, 1]], 0.3, "psd_floor", -0.05, 0.05),
]


@pytest.mark.parametrize("name,perturbation,t,broken,value,magnitude", BROKEN_TABLES)
def test_battery_reports_the_one_broken_constraint(name, perturbation, t, broken, value,
                                                   magnitude):
    sysd = corpus.system(name)
    ctx = build_tensor_context(sysd, sysd)
    residuals = joining_residuals(ctx, product_joining(ctx).values + t * np.array(perturbation))
    assert residual_magnitude(residuals) == pytest.approx(magnitude, abs=1e-15)
    assert residuals.pop(broken) == pytest.approx(value, abs=1e-15)
    assert residuals.pop("psd_floor", 0.0) >= 0
    assert max(residuals.values()) <= 1e-15


# leg block structures: all 1×1, mixed 1×1 and 2×2, one 3×3 block
LEG_SIZES = ((1, 1), (1, 1, 1), (1, 2), (2, 1, 1), (3,))


def _invariant_leg(rng, sizes):
    """A valid system on `sizes`: per block, a density V·diag(p)·V* and the
    generator Ad(V·diag(phases)·V*), which commutes with it."""
    structure = BlockStructure(sizes)
    weights = rng.uniform(0.2, 1.0, structure.matrix_size)
    weights /= weights.sum()
    density, conj, start = [], [], 0
    for n in sizes:
        v = unitary_group.rvs(n, random_state=rng) if n > 1 else np.eye(1)
        density.append(v @ np.diag(weights[start:start + n]) @ v.conj().T)
        conj.append(v @ np.diag(np.exp(2j * np.pi * rng.uniform(size=n))) @ v.conj().T)
        start += n
    return FiniteSystem(structure, FaithfulState(structure, density), GroupDescriptor("Z"),
                        [Automorphism(structure, tuple(range(len(sizes))), conj)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sizes_a=st.sampled_from(LEG_SIZES), sizes_b=st.sampled_from(LEG_SIZES),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from((1e-9, 1e-3, 1.0)),
       negative_zero=st.booleans())
def test_battery_matches_its_blockwise_reference(sizes_a, sizes_b, seed, scale, negative_zero):
    """Every residual equals the reference's bit for bit, on the product
    table plus complex noise: non-Hermitian, not PSD at scale 1, not
    invariant and off both marginals. A diagonal entry with real part −0.0
    has Hermitian part +0.0, so a PSD floor of zero is +0.0."""
    rng = np.random.default_rng(seed)
    ctx = build_tensor_context(_invariant_leg(rng, sizes_a), _invariant_leg(rng, sizes_b))
    noise = rng.standard_normal((ctx.dim_a, ctx.dim_b, 2)) @ [1, 1j]
    values = ctx.product_values() + scale * noise
    if negative_zero:
        values.real[0, 0] = -0.0

    def bits(residuals):
        return {name: np.float64(r).tobytes() for name, r in residuals.items()}

    residuals = joining_residuals(ctx, values)
    assert bits(residuals) == bits(joining_residuals_reference(ctx, values))
    assert residuals["hermiticity"] > 0 and residuals["invariance"] > 0


def test_diagonal_battery_nondiagonal_density():
    from ncjoin.algebra import Automorphism, BlockStructure, FaithfulState, \
        FiniteSystem, GroupDescriptor

    rho = np.array([[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]])
    vals, vecs = np.linalg.eigh(rho)
    u = vecs @ np.diag([1, 1j]) @ vecs.conj().T
    s = BlockStructure((2,))
    sysd = FiniteSystem(s, FaithfulState(s, [rho]), GroupDescriptor("Z"),
                        [Automorphism(s, (0,), [u])])
    for n in range(3):
        jm = diagonal_state(sysd) if n == 0 else graph_joining(sysd, n)
        assert residual_magnitude(jm.residuals) < 1e-8


def test_graph_invariance_under_diagonal_action():
    for name in ("c2", "c3", "gibbs"):
        sysd = corpus.system(name)
        for n in (0, 1, 2):
            jm = graph_joining(sysd, n)
            ctx = jm.ctx
            Ua = ctx.A.generator_matrices[0]
            Ub = ctx.B.generator_matrices[0]
            # ω((α⊗β)(e_i⊗f_j)) assembled from the transformed coordinates
            for i in range(ctx.dim_a):
                for j in range(ctx.dim_b):
                    val = 0j
                    for m in range(ctx.dim_a):
                        for l in range(ctx.dim_b):
                            c = Ua[m, i] * Ub[l, j]
                            if c != 0:
                                val += c * jm.values[m, l]
                    assert abs(val - jm.values[i, j]) < 1e-9


# ---------------------------------------------------------------------------
# solver


def test_find_joining_without_objective(c2, c3):
    ctx = build_tensor_context(c2, c3)
    jm, rep = find_joining(ctx)
    assert not rep.inconclusive
    assert jm.label == "product"
    assert residual_magnitude(jm.residuals) < 1e-12


@pytest.mark.parametrize("options", [
    {"width": math.nan}, {"width": math.inf}, {"width": 0.0}, {"width": -1e-3},
    {"max_iter": -1},
])
def test_solver_options_out_of_range_raise(c2, options):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    with pytest.raises(ValueError):
        find_joining(ctx, objective=(0, 0), **options)
    with pytest.raises(ValueError):
        disjointness_test(ctx, **options)


@pytest.mark.parametrize("foreign", ["pauli", "c2"])
def test_objective_from_another_algebra_is_rejected(c2, foreign):
    """An element of M2 has the dimension of c2 ⊙ c2 but not its blocks; one
    of c2 is too short. Neither is an objective on the product algebra."""
    ctx = build_tensor_context(c2, corpus.system("c2"))
    objective = corpus.system(foreign).structure.basis_element(1)
    with pytest.raises(NcjoinError, match="objective has blocks"):
        find_joining(ctx, objective=objective)


def test_witness_exceeds_the_product_at_any_width(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    product = product_joining(ctx).values[0, 0].real
    for width in (1.0, 10.0):
        cert = disjointness_test(ctx, width=width)
        assert cert.verdict == "not_disjoint"
        assert cert.witness_gap > 0
        assert cert.witness.values[0, 0].real == pytest.approx(product + cert.witness_gap)


def test_find_joining_c2xc2_matches_lp_oracle(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    jm, rep = find_joining(ctx, objective=(0, 0))
    oracle, _ = invariant_transportation_max(
        [0.5, 0.5], [0.5, 0.5], _rotation_images(2), _rotation_images(2),
        np.array([[1.0, 0], [0, 0]]))
    assert oracle == pytest.approx(0.5)
    assert rep.lower == pytest.approx(oracle, abs=1e-5)
    assert not rep.inconclusive
    assert residual_magnitude(jm.residuals) < 1e-8


def test_find_joining_c2xc3_matches_lp_oracle(c2, c3):
    ctx = build_tensor_context(c2, c3)
    for (i, j) in ((0, 0), (1, 2)):
        cost = np.zeros((2, 3))
        cost[i, j] = 1.0
        oracle, _ = invariant_transportation_max(
            [0.5, 0.5], [1 / 3] * 3, _rotation_images(2), _rotation_images(3), cost)
        assert oracle == pytest.approx(1 / 6)
        jm, rep = find_joining(ctx, objective=(i, j))
        assert rep.lower == pytest.approx(oracle, abs=1e-5)


def test_commutative_cross_check_more_directions(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    rng = np.random.default_rng(11)
    for _ in range(3):
        cost = rng.uniform(0, 1, size=(2, 2))
        elem = ctx.structure.zero()
        for i in range(2):
            for j in range(2):
                elem = elem + complex(cost[i, j]) * ctx.basis_pair(i, j)
        oracle, _ = invariant_transportation_max(
            [0.5, 0.5], [0.5, 0.5], _rotation_images(2), _rotation_images(2), cost)
        jm, rep = find_joining(ctx, objective=elem)
        assert rep.lower == pytest.approx(oracle, abs=1e-5)


def test_zero_objective_is_pinned(c2):
    # a zero objective is constant on every state: no level row to normalize
    ctx = build_tensor_context(c2, corpus.system("c2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jm, rep = find_joining(ctx, objective=ctx.structure.zero())
    assert rep.lower == 0.0 and rep.oracle_calls == 0
    assert residual_magnitude(jm.residuals) < 1e-12


@pytest.mark.parametrize("pair", [("c3", "c3"), ("pauli", "pauli")])
def test_factors_refuse_an_iterate_outside_the_joining_set(pair):
    """A barrier step is kept only where its iterate is positive definite:
    far along a tangent direction, which has trace 0, the factor raises
    LinAlgError, from the 1×1 entries on c3×c3 and from the Cholesky on
    pauli×pauli."""
    ctx = build_tensor_context(*map(corpus.system, pair))
    basis = ctx.tangent.basis
    stacks = joinings._block_stacks(ctx, basis, ctx.product_values().reshape(-1))
    x = np.zeros(len(basis))
    joinings._factors(stacks, x)   # the product state
    x[0] = 1e3
    with pytest.raises(np.linalg.LinAlgError):
        joinings._factors(stacks, x)


@pytest.mark.parametrize("pair", [("c3", "c3"), ("pauli", "pauli")])
def test_newton_solve_falls_back_to_qr(monkeypatch, pair):
    """Where LU fails on the Hessian, the factor R of the rows W_i gives the
    same H⁻¹·rhs: on c3×c3 the rows are the flat 1×1 parts, on pauli×pauli
    the stacked complex parts."""
    ctx = build_tensor_context(*map(corpus.system, pair))
    basis = ctx.tangent.basis
    rng = np.random.default_rng(7)
    stacks = joinings._block_stacks(ctx, basis, ctx.product_values().reshape(-1))
    x = 0.01 * rng.standard_normal(len(basis))
    _, hess, parts = joinings._derivatives(stacks, joinings._factors(stacks, x))
    rhs = rng.standard_normal((len(basis), 2))
    expected = np.linalg.solve(hess, rhs)
    solve, calls = np.linalg.solve, []

    def lu_fails_once(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", lu_fails_once)
    got = joinings._newton_solve(hess, parts, rhs)
    monkeypatch.undo()
    assert len(calls) == 3   # LU, then the two triangular solves with R
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# disjointness


def test_disjoint_c2_c3(c2, c3):
    cert = disjointness_test(build_tensor_context(c2, c3))
    assert cert.verdict == "disjoint"
    assert cert.max_gap_bound <= 1e-5


def test_not_disjoint_c2_c2(c2):
    cert = disjointness_test(build_tensor_context(c2, corpus.system("c2")))
    assert cert.verdict == "not_disjoint"
    i, j, w = cert.witness_direction
    assert (i, j) == (0, 0) and w == 1
    assert cert.witness_gap == pytest.approx(0.25, abs=1e-4)
    assert residual_magnitude(cert.witness.residuals) < 1e-8


def test_ergodic_corpus_disjoint_from_identity_systems(c2, c3, c5, id2, id3):
    pairs = [(c2, id2), (c2, id3), (c3, id2), (c3, id3), (c5, id2)]
    for a, b in pairs:
        cert = disjointness_test(build_tensor_context(a, b))
        assert cert.verdict == "disjoint"


def test_pauli_disjoint_from_z2_identity(pauli):
    idz2 = identity_system([1, 1], GroupDescriptor("Zk", k=2))
    cert = disjointness_test(build_tensor_context(pauli, idz2))
    assert cert.verdict == "disjoint"


def test_pauli_not_disjoint_from_itself(pauli):
    # the twisted diagonal state couples the system with itself here, since
    # conjugating the Pauli unitaries entrywise reproduces the same dynamics
    cert = disjointness_test(build_tensor_context(pauli, corpus.system("pauli")))
    assert cert.verdict == "not_disjoint"
    assert cert.witness_gap == pytest.approx(0.25, abs=1e-4)
    assert residual_magnitude(cert.witness.residuals) < 1e-8


def test_finite_group_descriptor_context():
    from ncjoin.algebra import BlockStructure, FiniteSystem, cyclic_rotation_system, \
        uniform_state

    s = BlockStructure((1, 1))
    gen = cyclic_rotation_system(2).generators[0]
    a = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=2), [gen])
    b = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=2), [gen])
    cert = disjointness_test(build_tensor_context(a, b))
    assert cert.verdict == "not_disjoint"
    assert cert.witness_gap == pytest.approx(0.25, abs=1e-4)


def test_group_mismatch_rejected(c2):
    from ncjoin.algebra import BlockStructure, FiniteSystem, cyclic_rotation_system, \
        uniform_state

    s = BlockStructure((1, 1))
    gen = cyclic_rotation_system(2).generators[0]
    zm = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=2), [gen])
    with pytest.raises(InputFormatError, match="systems act by different groups"):
        build_tensor_context(zm, c2)


def test_spectrum_disjointness_property(c2, c3, c5):
    # ergodic, discrete spectrum, point spectra meeting only in 1
    for a, b in ((c2, c3), (c2, c5), (c3, c5)):
        common = point_spectrum_overlap(point_spectrum(a), point_spectrum(b))
        assert len(common) == 1
        cert = disjointness_test(build_tensor_context(a, b))
        assert cert.verdict == "disjoint"


def test_iteration_cap_taints_verdict(c2):
    # c2 x c2 takes five Newton steps to close the gap of a solve, the
    # witness solve included; a cap of one step leaves both gaps open
    ctx = build_tensor_context(c2, corpus.system("c2"))
    cert = disjointness_test(ctx, max_iter=1)
    assert cert.verdict == "inconclusive"
    jm, rep = find_joining(ctx, objective=(0, 0), max_iter=1)
    assert rep.inconclusive and rep.ambiguous_calls > 0


def test_small_cap_gives_certified_disjointness(c2, c3):
    # "disjoint" is a rank verdict: it takes no Newton step, so no cap can taint it
    ctx = build_tensor_context(c2, c3)
    cert = disjointness_test(ctx, max_iter=1)
    assert cert.verdict == "disjoint"
    assert cert.tangent_dim == 0 and cert.directions_scanned == 24
    assert cert.min_margin > 0 and cert.max_gap_bound == 0


def test_every_verdict_carries_its_evidence(c2, c3, c5, id3, pauli, gibbs):
    idz2 = identity_system([1, 1], GroupDescriptor("Zk", k=2))
    pairs = [(c5, id3), (c2, c3), (c2, corpus.system("c2")),
             (pauli, corpus.system("pauli")), (pauli, idz2), (gibbs, c2)]
    for a, b in pairs:
        ctx = build_tensor_context(a, b)
        cert = disjointness_test(ctx)
        assert cert.min_margin > 0.3   # δ: far from rounding on the corpus
        if cert.verdict == "disjoint":
            assert cert.tangent_dim == 0 and cert.max_gap_bound == 0
            assert cert.directions_scanned == 4 * ctx.dim
        else:
            assert cert.verdict == "not_disjoint" and cert.tangent_dim > 0
            assert cert.witness_gap > 0.1
            assert residual_magnitude(cert.witness.residuals) < 1e-8


def _witness_contexts():
    for a in corpus.FINITE_SYSTEMS:
        for b in corpus.FINITE_SYSTEMS:
            A, B = corpus.system(a), corpus.system(b)
            if A.group == B.group:
                yield f"{a}x{b}", build_tensor_context(A, B)
    for p in range(1, 9):
        for q in range(1, 9):
            yield f"C{p}xC{q}", build_tensor_context(cyclic_rotation_system(p),
                                                     cyclic_rotation_system(q))
    for n in (2, 3):
        for seed in range(4):
            u, v = unitary_group.rvs(n, size=2, random_state=seed)
            A = single_block_system(u)
            for label, B in (("same", single_block_system(u)), ("other", single_block_system(v)),
                             ("identity", identity_system([n]))):
                yield f"Ad M{n} seed {seed} x {label}", build_tensor_context(A, B)
    yield "swap x c2", build_tensor_context(_swap_system(), corpus.system("c2"))
    yield "Ad(rotation) x id", build_tensor_context(
        single_block_system(np.array([[0, -1], [1, 0]])), identity_system([1, 1]))


def _swap_system():
    """Blocks (1, 1, 1): block 0 fixed, blocks 1 and 2 swapped."""
    s = BlockStructure((1, 1, 1))
    return FiniteSystem(s, uniform_state(s), GroupDescriptor("Z"),
                        [Automorphism(s, (0, 2, 1), [np.eye(1)] * 3)])


def test_witness_direction_matches_the_scan():
    # the direction read off T's basis is the first one the 4·dim scan accepts
    found = {}
    for label, ctx in _witness_contexts():
        cert = disjointness_test(ctx)
        scanned, direction = witness_direction_reference(ctx)
        assert cert.verdict != "inconclusive", label
        assert cert.directions_scanned == scanned, label
        if cert.verdict == "not_disjoint":
            assert cert.witness_direction == direction, label
        found[label] = (scanned, direction)
    # e_0 ⊗ f_j is orthogonal to T when block 0 is fixed: 9 directions
    assert found["swap x c2"] == (9, (1, 0, 1))
    # T is spanned by i(E_01 − E_10) ⊗ (f_0 − f_1): its entries at E_01 are imaginary
    assert found["Ad(rotation) x id"] == (10, (1, 0, 1j))
    assert sum(d is not None for _, d in found.values()) >= 60


def test_compact_corpus_scan_finds_witness(c2, c3):
    rows = scan_compact_disjointness(c2, [("c3", c3), ("c2", corpus.system("c2"))])
    verdicts = {r["candidate"]: r["verdict"] for r in rows}
    assert verdicts["c3"] == "disjoint"
    assert verdicts["c2"] == "not_disjoint"
    assert all("no universal conclusion" in r["scope"] for r in rows)


# ---------------------------------------------------------------------------
# conditional expectation


def test_conditional_expectation_product_rank_one(c2, c3):
    ctx = build_tensor_context(c2, c3)
    ce = conditional_expectation(ctx, product_joining(ctx))
    omega_a = ctx.A.gns.cyclic_vector
    for j in range(ctx.dim_b):
        expected = complex(ctx.B.state.values[j]) * omega_a
        assert np.allclose(ce.matrix[:, j], expected)
    assert ce.norm <= 1 + 1e-8
    assert ce.intertwining_residual < 1e-6


def test_conditional_expectation_diagonal_is_unitary(c2):
    d = diagonal_state(c2)
    ce = conditional_expectation(d.ctx, d)
    assert np.allclose(ce.matrix, np.eye(2))
    assert ce.norm == pytest.approx(1.0, abs=1e-9)


def test_conditional_expectation_maps_cyclic_vectors(c3):
    d = diagonal_state(c3)
    omega_b = d.ctx.B.gns.cyclic_vector
    omega_a = d.ctx.A.gns.cyclic_vector
    ce = conditional_expectation(d.ctx, d)
    assert np.allclose(ce.matrix @ omega_b, omega_a)


def test_conditional_expectation_rejects_non_joining(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    prod = product_joining(ctx)
    bad = prod.values.copy()
    bad[0, 0] += 0.2
    from ncjoin.joinings import JoiningMatrix

    broken = JoiningMatrix(ctx=ctx, values=bad, label="broken")
    with pytest.raises(NcjoinError, match="matrix violates the joining battery"):
        conditional_expectation(ctx, broken)


# ---------------------------------------------------------------------------
# faces


def test_face_dimensions_c2xc2(c2):
    ctx = build_tensor_context(c2, corpus.system("c2"))
    diag = joining_from_values(ctx, np.diag([0.5, 0.5]), label="diag")
    assert joining_face_dimension(ctx, diag) == 0
    prod = product_joining(ctx)
    assert joining_face_dimension(ctx, prod) >= 1


def test_face_dimension_trivial_b(c3):
    ctx = build_tensor_context(c3, identity_system([1]))
    prod = product_joining(ctx)
    assert joining_face_dimension(ctx, prod) == 0


# face dimensions (product, diagonal, graph 1, graph 2) of every corpus system
# with its mirror, equal to those of the parametrization by range vectors
# that the tangent basis replaced, and of four solver optima
FACE_DIMENSIONS = {
    "c2": (1, 0, 0, 0), "c3": (2, 0, 0, 0), "c5": (4, 0, 0, 0), "id2": (1, 0, 0, 0),
    "id3": (4, 0, 0, 0), "pauli": (3, 0, None, None), "gibbs": (3, 0, 0, 0),
}
OPTIMUM_FACE_DIMENSIONS = [
    ("c2", "c2", (0, 0), 0), ("pauli", "pauli", (0, 0), 1),
    ("c3", "c3", (0, 1), 0), ("gibbs", "gibbs", (0, 0), 0),
]


@pytest.mark.parametrize("name, kind", [(name, kind) for name in FACE_DIMENSIONS
                                        for kind in range(4)
                                        if FACE_DIMENSIONS[name][kind] is not None])
def test_face_dimensions_of_constructed_joinings(name, kind):
    sysd = corpus.system(name)
    if kind == 0:
        ctx = mirror_context(sysd)
        jm = product_joining(ctx)
    else:
        jm = diagonal_state(sysd) if kind == 1 else graph_joining(sysd, kind - 1)
    assert joining_face_dimension(jm.ctx, jm) == FACE_DIMENSIONS[name][kind]


@pytest.mark.parametrize("a, b, objective, dim", OPTIMUM_FACE_DIMENSIONS)
def test_face_dimensions_of_solver_optima(a, b, objective, dim):
    ctx = build_tensor_context(corpus.system(a), corpus.system(b))
    jm, rep = find_joining(ctx, objective=objective)
    assert not rep.inconclusive
    assert joining_face_dimension(ctx, jm) == dim


# ---------------------------------------------------------------------------
# averages and ratio scan


def test_cesaro_diagonal_average_exact_and_bounded(c3):
    assert cesaro_diagonal_average(c3, 3).deviation < 1e-12
    res = cesaro_diagonal_average(c3, 4)
    assert res.deviation <= 2 / 4
    triv = identity_system([1])
    assert cesaro_diagonal_average(triv, 5).deviation < 1e-12


def test_ornstein_ratio_scan_c2(c2):
    ctx = diagonal_state(c2).ctx
    elems = [ctx.basis_pair(0, 0), ctx.tensor_element(
        c2.structure.identity(), c2.structure.identity())]
    scan = ornstein_ratio_scan(ctx, elems, range(0, 8), labels=["e0xf0", "unit"])
    ratios = [r for _, r in scan.elements[0].ratios]
    assert ratios == pytest.approx([2, 0, 2, 0, 2, 0, 2, 0])
    assert all(r == pytest.approx(1.0) for _, r in scan.elements[1].ratios)
    assert scan.period == 2


def test_ornstein_scan_skips_degenerate(c2):
    ctx = diagonal_state(c2).ctx
    scan = ornstein_ratio_scan(ctx, [ctx.structure.zero()], range(0, 4), labels=["zero"])
    assert scan.skipped == ["zero"]


def test_ornstein_scans_an_element_of_small_denominator(c2):
    # only a denominator at most 1e-12 counts as degenerate: 1e-3·(e_0 ⊗ f_0)
    # has (μ ⊙ μ̃)(c*c) = 1e-6·(1/2)·(1/2) and the ratios of e_0 ⊗ f_0
    ctx = diagonal_state(c2).ctx
    unit = ctx.basis_pair(0, 0)
    scan = ornstein_ratio_scan(ctx, [unit, 1e-3 * unit], range(0, 8), labels=["unit", "small"])
    assert scan.skipped == []
    full, small = scan.elements
    assert small.denominator == pytest.approx(2.5e-7, rel=1e-12)
    assert [n for n, _ in small.ratios] == [n for n, _ in full.ratios]
    assert max(abs(r - s) for (_, r), (_, s) in zip(small.ratios, full.ratios)) <= 1e-12


def test_ornstein_trivial_system_all_ratios_one():
    triv = identity_system([1])
    ctx = diagonal_state(triv).ctx
    scan = ornstein_ratio_scan(ctx, [ctx.basis_pair(0, 0)], range(0, 5))
    assert all(r == pytest.approx(1.0) for _, r in scan.elements[0].ratios)


def test_nontrivial_systems_never_settle():
    # shifted diagonal values keep leaving the product in every period window
    for name in ("c2", "c3", "c5", "id2", "id3", "gibbs"):
        sysd = corpus.system(name)
        prod = diagonal_state(sysd).ctx.product_values()
        space = gns_construct(sysd)
        U = sysd.generator_matrices[0]
        period = 1
        P = U.copy()
        while not np.allclose(P, np.eye(sysd.dimension), atol=1e-12):
            P = U @ P
            period += 1
        windows = max(2, 12 // period)
        for w in range(windows):
            gap = 0.0
            for n in range(w * period, (w + 1) * period):
                tab = graph_joining(sysd, n).values
                gap = max(gap, float(np.max(np.abs(tab - prod))))
            assert gap > 0.01, name


def test_uncertified_stall_is_ambiguous(monkeypatch, c2):
    # with no dual point passing its PSD check, nothing certifies a bound
    # below the one known before the solve, so the gap stays open: the solve
    # must end inconclusive, never rounded to an optimum
    monkeypatch.setattr(joinings, "_psd_floor", lambda ctx, z: -1.0)
    ctx = build_tensor_context(c2, corpus.system("c2"))
    jm, rep = find_joining(ctx, objective=(0, 0), max_iter=40)
    _, unsolved = find_joining(ctx, objective=(0, 0), max_iter=0)
    assert rep.inconclusive and rep.ambiguous_calls == 1 and 0 < rep.iterations <= 40
    assert rep.upper == unsolved.upper > 0.9 and rep.lower <= 0.5
    assert residual_magnitude(jm.residuals) < 1e-8
    cert = disjointness_test(ctx, max_iter=40)
    assert cert.verdict == "inconclusive" and cert.witness is None


def test_invalid_system_rejected_on_every_call():
    rot = cyclic_rotation_system(3)
    weights = [np.array([[w]], dtype=complex) for w in (0.5, 0.3, 0.2)]
    bad = dataclasses.replace(rot, state=FaithfulState(rot.structure, weights))
    builders = (gns_construct, classify_finite, mirror_system, diagonal_state,
                lambda s: build_tensor_context(s, cyclic_rotation_system(3)))
    for build in builders:
        for _ in range(2):
            with pytest.raises(InputFormatError, match="invariance at"):
                build(bad)
    report = validate_system(bad)
    assert any(v.kind == "invariance" and v.residual == pytest.approx(0.2)
               for v in report.violations)
    from ncjoin.algebra import BlockStructure, FiniteSystem, uniform_state

    s = BlockStructure((1, 1))
    zm = FiniteSystem(s, uniform_state(s), GroupDescriptor("Zm", m=2),
                      [cyclic_rotation_system(2).generators[0]])
    with pytest.raises(InputFormatError, match="invariance at"):
        build_tensor_context(bad, zm)


def _reference_system(name):
    if name == "C8":
        return cyclic_rotation_system(8)
    if name == "M3":
        rng = np.random.default_rng(1)
        z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        return single_block_system(q * (np.diag(r) / abs(np.diag(r))))
    return corpus.system(name)


@pytest.mark.parametrize("name", corpus.FINITE_SYSTEMS + ("C8", "M3"))
def test_diagonal_tables_match_pairwise_reference(name):
    sysd = _reference_system(name)
    tol = 1e-12
    ident = identity_automorphism(sysd.structure)
    assert np.max(np.abs(diagonal_state(sysd).values - diagonal_table(sysd, ident))) < tol
    elements = sysd.group.folner_elements(12)
    reference = sum(diagonal_table(sysd, element_automorphism_reference(sysd, g))
                    for g in elements) / len(elements)
    assert np.max(np.abs(cesaro_diagonal_average(sysd, 12).values - reference)) < tol
    if sysd.group.kind != "Z":
        return
    gen = sysd.generators[0]
    for n in range(-3, 6):
        table = diagonal_table(sysd, gen.power(n))
        assert np.max(np.abs(graph_joining(sysd, n).values - table)) < tol, n
    ctx = mirror_context(sysd)
    pairs = [ctx.basis_pair(i, i) for i in range(ctx.dim_a)]
    scan = ornstein_ratio_scan(ctx, pairs, range(17))
    assert not scan.skipped
    prod = ctx.product_values()
    for c, report in zip(pairs, scan.elements):
        coef = (c.adjoint() @ c).coords()[ctx.pair_index]
        denom = float(np.sum(coef * prod).real)
        for n, ratio in report.ratios:
            table = diagonal_table(sysd, gen.power(n))
            assert abs(ratio - float(np.sum(coef * table).real) / denom) < tol
