"""The tangent space of the joining set at the product state, in closed form.

dim T = P − m_A(1) − m_B(1) + 1, with P the number of pairs of joint
eigenvectors of the two legs whose characters multiply to 1 and m(1) the
dimension of each leg's fixed space. Both counts are read here from the
iterated eigenspace refinement (`oracles.joint_eigenspaces_reference`), and
T itself is compared with the null space of the dense constraint rows
(`oracles.tangent_space_reference`). The legs are generated Z, Z² and Z_12
systems whose characters are 12th roots of unity, so that pairs occur:
rotations C_p, Ad(u) of finite order with an invariant density, block
permutations whose conjugators have finite order, and identity systems.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin.algebra import (
    Automorphism,
    BlockStructure,
    FiniteSystem,
    GroupDescriptor,
    cyclic_rotation_system,
    identity_system,
    single_block_system,
    uniform_state,
)
from ncjoin.joinings import build_tensor_context

from oracles import joint_eigenspaces_reference, onb_matrices_reference, tangent_space_reference
from test_differential import _haar_unitary

GROUPS = [GroupDescriptor("Z"), GroupDescriptor("Zk", k=2), GroupDescriptor("Zm", m=12)]


def _root_unitary(rng, n, order):
    """v·diag(order-th roots of unity)·v* for a Haar v, with v."""
    v = _haar_unitary(rng, n)
    return (v * np.exp(2j * math.pi * rng.integers(0, order, n) / order)) @ v.conj().T, v


@st.composite
def legs(draw, group):
    """A system acting by `group` whose characters are 12th roots of unity.
    A Z² action is a generator g and its power g^j, which commute."""
    kind = draw(st.sampled_from(["rotation", "matrix", "permutation", "identity"]))
    if kind == "identity":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3))
        return identity_system(sizes, group)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "rotation":
        base = cyclic_rotation_system(draw(st.sampled_from([2, 3, 4, 6])))
        structure, state, gen = base.structure, base.state, base.generators[0]
    elif kind == "matrix":
        n = draw(st.integers(min_value=2, max_value=3))
        u, v = _root_unitary(rng, n, draw(st.sampled_from([1, 2, 3, 4, 6, 12])))
        weights = rng.uniform(0.2, 1.0, n) if draw(st.booleans()) else np.ones(n)
        base = single_block_system(u, density=(v * (weights / weights.sum())) @ v.conj().T)
        structure, state, gen = base.structure, base.state, base.generators[0]
    else:
        # r blocks of size n cycled, the first conjugated by u with u^m = 1 and
        # r·m | 12, so the generator has order r·m; one more block of size 1 may
        # stay fixed
        n, r = draw(st.integers(min_value=1, max_value=2)), draw(st.sampled_from([1, 2, 3]))
        m = draw(st.sampled_from([d for d in (1, 2, 3, 4) if 12 % (r * d) == 0]))
        extra = draw(st.booleans())
        structure = BlockStructure((n,) * r + (1,) * extra)
        perm = tuple((k + 1) % r for k in range(r)) + (r,) * extra
        conj = [_root_unitary(rng, n, m)[0]] + [np.eye(n)] * (r - 1) + [np.eye(1)] * extra
        state, gen = uniform_state(structure), Automorphism(structure, perm, conj)
    gens = [gen] if group.kind != "Zk" else [gen, gen.power(draw(st.integers(0, 5)))]
    return FiniteSystem(structure, state, group, gens)


@st.composite
def pairs(draw):
    group = draw(st.sampled_from(GROUPS))
    return draw(legs(group)), draw(legs(group))


def _spaces(sysd):
    """(characters, dimension) of each joint eigenspace, by the reference."""
    return [(np.array(chars), basis.shape[1])
            for chars, basis in joint_eigenspaces_reference(onb_matrices_reference(sysd))]


def _fixed_dimension(spaces):
    return sum(d for chars, d in spaces if np.allclose(chars, 1, atol=1e-8))


def _projector(rows):
    """Onto the span of the rows, as real vectors."""
    real = np.hstack([rows.real, rows.imag])
    return real.T @ real


@settings(max_examples=80, deadline=None)
@given(pair=pairs())
def test_tangent_dimension_is_the_pair_count(pair):
    ctx = build_tensor_context(*pair)
    spaces_a, spaces_b = _spaces(ctx.A), _spaces(ctx.B)
    P = sum(da * db for ca, da in spaces_a for cb, db in spaces_b
            if np.allclose(ca * cb, 1, atol=1e-8))
    tangent = ctx.tangent
    assert len(tangent.basis) == P - _fixed_dimension(spaces_a) - _fixed_dimension(spaces_b) + 1
    reference, _ = tangent_space_reference(ctx)
    assert tangent.basis.shape == reference.shape
    assert np.abs(_projector(tangent.basis) - _projector(reference)).max() <= 1e-12
    # δ is undefined exactly when every pair of characters multiplies to 1
    assert (tangent.pair_gap is None) == (P == ctx.dim)
