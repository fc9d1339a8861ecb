"""Soundness of the "infeasible" certificates of the feasibility oracle.

Each certificate is checked again from the raw constraint rows, with
least-squares solves of their own instead of the solver's projector, and
with density blocks rebuilt from the product algebra's coordinates instead
of the solver's batched block layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjoin import corpus, joinings
from ncjoin.joinings import (
    _ConstraintSet,
    _dykstra,
    _vec,
    build_tensor_context,
    disjointness_test,
    find_joining,
    product_joining,
)

from oracles import invariant_transportation_max


def _record_certified(monkeypatch):
    """Wrap the oracle; keep (context, raw rows, values, answer) of each certified call."""
    seen = []

    def recording(affine, x0, tol, max_iter):
        out = _dykstra(affine, x0, tol, max_iter)
        if out.status == "infeasible" and out.margin is not None:
            seen.append((affine.base.ctx, affine.base.base_A.copy(),
                         affine.base.base_b.copy(), affine.row.copy(), affine.t, out))
        return out

    monkeypatch.setattr(joinings, "_dykstra", recording)
    return seen


def _top_eigenvalue(ctx, v):
    """Largest eigenvalue of the Hermitian parts of the blocks that the value
    vector v (basis pairs in row-major order, real then imaginary parts)
    fills in the product algebra."""
    n = ctx.dim
    coords = np.empty(n, dtype=complex)
    coords[ctx.pair_index.reshape(-1)] = v[:n] + 1j * v[n:]
    blocks = ctx.structure.from_coords(coords).blocks
    return max(np.linalg.eigvalsh((b + b.conj().T) / 2).max() for b in blocks)


def _verify(ctx, base_A, base_b, row, t, out):
    if out.separator is None:
        # the level row lies in the base row space, so the objective is
        # constant on the base set up to the lstsq residual
        z, *_ = np.linalg.lstsq(base_A.T, row, rcond=None)
        slack = np.linalg.norm(base_A.T @ z - row)
        assert slack <= 1e-10 * np.linalg.norm(row)
        x_ls, *_ = np.linalg.lstsq(base_A, base_b, rcond=None)
        assert np.max(np.abs(base_A @ x_ls - base_b)) < 1e-10
        # every state's density has Frobenius norm at most one
        distance = (abs(t - row @ x_ls) - slack) / np.linalg.norm(row)
        assert distance > 0
        assert distance == pytest.approx(out.margin, rel=1e-6, abs=1e-12)
        return
    v = out.separator
    A = np.vstack([base_A, row])
    b = np.append(base_b, t)
    z, *_ = np.linalg.lstsq(A.T, v, rcond=None)
    assert np.linalg.norm(A.T @ z - v) <= 1e-10 * np.linalg.norm(v)
    x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.max(np.abs(A @ x_ls - b)) < 1e-10
    margin = (v @ x_ls - _top_eigenvalue(ctx, v)) / np.linalg.norm(v)
    assert margin > 0
    assert margin == pytest.approx(out.margin, rel=1e-6, abs=1e-12)


def test_certificates_verify_from_raw_constraints(monkeypatch):
    seen = _record_certified(monkeypatch)
    s = corpus.system
    for a, b in (("c2", "c3"), ("c2", "c2"), ("pauli", "pauli"), ("gibbs", "c2")):
        disjointness_test(build_tensor_context(s(a), s(b)))
    for a, b, obj in (("c2", "c2", (0, 0)), ("c3", "c3", (0, 1)), ("c2", "id2", (1, 1))):
        find_joining(build_tensor_context(s(a), s(b)), objective=obj)
    kinds = {out.separator is None for *_, out in seen}
    assert kinds == {True, False}   # both certificate kinds were exercised
    for record in seen:
        _verify(*record)


def _rotation_optimum(p, i, j):
    images = [(k + 1) % p for k in range(p)]
    cost = np.zeros((p, p))
    cost[i, j] = 1.0
    best, _ = invariant_transportation_max([1 / p] * p, [1 / p] * p, images, images, cost)
    return best


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from([("c2", 2, (0, 0)), ("c2", 2, (1, 0)), ("c3", 3, (0, 1)),
                             ("c3", 3, (2, 2)), ("pauli", None, (0, 0))]),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_feasible_levels_never_certified_infeasible(case, frac):
    name, p, (i, j) = case
    ctx = build_tensor_context(corpus.system(name), corpus.system(name))
    x0 = _vec(product_joining(ctx).values)
    e = ctx.basis_pair(i, j)
    level = (0.5 * (e + e.adjoint())).coords()[ctx.pair_index].reshape(-1)
    affine = _ConstraintSet(ctx).with_level(level)
    t0 = float(affine.row @ x0)
    # pauli x pauli: the diagonal witness sits 0.25 above the product value
    best = _rotation_optimum(p, i, j) if p else t0 + 0.25
    t = t0 + frac * (best - 1e-4 - t0)
    affine.set_level(t)
    out = _dykstra(affine, x0, 1e-9, 50_000)
    assert out.status != "infeasible", (name, (i, j), t, out.margin)
