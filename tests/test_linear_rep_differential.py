"""Differential check of ``groupring.LinearRep``: the inverse it keeps for
each generator against a fresh ``inverse_unimodular`` of that generator's
matrix, on seeded modules of ranks 1-10.

A module repeats matrices, holds identities, pairs a matrix with its
inverse, or has all its matrices distinct.  ``LinearRep`` runs one
elimination per distinct matrix, and an inverse pair shares one, so the
count of eliminations is the number of classes {M, M^-1} among the
matrices.  A matrix that is not invertible over Z is named by the first
generator that carries it."""

import random

import pytest

from bundlesec.groupring import LinearRep
from bundlesec.zlinalg import IntMatrix
from test_h1_h2_differential import _elementary_product

KINDS = ("repeated", "identities", "inverse pairs", "distinct")


def _matrices(rng, kind, n, count):
    """count n x n unimodular matrices of the given kind, in generator order."""
    if kind == "distinct":
        return [_elementary_product(rng, n, rng.randint(n, 3 * n)) for _ in range(count)]
    if kind == "repeated":
        pool = [_elementary_product(rng, n, rng.randint(n, 3 * n)) for _ in range(2)]
        return [rng.choice(pool) for _ in range(count)]
    if kind == "identities":
        eye = IntMatrix.identity(n)
        return [eye if rng.random() < 0.5 else _elementary_product(rng, n, 2 * n)
                for _ in range(count)]
    out = []
    while len(out) < count:
        mat = _elementary_product(rng, n, rng.randint(n, 3 * n))
        out += [mat, mat.inverse_unimodular()]
    rng.shuffle(out)
    return out[:count]


def _count_eliminations(monkeypatch):
    calls = [0]
    method = IntMatrix.inverse_unimodular

    def counted(self):
        calls[0] += 1
        return method(self)

    monkeypatch.setattr(IntMatrix, "inverse_unimodular", counted)
    return calls


def test_linear_rep_inverses_match_a_fresh_elimination(monkeypatch):
    rng = random.Random(4096)
    fresh = IntMatrix.inverse_unimodular
    calls = _count_eliminations(monkeypatch)
    cases = shared = 0
    for n in range(1, 11):
        eye = IntMatrix.identity(n)
        for kind in KINDS:
            for _ in range(3):
                mats = _matrices(rng, kind, n, rng.randint(1, 8))
                names = [f"g{i}" for i in range(len(mats))]
                calls[0] = 0
                rep = LinearRep(dict(zip(names, mats)), n)
                inverses = [fresh(mat) for mat in mats]
                pairs = {frozenset((mat.data, inv.data)) for mat, inv in zip(mats, inverses)}
                assert calls[0] == len(pairs), (n, kind)
                shared += len(mats) - len(pairs)
                for g, mat, inv in zip(names, mats, inverses):
                    assert rep.matrix(g) is mat
                    assert rep.matrix(g, -1) == inv
                    assert mat @ rep.matrix(g, -1) == eye
                    assert rep.matrix(g, -1) @ mat == eye
                cases += 1
    assert cases == 120
    assert shared >= 100  # repeats and inverse pairs did share eliminations


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_a_matrix_that_is_not_invertible_is_named_by_its_first_generator(n):
    rng = random.Random(n)
    good = _elementary_product(rng, n, 2 * n)
    bad = IntMatrix.from_rows([[2 if i == j == 0 else int(i == j) for j in range(n)]
                               for i in range(n)])
    assignment = {"u": good, "v": bad, "w": good, "x": bad}
    with pytest.raises(ValueError) as err:
        LinearRep(assignment, n)
    assert str(err.value) == "matrix for 'v' is not invertible over Z"
    # the second name of the same matrix is never reached
    with pytest.raises(ValueError) as err:
        LinearRep({"x": bad, "v": bad}, n)
    assert str(err.value) == "matrix for 'x' is not invertible over Z"


def test_the_size_check_stays_per_generator():
    eye = IntMatrix.identity(2)
    with pytest.raises(ValueError) as err:
        LinearRep({"u": eye, "v": eye, "w": IntMatrix.identity(3)}, 2)
    assert str(err.value) == "matrix for 'w' has wrong size"
