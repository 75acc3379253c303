"""Exact integer linear algebra: Smith form, cokernels, membership."""

import pytest
from hypothesis import example, given, settings, strategies as st

from bundlesec.zlinalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    kernel_basis,
    smith_normal_form,
    solve,
)
from smith_reference import invariant_factors_by_minors, is_unimodular

small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(
        st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return IntMatrix.from_rows(rows)


def test_smith_worked_example():
    m = IntMatrix.from_rows([[2, 4], [-2, 6]])
    dec = smith_normal_form(m)
    assert dec.diagonal == (2, 10)
    assert dec.U @ m @ dec.V == dec.D


def test_smith_zero_and_identity():
    assert smith_normal_form(IntMatrix.zeros(3, 2)).diagonal == (0, 0)
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)


@settings(max_examples=200, derandomize=True)
@given(matrices())
def test_smith_decomposition_invariants(m):
    dec = smith_normal_form(m)
    assert dec.U @ m @ dec.V == dec.D
    assert is_unimodular(dec.U)
    assert is_unimodular(dec.V)
    diag = dec.diagonal
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D.data[i][j] == 0
    for d in diag:
        assert d >= 0
    nonzero = [d for d in diag if d != 0]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # zeros trail the nonzero entries
    assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))


@settings(max_examples=200, derandomize=True)
@given(matrices(), st.sampled_from(["entries", "zero", "identity"]))
@example(IntMatrix(0, 3, ()), "entries")
@example(IntMatrix(3, 0, ((),) * 3), "entries")
def test_pivot_attributes_match_the_diagonal_of_d(m, kind):
    # tall and wide shapes, each with random entries, zero, or the identity
    # padded with zero rows or columns
    if kind != "entries":
        m = IntMatrix(m.rows, m.cols, tuple(
            tuple(int(kind == "identity" and i == j) for j in range(m.cols))
            for i in range(m.rows)))
    dec = smith_normal_form(m)
    # each row's pivot read from D alone, None past the diagonal
    pivots = [dec.D.data[i][i] if i < dec.D.cols else None for i in range(dec.D.rows)]
    assert dec.diagonal == tuple(p for p in pivots if p is not None)
    assert dec.rank == sum(1 for p in pivots if p)
    torsion, free = list(dec.torsion_rows), list(dec.free_rows)
    assert torsion == sorted(torsion) and free == sorted(free)
    assert not set(torsion) & set(free)
    assert sorted(torsion + free) == [i for i, p in enumerate(pivots) if p != 1]
    assert torsion == [i for i, p in enumerate(pivots) if p is not None and p >= 2]
    assert free == [i for i, p in enumerate(pivots) if not p]
    if kind == "zero":
        assert (dec.rank, torsion, free) == (0, [], list(range(m.rows)))
    elif kind == "identity":
        n = min(m.rows, m.cols)
        assert (dec.rank, torsion, free) == (n, [], list(range(n, m.rows)))


@settings(max_examples=200, derandomize=True)
@given(matrices(max_dim=3))
def test_smith_matches_minor_gcds(m):
    dec = smith_normal_form(m)
    expected = invariant_factors_by_minors(m)
    got = tuple(d for d in dec.diagonal if d != 0)
    assert got == expected


def test_determinant_against_cofactor_expansion():
    def cofactor(m):
        n = m.rows
        if n == 1:
            return m.data[0][0]
        total = 0
        for j in range(n):
            minor = IntMatrix.from_rows(
                [[m.data[i][k] for k in range(n) if k != j] for i in range(1, n)])
            total += (-1) ** j * m.data[0][j] * cofactor(minor)
        return total

    import random
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert m.determinant() == cofactor(m)


@settings(max_examples=100, derandomize=True)
@given(matrices())
def test_kernel_basis_annihilated(m):
    for v in kernel_basis(m):
        assert m.apply(v) == tuple(0 for _ in range(m.rows))


@settings(max_examples=100, derandomize=True)
@given(matrices(), st.lists(small_entries, min_size=4, max_size=4))
def test_solve_finds_constructed_solutions(m, raw):
    w = tuple(raw[: m.cols])
    v = m.apply(w)
    x = solve(m, v)
    assert x is not None
    assert m.apply(x) == v


def test_solve_detects_unsolvable():
    m = IntMatrix.from_rows([[2]])
    assert solve(m, (1,)) is None
    assert solve(m, (4,)) == (2,)


def test_cokernel_examples():
    assert str(cokernel(IntMatrix.from_rows([[2, 4], [-2, 6]]))) == "Z/2 + Z/10"
    assert str(cokernel(IntMatrix.zeros(2, 1))) == "Z^2"
    assert str(cokernel(IntMatrix.identity(3))) == "0"
    kb = cokernel(IntMatrix.from_rows([[0], [2]]))
    assert str(kb) == "Z + Z/2"


@settings(max_examples=100, derandomize=True)
@given(matrices(), st.lists(small_entries, min_size=4, max_size=4),
       st.lists(small_entries, min_size=4, max_size=4))
def test_project_kills_the_image_and_builds_no_transform(m, raw_v, raw_w):
    dec = smith_normal_form(m)
    v = tuple(raw_v[: m.rows])
    w = tuple(raw_w[: m.cols])
    shifted = tuple(a + b for a, b in zip(v, m.apply(w)))
    assert dec.project(v) == dec.project(shifted)
    assert "U" not in vars(dec) and "V" not in vars(dec)


@settings(max_examples=300, derandomize=True)
@given(matrices(), st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=4))
def test_project_is_u_at_the_kept_rows_mod_the_factors(m, raw):
    v = tuple(raw[: m.rows])
    dec = smith_normal_form(m)
    coords = dec.project(v)
    # the reference replays U: its rows at the pivots >= 2, then at the pivots
    # 0 and the rows with no pivot, each mod its factor
    diag = dec.diagonal + (0,) * (m.rows - len(dec.diagonal))
    kept = [i for i, d in enumerate(diag) if d >= 2] + [i for i, d in enumerate(diag) if d == 0]
    factors = dec.cokernel().invariant_factors
    assert factors == tuple(diag[i] for i in kept)
    uv = dec.U.apply(v)
    assert coords == tuple(uv[i] % f if f else uv[i] for i, f in zip(kept, factors))


def test_membership_and_quotient_class():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    witness = smith_normal_form(m).solve((4, -3))
    assert witness is not None and m.apply(witness) == (4, -3)
    assert smith_normal_form(m).solve((1, 0)) is None
    assert any(c != 0 for c in smith_normal_form(m).project((1, 1)))
    assert all(c == 0 for c in smith_normal_form(m).project((2, 3)))


@settings(max_examples=100, derandomize=True)
@given(matrices(), st.integers(min_value=0, max_value=3))
def test_left_apply_is_u_times_the_rows(m, width):
    rows = [[(3 * i - 2 * j) % 7 - 3 for j in range(width)] for i in range(m.rows)]
    dec = smith_normal_form(m)
    applied = dec.left_apply(rows)
    assert "U" not in vars(dec)
    x = IntMatrix(m.rows, width, tuple(tuple(row) for row in rows))
    assert IntMatrix(m.rows, width, tuple(tuple(row) for row in applied)) == dec.U @ x


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError):
        AbelianGroup((0, 2))


def test_abelian_group_prints_the_free_part_first():
    assert str(AbelianGroup((2, 6, 0))) == "Z + Z/2 + Z/6"


@settings(max_examples=100, derandomize=True)
@given(matrices())
def test_unimodular_inverse(m):
    dec = smith_normal_form(m)
    for mat in (dec.U, dec.V):
        inv = mat.inverse_unimodular()
        assert (mat @ inv).is_identity()
        assert (inv @ mat).is_identity()


def _random_matrix(rng, r, c, bound=9):
    return IntMatrix(r, c, tuple(tuple(rng.randint(-bound, bound) for _ in range(c))
                                 for _ in range(r)))


def test_smith_decomposition_replays_u_and_v_on_every_shape():
    import random
    rng = random.Random(11)
    shapes = [(r, c) for r in range(10) for c in range(10)]
    for r, c in shapes * 3:
        m = _random_matrix(rng, r, c)
        if rng.random() < 0.3 and r:
            # a zero row and, where there is one, a zero column
            rows = [list(row) for row in m.data]
            rows[rng.randrange(r)] = [0] * c
            if c:
                j = rng.randrange(c)
                for row in rows:
                    row[j] = 0
            m = IntMatrix(r, c, tuple(tuple(row) for row in rows))
        dec = smith_normal_form(m)
        assert (dec.D.rows, dec.D.cols) == (r, c)
        assert dec.U @ m @ dec.V == dec.D
        assert is_unimodular(dec.U) and is_unimodular(dec.V)


def test_columns_and_transpose_keep_every_shape():
    import random
    rng = random.Random(12)
    for r in range(4):
        for c in range(4):
            m = _random_matrix(rng, r, c)
            cols = m.columns()
            assert cols == tuple(m.column(j) for j in range(c))
            t = m.transpose()
            assert (t.rows, t.cols, t.data) == (c, r, cols)
            assert t.transpose() == m
    # no rows: cols empty columns, so a product through a zero inner size is zero
    assert IntMatrix(0, 3, ()).columns() == ((), (), ())
    assert IntMatrix(2, 0, ((), ())) @ IntMatrix(0, 3, ()) == IntMatrix.zeros(2, 3)


def _elementary_product(rng, n, steps):
    """A random product of elementary GL(n, Z) matrices."""
    if n == 0:
        return IntMatrix.identity(0)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def test_inverse_unimodular_matches_the_smith_route():
    import random
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 8)
        m = _elementary_product(rng, n, rng.randint(0, 3 * n + 2))
        dec = smith_normal_form(m)
        assert dec.D.is_identity()
        reference = dec.V @ dec.U
        assert m.inverse_unimodular() == reference
        assert (m @ reference).is_identity()


def test_inverse_unimodular_rejects_non_units():
    import random
    rng = random.Random(14)
    singular = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    det_two = IntMatrix.from_rows([[2, 0], [0, 1]])
    for bad in (singular, det_two, IntMatrix.zeros(2, 2)):
        with pytest.raises(ValueError):
            bad.inverse_unimodular()
    for _ in range(50):
        n = rng.randint(1, 6)
        p = _elementary_product(rng, n, 3 * n)
        q = _elementary_product(rng, n, 3 * n)
        scale = IntMatrix.from_rows(
            [[(rng.choice((2, -2)) if i == j == 0 else int(i == j)) for j in range(n)]
             for i in range(n)])
        with pytest.raises(ValueError):
            (p @ scale @ q).inverse_unimodular()
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).inverse_unimodular()
