import pytest
from hypothesis import given
from hypothesis import strategies as st

import sign_reference

from plethysm.actions import (
    add_row_multiple,
    all_permutations,
    antisymmetrize,
    is_sign_equivariant,
    is_sk_invariant,
    is_un_invariant,
    permutation_sign,
    permute_columns,
    raising_operator,
    symmetrize,
    transposition,
)
from plethysm.hwv import beta_general, generators_k3, t_general
from plethysm.polynomials import Monomial, Polynomial, ZeroPolynomialError, variable
from plethysm.tableaux import column_minor


def x(i, j):
    return variable(i, j)


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((2, 3, 1)) == 1
    assert permutation_sign((4, 3, 2, 1)) == 1


@given(st.integers(0, 40).flatmap(
    lambda k: st.tuples(st.permutations(range(k)), st.sampled_from((0, 1)))))
def test_permutation_sign_matches_the_inversion_count(case):
    perm, base = case
    tau = tuple(i + base for i in perm)
    assert permutation_sign(tau) == sign_reference.permutation_sign(tau)


def test_permute_columns_on_variables():
    f = x(1, 1) * x(2, 3)
    g = permute_columns(f, (2, 3, 1))  # column j goes to tau(j)
    assert g == x(1, 2) * x(2, 1)


@pytest.mark.parametrize("tau", [(1, 1), (0, 1), (1, 3)])
def test_permute_columns_refuses_a_tau_that_is_not_a_permutation(tau):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
        permute_columns(x(1, 1) * x(1, 2), tau)


def test_permute_columns_refuses_a_column_past_tau():
    with pytest.raises(ValueError, match="column 3 out of range for a permutation of 2 columns"):
        permute_columns(x(1, 1) * x(2, 3), (2, 1))


def test_permute_is_group_action():
    f = generators_k3()["gamma2"] + 2 * x(1, 1) ** 3
    tau, rho = (2, 3, 1), (2, 1, 3)
    composed = tuple(rho[tau[j - 1] - 1] for j in range(1, 4))
    assert permute_columns(permute_columns(f, tau), rho) == permute_columns(f, composed)
    assert permute_columns(f, tuple(range(1, 4))) == f


def test_alphas_invariant_gammas_sign():
    g = generators_k3()
    for tau in all_permutations(3):
        for name in ("alpha1", "alpha2", "alpha3"):
            assert permute_columns(g[name], tau) == g[name]
        sign = permutation_sign(tau)
        for name in ("gamma1", "gamma2"):
            expected = g[name] if sign == 1 else -g[name]
            assert permute_columns(g[name], tau) == expected


def test_beta_permutation_case_split():
    # sigma.beta_i depends on where sigma sends column 1
    for k in (3, 4):
        betas = {i: beta_general(k, i) for i in range(2, k + 1)}
        for tau in all_permutations(k):
            for i in range(2, k + 1):
                moved = permute_columns(betas[i], tau)
                si, s1 = tau[i - 1], tau[0]
                if s1 == 1:
                    assert moved == betas[si]
                elif si == 1:
                    assert moved == -betas[s1]
                else:
                    assert moved == betas[si] - betas[s1]


def test_t_family_is_a_permutation_orbit():
    for k in (3, 4):
        ts = {i: t_general(k, i) for i in range(1, k + 1)}
        total = Polynomial.zero()
        for t in ts.values():
            total = total + t
        assert total == 0
        for tau in all_permutations(k):
            for i in range(1, k + 1):
                assert permute_columns(ts[i], tau) == ts[tau[i - 1]]


def test_beta_index_validation():
    with pytest.raises(ValueError):
        beta_general(3, 1)
    with pytest.raises(ValueError):
        beta_general(3, 4)
    with pytest.raises(ValueError):
        t_general(3, 0)


def test_symmetrizers():
    g = generators_k3()
    assert symmetrize(g["alpha1"], 3) == 6 * g["alpha1"]
    assert antisymmetrize(g["gamma1"], 3) == 6 * g["gamma1"]
    assert antisymmetrize(g["alpha1"], 3) == 0
    assert symmetrize(g["gamma1"], 3) == 0


def test_antisymmetrize_example():
    f = x(1, 1) * x(2, 2) ** 2
    assert antisymmetrize(f, 2) == x(1, 1) * x(2, 2) ** 2 - x(1, 2) * x(2, 1) ** 2


@given(st.integers(2, 3))
def test_symmetrize_is_essentially_idempotent(k):
    f = x(1, 1) ** 2 * x(2, 2) + x(1, 2)
    import math

    assert symmetrize(symmetrize(f, k), k) == math.factorial(k) * symmetrize(f, k)
    assert antisymmetrize(symmetrize(f, k), k) == 0


def test_raising_operator_basics():
    assert raising_operator(x(2, 1), 1, 2) == x(1, 1)
    assert raising_operator(x(1, 1), 1, 2) == 0
    assert raising_operator(x(2, 1) ** 3, 1, 2) == 3 * x(1, 1) * x(2, 1) ** 2
    # product rule across columns
    f = x(2, 1) * x(2, 2)
    assert raising_operator(f, 1, 2) == x(1, 1) * x(2, 2) + x(2, 1) * x(1, 2)
    with pytest.raises(ValueError):
        raising_operator(f, 2, 2)


def reference_raising_operator(f, p, q):
    """The dict-based raising operator that Polynomial.polarize replaced."""
    out = {}
    for mono, coeff in f.terms():
        exps = mono.exponents()
        for (row, col), e in exps.items():
            if row != q:
                continue
            shifted = dict(exps)
            if e == 1:
                del shifted[(q, col)]
            else:
                shifted[(q, col)] = e - 1
            shifted[(p, col)] = shifted.get((p, col), 0) + 1
            m = Monomial(shifted)
            c = out.get(m, 0) + coeff * e
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return Polynomial(out)


matrix_polys = st.dictionaries(
    st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), st.integers(1, 3), max_size=5
    ).map(Monomial),
    st.integers(-4, 4),
    max_size=6,
).map(Polynomial)

row_pairs = st.sampled_from([(p, q) for q in range(2, 5) for p in range(1, q)])


@given(matrix_polys, row_pairs)
def test_raising_operator_matches_dict_reference(f, pq):
    p, q = pq
    assert raising_operator(f, p, q) == reference_raising_operator(f, p, q)


def test_raising_operator_inserts_past_a_populated_middle_row():
    # x[1][j] lands before x[2][j], which sits between rows p = 1 and q = 3
    f = x(2, 1) * x(3, 1) ** 2 * x(3, 2) + 5 * x(1, 1) * x(2, 1) * x(3, 1)
    for p, q in ((1, 3), (2, 3), (1, 2)):
        assert raising_operator(f, p, q) == reference_raising_operator(f, p, q)
    assert raising_operator(f, 1, 3) == (
        2 * x(1, 1) * x(2, 1) * x(3, 1) * x(3, 2)
        + x(2, 1) * x(3, 1) ** 2 * x(1, 2)
        + 5 * x(1, 1) ** 2 * x(2, 1)
    )


def test_raising_kills_minors():
    assert raising_operator(column_minor((1, 2)), 1, 2) == 0
    assert raising_operator(column_minor((1, 3)), 1, 2) == 0


def test_is_un_invariant():
    g = generators_k3()
    for name in ("alpha1", "alpha2", "alpha3", "gamma1", "gamma2"):
        assert is_un_invariant(g[name], 4)
    assert not is_un_invariant(x(2, 1), 3)
    assert not is_un_invariant(x(1, 1) * x(3, 2), 3)
    with pytest.raises(ZeroPolynomialError):
        is_un_invariant(Polynomial.zero(), 3)


def test_adjacent_operators_control_all_pairs():
    # anything killed by the adjacent operators is killed by every R_pq
    g = generators_k3()
    for name in ("alpha2", "gamma1", "gamma2"):
        for p in range(1, 4):
            for q in range(p + 1, 5):
                assert raising_operator(g[name], p, q) == 0


def test_finite_and_infinitesimal_invariance_agree():
    g = generators_k3()
    for name in ("alpha1", "gamma1", "gamma2"):
        for c in (1, -2, 5):
            for p in (1, 2):
                assert add_row_multiple(g[name], p, p + 1, c) == g[name]
    # and a non-invariant example moves
    f = x(2, 1) * x(2, 2)
    moved = add_row_multiple(f, 1, 2, 1)
    assert moved == f + raising_operator(f, 1, 2) + x(1, 1) * x(1, 2)


@given(st.integers(-3, 3))
def test_row_operation_is_exponential_of_raising(c):
    # degree 2 in row 2, so the series stops at the second derivative
    f = x(2, 1) ** 2 * x(1, 2) + x(2, 2)
    r1 = raising_operator(f, 1, 2)
    r2 = raising_operator(r1, 1, 2)
    lhs = 2 * add_row_multiple(f, 1, 2, c)
    assert lhs == 2 * f + 2 * c * r1 + c * c * r2


def test_sk_invariance_tests():
    g = generators_k3()
    assert is_sk_invariant(g["alpha2"], 3)
    assert not is_sk_invariant(g["gamma1"], 3)
    assert is_sign_equivariant(g["gamma1"], 3)
    assert not is_sign_equivariant(g["alpha1"], 3)
    product = g["gamma1"] * g["gamma2"]
    assert is_sk_invariant(product, 3)
    assert not is_sign_equivariant(product, 3)
