"""Gamma ladders: anticommutators, reality, volume elements, chirality."""

from oracles import dense, naive_matmul
from triality.clifford import (EUCLIDEAN, LORENTZIAN, SIGMA_Y,
                               chiral_transform, cl7_basis, cl8_basis,
                               cl17_basis, dirac_gammas, volume_element)
from triality.field import HALF, I, MINUS_ONE, ONE, rational
from triality.matrix import Matrix, anticommutator, kron


def purely_imaginary(m):
    return all((x + x.conj()).is_zero for row in dense(m) for x in row)


def test_dirac_signature():
    d = dirac_gammas()
    assert anticommutator(d[0], d[0]) == Matrix.identity(4).scale(rational(2))
    assert anticommutator(d[1], d[2]).is_zero
    assert d.satisfies_clifford()


def test_gamma5_by_direct_multiplication_oracle():
    d = dirac_gammas()
    g5 = d.gamma5
    for g in d.gammas:
        assert (naive_matmul(g5, g) + naive_matmul(g, g5)).is_zero
    assert naive_matmul(g5, g5) == Matrix.identity(4)


def test_cl7_g4_is_minus_sigma_y_blocks():
    assert cl7_basis()[3] == -kron(SIGMA_Y, Matrix.identity(4))


def test_cl7_is_purely_imaginary_euclidean():
    c7 = cl7_basis()
    assert all(purely_imaginary(g) for g in c7.gammas)
    assert anticommutator(c7[1], c7[1]) == Matrix.identity(8).scale(rational(2))
    assert c7.satisfies_clifford()


def test_cl7_over_i_gives_negative_definite_relations():
    c7 = cl7_basis()
    hs = [g.scale(-I) for g in c7.gammas]   # divide each by i
    for i, hi in enumerate(hs):
        assert hi.is_real
        for j, hj in enumerate(hs):
            target = Matrix.identity(8).scale(rational(-2 * (i == j)))
            assert anticommutator(hi, hj) == target


def test_cl8_real_and_euclidean():
    c8 = cl8_basis()
    assert all(g.is_real for g in c8.gammas)
    assert anticommutator(c8[0], c8[5]).is_zero
    assert anticommutator(c8[3], c8[3]) == Matrix.identity(16).scale(rational(2))
    assert c8.satisfies_clifford()


def test_euclidean_volume_element():
    vol = volume_element(cl8_basis())
    assert vol.squares_to_plus_identity
    assert vol.anticommutes_with_all
    assert vol.omega.is_real
    ident = Matrix.identity(16)
    plus = (ident + vol.omega).scale(HALF)
    minus = (ident - vol.omega).scale(HALF)
    assert plus @ plus == plus
    assert minus @ minus == minus
    assert plus + minus == ident


def test_lorentzian_relations_and_volume():
    c17 = cl17_basis()
    assert all(g.is_real for g in c17.gammas)
    two = Matrix.identity(16).scale(rational(2))
    assert anticommutator(c17[0], c17[0]) == two
    assert anticommutator(c17[1], c17[1]) == -two
    assert c17.satisfies_clifford()
    vol = volume_element(c17)
    assert vol.squares_to_minus_identity


def test_chiral_transform_is_unitary_by_oracle():
    a = chiral_transform()
    assert naive_matmul(a, a.dagger()) == Matrix.identity(16)


def test_chiral_basis_blocks():
    c = cl17_basis(chiral=True)
    assert c.satisfies_clifford()
    for i in range(8):
        for j in range(i + 1, 8):
            prod = c[i] @ c[j]
            assert prod.block(0, 8, 8).is_zero
            assert prod.block(8, 0, 8).is_zero


def test_signatures():
    assert cl8_basis().signature == EUCLIDEAN
    assert cl17_basis().signature == LORENTZIAN
    eta = LORENTZIAN.eta()
    assert eta[0, 0] == ONE and eta[3, 3] == MINUS_ONE
