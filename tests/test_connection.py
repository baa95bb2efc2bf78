import math
import random
from fractions import Fraction

import pytest

from atomcur import covderiv as cd
from atomcur import expr as ex
from atomcur.connection import (ChartConnection, ChartDomainError,
                                ChartValidationError, curvature, dual_chart)
from atomcur.jets import FLOAT, RATIONAL


def test_flat_gammas_vanish(flat3):
    p = (0.1, -0.4, 0.7)
    for I in [(0,), (1, 2), (0, 0, 1)]:
        for j in range(3):
            assert all(v == 0 for v in flat3.higher_gamma(I, j, p))


def test_s2_levi_civita(s2):
    theta = 1.1
    p = (theta, 0.8)
    cot = math.cos(theta) / math.sin(theta)
    got = s2.higher_gamma((0,), 1, p)  # nabla_{e_theta} e_phi
    assert abs(got[1] - cot) < 1e-12 and abs(got[0]) < 1e-12
    got = s2.higher_gamma((1,), 1, p)  # nabla_{e_phi} e_phi
    assert abs(got[0] + math.sin(theta) * math.cos(theta)) < 1e-12


def test_s2_levi_civita_fd_oracle(s2):
    # finite-difference the metric and assemble the standard formula
    h = 1e-6
    p = (1.3, 2.0)
    n = 2
    g = lambda q: [[ex.evaluate(s2.metric[i][j], q) for j in range(n)] for i in range(n)]
    g0 = s2.metric_value(p)  # diagonal
    ginv = [[1 / g0[i][i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for l in range(n):
                    def dg(a, b, direction):
                        pp = list(p); pp[direction] += h
                        pm = list(p); pm[direction] -= h
                        return (g(pp)[a][b] - g(pm)[a][b]) / (2 * h)
                    acc += 0.5 * ginv[k][l] * (dg(l, j, i) + dg(l, i, j) - dg(i, j, l))
                got = s2.gamma1_jet(i, j, p, 0, FLOAT)[k].value
                assert abs(got - acc) < 1e-8


def test_hyperbolic_gamma(hyperbolic):
    p = (0.3, 1.2)
    got = hyperbolic.higher_gamma((0,), 1, p)  # nabla_{e_x} e_y
    assert abs(got[0] - (-1 / 1.2)) < 1e-12


def test_s2_higher_order_christoffel_is_minus_one(s2):
    for theta in (0.7, 1.1, 1.9, 2.4):
        got = s2.higher_gamma((0, 0), 1, (theta, 1.0))
        assert abs(got[1] + 1.0) < 1e-10
        assert abs(got[0]) < 1e-12


def test_higher_gamma_dual_path(s2, hyperbolic, poly2, poly2_point):
    rng = random.Random(5)
    for chart, pts in [(s2, [(1.1, 0.8), (1.9, 2.2)]),
                       (hyperbolic, [(0.5, 1.1), (-0.8, 2.0)])]:
        for p in pts:
            for _ in range(5):
                I = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
                j = rng.randrange(2)
                a = chart.higher_gamma(I, j, p)
                direct = cd.nabla_value(cd.coordinate_tensor_field(chart, (j,)), I, p)
                for k in range(2):
                    assert abs(a[k] - direct.get((k,), 0)) <= 1e-8 * max(1, abs(a[k]))
    # rational chart: the two paths agree exactly
    for _ in range(4):
        I = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
        j = rng.randrange(2)
        a = poly2.higher_gamma(I, j, poly2_point, RATIONAL)
        direct = cd.nabla_value(cd.coordinate_tensor_field(poly2, (j,)), I,
                                poly2_point, RATIONAL)
        assert all(a[k] == direct.get((k,), 0) for k in range(2))


def test_curvature_flat_and_s2(flat2, s2):
    cv = curvature(flat2, (0.3, 0.4))
    assert all(v == 0 for v in cv.base.values())
    rng = random.Random(11)
    for _ in range(10):
        p = (rng.uniform(0.7, 2.4), rng.uniform(0.3, 5.9))
        cv = curvature(s2, p)
        detg = math.sin(p[0]) ** 2
        K = cv.base[(0, 1, 0, 1)] / detg  # R^theta_{phi theta phi} g^{phiphi}-scaled
        assert abs(K - 1.0) < 1e-9
        for (k, j, u, v), val in cv.base.items():
            assert abs(val + cv.base[(k, j, v, u)]) < 1e-12


def test_dual_connection_s2(s2):
    theta = 1.1
    # fiber jets of the dual chart: A*^a_{i b} for a = 0, 1 at (i, b) = (theta, phi)
    coeffs = dual_chart(s2).gamma1_jet(0, 1, (theta, 0.8), 0, FLOAT, fiber=True)
    # nabla*_{e_theta} dphi = -cot(theta) dphi
    assert abs(coeffs[1].value + math.cos(theta) / math.sin(theta)) < 1e-12
    assert coeffs[0].value == 0


def test_dual_connection_contraction(s2):
    p = (1.4, 2.1)
    omega = cd.form_field(s2, 1, {(0,): "theta*phi", (1,): "phi^2"})
    Y = cd.vector_field(s2, {0: "1 + theta", 1: "phi"})
    contr = cd.contract_form_vector(omega, Y)
    for i in range(2):
        lhs = cd.nabla_value(contr, (i,), p).get((), 0)
        dom = cd.nabla_value(omega, (i,), p)
        yv = Y.value(p, "float")
        rhs = sum(dom.get((a,), 0) * yv.get((a,), 0) for a in range(2))
        dy = cd.nabla_value(Y, (i,), p)
        ov = omega.value(p, "float")
        rhs += sum(ov.get((a,), 0) * dy.get((a,), 0) for a in range(2))
        assert abs(lhs - rhs) < 1e-9


def test_torsion_validation():
    bad = [[["0", "x"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    with pytest.raises(ChartValidationError, match="torsion-free violation at probe"):
        ChartConnection(["x", "y"], bad, [(-1, 1), (-1, 1)], check_points=[(0.5, 0.5)])


def test_domain_box_enforced(s2):
    with pytest.raises(ChartDomainError):
        s2.higher_gamma((0,), 1, (0.1, 0.8))  # theta below the box


def test_flat_lemma_rational(flat2):
    # all higher symbols and curvature derivatives vanish identically
    p = (Fraction(1, 3), Fraction(-1, 2))
    for I in [(0,), (0, 1), (1, 1, 0), (0, 0, 1, 1)]:
        for j in range(2):
            assert all(v == 0 for v in flat2.higher_gamma(I, j, p, RATIONAL))
    for s in range(4):
        S = (0, 1, 0, 1)[:s]
        base_end = cd.curvature_endomorphism(flat2, S, {(0, 1): 1}, p, RATIONAL)
        fiber_end = cd.curvature_endomorphism(flat2, S, {(0, 1): 1}, p, RATIONAL,
                                              fiber=True)
        assert all(v == 0 for row in base_end for v in row)
        assert all(v == 0 for row in fiber_end for v in row)
