import numpy as np
import pytest

from sbadmm.algorithms import ProblemOps, admm2_step, canonical_init
from sbadmm.inner import InnerSolveConfig
from sbadmm.prox import Potential, potential_value_array, prox_array
from conftest import random_problem


def scalar_prox(pot, z, eta):
    return float(prox_array(pot, np.array([[z]]), eta)[0, 0])


def numeric_prox(pot, z, eta, lo=-50.0, hi=50.0):
    # independent 1D minimization of Phi(v) + (eta/2)(z - v)^2
    from scipy.optimize import minimize_scalar

    def obj(v):
        return potential_value_array(pot, np.array([v])) \
            + 0.5 * eta * (z - v) ** 2

    res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x)


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential("tv", 1.0)
    with pytest.raises(ValueError):
        Potential("quadratic", 0.0)
    with pytest.raises(ValueError):
        Potential("huber", 1.0)
    with pytest.raises(ValueError):
        Potential("fair", 1.0, -1.0)
    assert Potential.huber(1.0, 2.0).threshold == 2.0


def test_quadratic_prox_scalar():
    assert scalar_prox(Potential.quadratic(1.0), 1.0, 1.0) == 0.5


def test_l1_prox_soft_threshold():
    pot = Potential.l1(1.0)
    assert scalar_prox(pot, 3.0, 1.0) == 2.0
    assert scalar_prox(pot, 0.5, 1.0) == 0.0
    assert scalar_prox(pot, -3.0, 1.0) == -2.0


def test_huber_prox_outer_branch():
    # alpha=1, t=1, eta=1, z=4: |z| beyond the quadratic branch, constant
    # slope shrinkage gives z - alpha*t/eta = 3
    pot = Potential.huber(1.0, 1.0)
    got = scalar_prox(pot, 4.0, 1.0)
    assert np.isclose(got, 3.0, atol=1e-12)
    assert np.isclose(numeric_prox(pot, 4.0, 1.0), got, atol=1e-6)


def test_huber_prox_inner_branch():
    pot = Potential.huber(1.0, 1.0)
    assert np.isclose(scalar_prox(pot, 1.0, 1.0), 0.5)


def test_fair_prox_matches_numeric_oracle(rng):
    pot = Potential.fair(0.7, 1.3)
    for z in (-4.0, -0.3, 0.0, 0.9, 6.0):
        got = scalar_prox(pot, z, 1.1)
        assert np.isclose(numeric_prox(pot, z, 1.1), got, atol=1e-6)


def test_eval_values():
    v = np.array([2.0, 0.0])  # ||v||^2 = 4
    assert potential_value_array(Potential.quadratic(2.0), v) == 4.0
    assert potential_value_array(Potential.l1(1.0), np.array([1.0, -2.0, 0.0])) == 3.0
    assert potential_value_array(Potential.huber(1.0, 1.0), np.array([2.0])) == 1.5
    assert potential_value_array(Potential.fair(1.0, 1.0), np.array([0.0])) == 0.0


def test_eval_nonnegative_random(rng):
    pots = [Potential.quadratic(0.5), Potential.l1(2.0),
            Potential.huber(1.0, 0.5), Potential.fair(0.3, 2.0)]
    for pot in pots:
        for _ in range(25):
            v = rng.standard_normal(10) * 5
            assert potential_value_array(pot, v) >= 0.0


def test_eval_midpoint_convexity(rng):
    pots = [Potential.quadratic(0.5), Potential.l1(2.0),
            Potential.huber(1.0, 0.5), Potential.fair(0.3, 2.0)]
    for pot in pots:
        for _ in range(25):
            a = rng.standard_normal(6) * 4
            b = rng.standard_normal(6) * 4
            mid = potential_value_array(pot, 0.5 * (a + b))
            avg = 0.5 * (potential_value_array(pot, a)
                         + potential_value_array(pot, b))
            assert mid <= avg + 1e-12


def test_prox_optimality_random(rng):
    # returned v must beat 100 random perturbations for every potential
    pots = [Potential.quadratic(0.5), Potential.l1(2.0),
            Potential.huber(1.0, 0.5), Potential.fair(0.3, 2.0)]
    for pot in pots:
        for _ in range(25):
            z = rng.standard_normal(8) * 4
            eta = float(rng.uniform(0.1, 5.0))
            v = prox_array(pot, z, eta)
            best = potential_value_array(pot, v) \
                + 0.5 * eta * np.sum((z - v) ** 2)
            for _ in range(100):
                d = rng.standard_normal(8) * rng.uniform(1e-4, 1.0)
                other = potential_value_array(pot, v + d) \
                    + 0.5 * eta * np.sum((z - v - d) ** 2)
                assert best <= other + 1e-10


def test_prox_nonexpansive_random(rng):
    pots = [Potential.quadratic(0.5), Potential.l1(2.0),
            Potential.huber(1.0, 0.5), Potential.fair(0.3, 2.0)]
    for pot in pots:
        for _ in range(25):
            z1 = rng.standard_normal(8) * 4
            z2 = rng.standard_normal(8) * 4
            eta = float(rng.uniform(0.1, 5.0))
            d = np.linalg.norm(prox_array(pot, z1, eta)
                               - prox_array(pot, z2, eta))
            assert d <= np.linalg.norm(z1 - z2) + 1e-12


def test_quadratic_prox_is_linear(rng):
    pot = Potential.quadratic(0.7)
    z1 = rng.standard_normal(12)
    z2 = rng.standard_normal(12)
    got = prox_array(pot, 2.0 * z1 - 3.0 * z2, 1.4)
    want = 2.0 * prox_array(pot, z1, 1.4) - 3.0 * prox_array(pot, z2, 1.4)
    assert np.allclose(got, want, atol=1e-14)


def test_prox_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        prox_array(Potential.l1(1.0), np.zeros(3), 0.0)


def test_prox_on_gradient_field_respects_mask(rng):
    # the v update of a masked l1 problem stays zero off the mask, even with
    # a dual that is not
    ops = ProblemOps(random_problem(rng, shape=(4, 4), mask_mode="masked",
                                    alpha=0.1, kind="l1"))
    state = canonical_init(ops, 1.0, 1.0)
    state.e = rng.standard_normal(state.e.shape)
    out = admm2_step(state, ops, 1.0, 1.0,
                     InnerSolveConfig(mode="pcg", pcg_iterations=3))
    assert np.all(out.v[~ops.mask] == 0.0)
    assert np.any(out.v[ops.mask] != 0.0)
    assert potential_value_array(Potential.l1(1.0), out.v) == np.abs(out.v).sum()
