from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbadmm.algorithms import ProblemOps, admm2_step, canonical_init
from sbadmm.inner import InnerSolveConfig
from sbadmm.operators import diff_mask
from sbadmm.prox import (KINDS, Potential, potential_value_array, prox_array,
                         shrinkage)
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
    # an infinite or NaN weight or threshold, of every kind
    for kind in KINDS:
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match="alpha must be positive and finite"):
                Potential(kind, bad, 1.0)
            if kind in ("huber", "fair"):
                with pytest.raises(ValueError, match="%s threshold must be "
                                   "positive and finite" % kind):
                    Potential(kind, 1.0, bad)


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


def test_fair_shrinkage_matches_a_50_digit_root():
    # the root v of eta v^2 + b v - eta t |z| = 0, b = eta t + a t - eta |z|,
    # as 2 eta t |z| / (b + sqrt(b^2 + 4 eta^2 t |z|)): no cancellation at
    # b > 0 in 50 digits; the shrinkage is z - v and the prox is v itself
    a, t, eta = 100.0, 1.0, 0.01
    pot = Potential.fair(a, t)
    with localcontext() as ctx:
        ctx.prec = 50
        for z in (1e-3, 0.1, 1.0):
            dz, dt, de = Decimal(z), Decimal(t), Decimal(eta)
            b = de * dt + Decimal(a) * dt - de * dz
            v = 2 * de * dt * dz / (b + (b * b + 4 * de * de * dt * dz).sqrt())
            want = dz - v
            for sign in (1.0, -1.0):
                got = shrinkage(pot, np.array([sign * z]), eta)[0]
                assert abs(Decimal(sign * got) - want) <= Decimal(1e-14) * want
                got = prox_array(pot, np.array([sign * z]), eta)[0]
                assert abs(Decimal(sign * got) - v) <= Decimal(1e-14) * v


def test_quadratic_and_huber_prox_match_a_50_digit_value(rng):
    # at a >> eta the prox eta z / (eta + a) of the quadratic, and of Huber
    # inside its quadratic zone |z| <= t (a + eta) / eta, is much smaller
    # than z, so z - shrinkage(z) would cancel
    a, t, eta = 100.0, 1.0, 0.01
    z = np.concatenate(([1e-3, 1.0], rng.uniform(1e-3, 1.0, 2000)))
    with localcontext() as ctx:
        ctx.prec = 50
        want = [Decimal(eta) * Decimal(v) / (Decimal(eta) + Decimal(a))
                for v in z]
        for pot in (Potential.quadratic(a), Potential.huber(a, t)):
            for sign in (1.0, -1.0):
                got = prox_array(pot, sign * z, eta)
                assert max(abs(Decimal(sign * g) - v) / v
                           for g, v in zip(got, want)) <= Decimal(1e-14)


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
    mask = diff_mask(ops.shape, ops.mask_mode)
    assert np.all(out.v[~mask] == 0.0)
    assert np.any(out.v[mask] != 0.0)
    # the value sums one plane at a time, np.sum the whole field: the same
    # terms in another order, so the two agree to a few ulps, not exactly
    assert potential_value_array(Potential.l1(1.0), out.v) == pytest.approx(
        np.abs(out.v).sum(), rel=4 * np.finfo(float).eps, abs=0.0)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
positive = st.floats(1e-2, 1e2)
entries = st.lists(st.floats(-1e2, 1e2), min_size=1, max_size=12)


@st.composite
def prox_cases(draw):
    """A potential, eta and z, with z also holding the breakpoints
    |z| = a/eta (l1) and t(a + eta)/eta (Huber) and their neighbours."""
    kind = draw(st.sampled_from(KINDS))
    a, t, eta = draw(positive), draw(positive), draw(positive)
    pot = Potential(kind, a, t if kind in ("huber", "fair") else None)
    kinks = np.array([a / eta, t * (a + eta) / eta])
    kinks = np.concatenate((kinks, np.nextafter(kinks, 0.0),
                            np.nextafter(kinks, np.inf)))
    z = np.concatenate((draw(entries), kinks, -kinks, [0.0]))
    return pot, eta, z


def subgradient_gap(pot, v, g):
    """Distance of g from the subdifferential of Phi at v, per entry."""
    a, t = pot.alpha, pot.threshold
    if pot.kind == "quadratic":
        return np.abs(g - a * v)
    if pot.kind == "l1":
        return np.where(v == 0.0, np.maximum(np.abs(g) - a, 0.0),
                        np.abs(g - a * np.sign(v)))
    if pot.kind == "huber":
        return np.abs(g - a * np.clip(v, -t, t))
    return np.abs(g - a * v / (1.0 + np.abs(v) / t))


@PROPERTY
@given(prox_cases())
def test_shrinkage_and_prox_sum_to_z(case):
    pot, eta, z = case
    total = shrinkage(pot, z, eta) + prox_array(pot, z, eta)
    assert np.all(np.abs(total - z) <= 4 * np.spacing(np.abs(z)))


@PROPERTY
@given(prox_cases())
def test_prox_satisfies_optimality_condition(case):
    # eta (z - v) lies in the subdifferential of Phi at v = prox(z)
    pot, eta, z = case
    v = prox_array(pot, z, eta)
    gap = subgradient_gap(pot, v, eta * (z - v))
    scale = eta * np.abs(z) + pot.alpha * (pot.threshold or 1.0)
    assert np.all(gap <= 1e-12 * scale)


@PROPERTY
@given(positive, positive, entries)
def test_huber_value_matches_piecewise_formula(a, t, v):
    v = np.array(v + [t, -t, np.nextafter(t, np.inf)])
    av = np.abs(v)
    want = a * np.sum(np.where(av <= t, 0.5 * v * v, t * av - 0.5 * t * t))
    got = potential_value_array(Potential.huber(a, t), v)
    assert abs(got - want) <= 1e-14 * want
