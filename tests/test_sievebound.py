import math

import pytest

from primeavoid.numtheory import primes_upto
from primeavoid.sievebound import (
    SieveInstance,
    brun_bound_terms,
    brun_main_factor,
    double_residue_rules,
    empirical_sifted_count,
    instance_for_rules,
)


# -- independent oracle: per-element scan, no bytearray tricks ------------


def slow_sifted_count(range_size, rules, z):
    count = 0
    for n in range(1, range_size + 1):
        if all(n % p not in rs for p, rs in rules.items() if p < z):
            count += 1
    return count


# -- main factor -----------------------------------------------------------


def test_main_factor_frozen_values():
    assert brun_main_factor(0.2, 1) == pytest.approx(0.0426942, abs=1e-6)
    assert brun_main_factor(0.1, 1) == pytest.approx(0.0026851, abs=1e-6)


def test_main_factor_formula_shape():
    lam, b = 0.15, 2
    expected = 2 * lam**5 * math.exp(0.3) / (1 - lam**2 * math.exp(2.3))
    assert brun_main_factor(lam, b) == pytest.approx(expected, rel=1e-12)


def test_main_factor_rejects_inadmissible_lambda():
    # lam * e^(1+lam) = 1 near lam ~ 0.2785; anything at or above is out
    with pytest.raises(ValueError):
        brun_main_factor(0.3, 1)
    with pytest.raises(ValueError):
        brun_main_factor(0.0, 1)
    with pytest.raises(ValueError):
        brun_main_factor(-0.1, 1)


# -- empirical counter -------------------------------------------------------


def test_sifted_count_examples():
    assert empirical_sifted_count(10, {2: {0}}, 3) == 5
    assert empirical_sifted_count(100, {2: {0}, 3: {0}}, 5) == 33
    assert empirical_sifted_count(1000, {}, 10) == 1000


def test_sifted_count_inclusion_exclusion():
    # |coprime to 2,3| = 100 - 50 - 33 + 16
    assert empirical_sifted_count(100, {2: {0}, 3: {0}}, 5) == 100 - 50 - 33 + 16


def test_sifted_count_ignores_rules_at_or_above_z():
    rules = {2: {0}, 7: {0}}
    assert empirical_sifted_count(50, rules, 7) == 25  # 7-rule inactive
    assert empirical_sifted_count(50, rules, 7.5) == slow_sifted_count(50, rules, 7.5)


def test_sifted_count_matches_slow_oracle():
    rules = {2: {0}, 3: {0, 1}, 5: {2}, 11: {0, 3, 7}}
    for size in (1, 17, 100, 1234):
        for z in (2, 4, 6, 12):
            assert empirical_sifted_count(size, rules, z) == slow_sifted_count(
                size, rules, z
            )


def test_sifted_count_range_guard():
    with pytest.raises(ValueError):
        empirical_sifted_count(10**7 + 1, {}, 2)


# -- upper bound vs exact count ----------------------------------------------


def lemma_style_rules(x, z, k=1):
    log_x = math.log(x)
    primes = primes_upto(math.floor(x))
    small = [p for p in primes if p <= log_x]
    mid = [p for p in primes if log_x < p <= z]
    return double_residue_rules(k, small, mid)


@pytest.mark.parametrize("lam", [0.1, 0.15, 0.2])
@pytest.mark.parametrize("b", [1, 2])
def test_bound_dominates_count_on_grid(lam, b):
    x, z, size = 1000.0, math.sqrt(1000), 10**4
    rules = lemma_style_rules(x, z)
    inst = instance_for_rules(size, rules, z, lam=lam, b=b, kappa=2.0)
    bound = sum(brun_bound_terms(inst))
    count = empirical_sifted_count(size, rules, z)
    assert bound >= count


def test_bound_with_no_sifting():
    inst = SieveInstance(size=1000, omega={}, z=10.0, kappa=1.0, lam=0.2, b=1)
    main, err = brun_bound_terms(inst)
    assert main >= 1000  # W(z) = 1, positive correction
    assert math.isfinite(err) and err > 0


def test_bound_small_z_blowup_is_finite():
    inst = SieveInstance(size=10, omega={}, z=math.e, kappa=1.0, lam=0.2, b=1)
    main, _ = brun_bound_terms(inst)
    # correction factor ~ f * e^25: enormous but finite
    assert math.isfinite(main) and main > 10


def test_instance_validation_rejects_heavy_omega():
    inst = SieveInstance(size=100, omega={3: 3}, z=10.0, kappa=1.0, lam=0.2, b=1)
    with pytest.raises(ValueError, match="omega"):
        inst.validate()


def test_instance_validation_rejects_bad_lambda():
    inst = SieveInstance(size=100, omega={}, z=10.0, kappa=1.0, lam=0.5, b=1)
    with pytest.raises(ValueError, match="inadmissible"):
        inst.validate()


def test_instance_weighted_sum_condition():
    # omega == kappa-consistent instance passes; absurd kappa fails
    rules = lemma_style_rules(1000.0, 31.0)
    inst = instance_for_rules(10**4, rules, 31.0, lam=0.2, b=1, kappa=2.0)
    inst.validate()
    tight = instance_for_rules(10**4, rules, 31.0, lam=0.2, b=1, kappa=0.01, a2=1.0)
    with pytest.raises(ValueError, match="weighted"):
        tight.validate()


# -- k-th power root counts ----------------------------------------------------


def test_rho_bounded_by_gcd():
    for p in primes_upto(60):
        for k in range(1, 7):
            for v in range(-3, 4):
                rho = sum(1 for n in range(p) if (pow(n, k, p) + v - 1) % p == 0)
                assert rho <= math.gcd(k, p - 1) or (1 - v) % p == 0


def test_double_residue_rules_shape():
    rules = double_residue_rules(1, [2, 3], [7, 11])
    assert rules[2] == {0} and rules[3] == {0}
    assert rules[7] == {0, (1 - 2) % 7} == {0, 6}
    assert rules[11] == {0, 10}
