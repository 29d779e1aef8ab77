import math

import pytest

from primeavoid.numtheory import primes_upto
from primeavoid.sievebound import (
    brun_bound_terms,
    brun_main_factor,
    double_residue_rules,
    empirical_sifted_count,
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


@pytest.mark.parametrize("lam", [0.1, 0.15, 0.2])
@pytest.mark.parametrize("b", [1, 2])
def test_bound_dominates_count_on_grid(lam, b):
    x, z, size = 1000.0, math.sqrt(1000), 10**4
    rules = double_residue_rules(1, x, z)
    bound = sum(brun_bound_terms(size, rules, z, lam=lam, b=b, kappa=2.0))
    count = empirical_sifted_count(size, rules, z)
    assert bound >= count


def test_bound_with_no_sifting():
    main, err = brun_bound_terms(1000, {}, 10.0, kappa=1.0, lam=0.2, b=1)
    assert main >= 1000  # W(z) = 1, positive correction
    assert math.isfinite(err) and err > 0


def test_bound_small_z_blowup_is_finite():
    main, _ = brun_bound_terms(10, {}, math.e, kappa=1.0, lam=0.2, b=1)
    # correction factor ~ f * e^25: enormous but finite
    assert math.isfinite(main) and main > 10


def test_bound_rejects_heavy_omega():
    with pytest.raises(ValueError, match="omega"):
        brun_bound_terms(100, {3: {0, 1, 2}}, 10.0, kappa=1.0, lam=0.2, b=1)


def test_bound_ignores_rules_at_or_above_z():
    # omega(11)/11 would violate the cap, but 11 does not sift below z = 10
    main, _ = brun_bound_terms(100, {2: {0}, 11: set(range(11))}, 10.0,
                               kappa=1.0, lam=0.2, b=1)
    assert main == pytest.approx(100 * 0.5 * (1 + brun_main_factor(0.2, 1)
                                              * math.exp(5 / (0.2 * math.log(10)))))


def test_bound_rejects_bad_lambda():
    with pytest.raises(ValueError, match="inadmissible"):
        brun_bound_terms(100, {}, 10.0, kappa=1.0, lam=0.5, b=1)


@pytest.mark.parametrize(
    "params",
    [dict(kappa=0.0, b=1), dict(kappa=1.0, a2=0.5, b=1), dict(kappa=1.0, b=0)],
    ids=["kappa", "a2", "b"],
)
def test_bound_checks_kappa_a2_and_b_before_lambda(params):
    # one message for the three, ahead of an inadmissible lambda
    with pytest.raises(ValueError, match="need kappa > 0, A2 >= 1, b >= 1"):
        brun_bound_terms(100, {}, 10.0, lam=0.5, **params)


def test_bound_rejects_negative_size():
    with pytest.raises(ValueError, match="size"):
        brun_bound_terms(-1, {}, 10.0, kappa=1.0, lam=0.2, b=1)


def test_bound_weighted_sum_condition():
    # omega == kappa-consistent instance passes; absurd kappa fails
    rules = double_residue_rules(1, 1000.0, 31.0)
    brun_bound_terms(10**4, rules, 31.0, lam=0.2, b=1, kappa=2.0)
    with pytest.raises(ValueError, match="weighted"):
        brun_bound_terms(10**4, rules, 31.0, lam=0.2, b=1, kappa=0.01, a2=1.0)


# -- k-th power root counts ----------------------------------------------------


def test_rho_bounded_by_gcd():
    for p in primes_upto(60):
        for k in range(1, 7):
            for v in range(-3, 4):
                rho = sum(1 for n in range(p) if (pow(n, k, p) + v - 1) % p == 0)
                assert rho <= math.gcd(k, p - 1) or (1 - v) % p == 0


def test_double_residue_rules_shape():
    # log 1000 ~ 6.9: {0} on 2, 3 and 5; {0, 1 - 2^k} on 7 and 11 <= z
    rules = double_residue_rules(1, 1000.0, 12.0)
    assert list(rules) == [2, 3, 5, 7, 11]
    assert rules[2] == rules[3] == rules[5] == {0}
    assert rules[7] == {0, (1 - 2) % 7} == {0, 6}
    assert rules[11] == {0, 10}
    assert double_residue_rules(2, 1000.0, 11.0)[11] == {0, (1 - 4) % 11}
    # z bounds the table, not x; log 20 ~ 3.0 puts 3 in the second group,
    # and 1 - 2^3 = -7 leaves 7 one class
    assert double_residue_rules(3, 20.0, 7.0) == {2: {0}, 3: {0, 2}, 5: {0, 3}, 7: {0}}
