import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopexact import (
    NonTerminatingSeriesError,
    PoleError,
    PreconditionError,
    check_chu_vandermonde,
    check_karp_prilepkina,
    check_kummer,
    check_rakha_rathie,
    kdf,
    pfq,
)
from mopexact.hyper import (
    draw_chu_vandermonde,
    draw_karp_prilepkina,
    draw_kummer,
    draw_rakha_rathie,
)
from conftest import series_term

rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))


class TestEvalPfq:
    def test_two_term_sum(self):
        # 2F1(-1, b; c; 1) = 1 - b/c
        assert pfq((-1, Fraction(1, 2)), (Fraction(1, 3),), 1) == Fraction(-1, 2)

    def test_zero_parameter_kills_tail(self):
        assert pfq((0, Fraction(9, 2), Fraction(-7, 3)), (Fraction(1, 5),), Fraction(4, 3)) == 1

    def test_binomial(self):
        assert pfq((-3,), (), Fraction(1, 2)) == Fraction(1, 8)

    def test_non_terminating(self):
        with pytest.raises(NonTerminatingSeriesError):
            pfq((Fraction(1, 2),), (Fraction(1, 3),), 1)

    def test_denominator_pole_is_hard_error(self):
        with pytest.raises(PoleError):
            pfq((-4, Fraction(1, 2)), (-2,), 1)

    def test_pole_outside_range_is_fine(self):
        # denominator -5 first vanishes at term 6, beyond the cutoff at 3
        value = pfq((-3, Fraction(1, 2)), (Fraction(-5),), 1)
        assert isinstance(value, Fraction)

    @given(num=st.lists(rationals, min_size=0, max_size=3),
           den=st.lists(rationals.filter(lambda d: d > 0), min_size=0, max_size=3),
           order=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_argument_zero_gives_one(self, num, den, order):
        assert pfq(tuple(num) + (-order,), tuple(den), 0) == 1

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_parameter_permutation_invariance(self, data):
        num = data.draw(st.lists(rationals, min_size=1, max_size=3))
        den = data.draw(st.lists(rationals.filter(lambda d: d > 0), min_size=1, max_size=3))
        order = data.draw(st.integers(0, 6))
        x = data.draw(rationals)
        num = num + [Fraction(-order)]
        shuffled_num = data.draw(st.permutations(num))
        shuffled_den = data.draw(st.permutations(den))
        assert pfq(num, den, x) == pfq(shuffled_num, shuffled_den, x)

    def test_series_term_matches_eval(self):
        num, den, x = (-4, Fraction(1, 2)), (Fraction(1, 3),), Fraction(2, 7)
        total = sum(series_term(num, den, x, k) for k in range(5))
        assert total == pfq(num, den, x)


class TestEvalKdf:
    def test_all_empty_at_origin(self):
        # only the (l, m) = (0, 0) term survives
        assert kdf((), (), (), (), (), (), 0, 0) == 1

    def test_non_terminating(self):
        with pytest.raises(NonTerminatingSeriesError):
            kdf((Fraction(1, 2),), (), (), (), (), (), 1, 1)

    def test_zero_on_both_sides(self):
        assert kdf((Fraction(5, 2),), (0,), (0,), (Fraction(1, 2),), (), (), 1, 1) == 1

    def test_degenerates_to_pfq(self):
        # empty joint and right groups with y = 0 leave a single pFq in x
        num = (-5, Fraction(2, 3))
        den = (Fraction(7, 5),)
        assert kdf((), num, (), (), den, (), Fraction(3, 4), 0) == pfq(num, den, Fraction(3, 4))

    def test_joint_termination_bounds_both_indices(self):
        value = kdf((-2, Fraction(1, 2)), (), (), (Fraction(4, 3),), (), (), 1, 1)
        assert isinstance(value, Fraction)


class TestChuVandermonde:
    def test_integers(self):
        assert check_chu_vandermonde(1, 1, 2)

    def test_order_zero(self):
        assert check_chu_vandermonde(Fraction(-5, 7), Fraction(2, 9), 0)

    def test_rationals(self):
        assert check_chu_vandermonde(Fraction(1, 2), Fraction(1, 3), 4)

    @given(a=rationals, b=rationals, n=st.integers(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_always_holds(self, a, b, n):
        assert check_chu_vandermonde(a, b, n)


class TestKummer:
    def test_zero_order(self):
        assert check_kummer(0, Fraction(1, 2), Fraction(1, 3), Fraction(5, 4), Fraction(7, 3))

    def test_order_one(self):
        assert check_kummer(-1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 4), Fraction(7, 3))

    def test_order_two(self):
        assert check_kummer(-2, Fraction(1, 5), Fraction(2, 5), Fraction(3, 2), Fraction(9, 2))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_kummer(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(5, 4), Fraction(7, 3))


class TestRakhaRathie:
    def test_zero_order(self):
        assert check_rakha_rathie(0, Fraction(1, 2), Fraction(1, 3), Fraction(5, 4),
                                  Fraction(1, 5), Fraction(7, 2), Fraction(9, 4))

    def test_order_one(self):
        assert check_rakha_rathie(-1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 4),
                                  Fraction(1, 5), Fraction(7, 2), Fraction(9, 4))

    def test_negative_integer_second_parameter(self):
        assert check_rakha_rathie(-2, -1, Fraction(1, 7), Fraction(8, 3),
                                  Fraction(2, 7), Fraction(11, 2), Fraction(13, 4))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_rakha_rathie(Fraction(1, 3), 1, 1, 1, 1, 1, 1)


class TestKarpPrilepkina:
    def test_trivial(self):
        # no f parameters, one b, order zero: both sides are 1
        assert check_karp_prilepkina(0, [], [], [Fraction(1, 2)], [1])

    def test_order_one(self):
        assert check_karp_prilepkina(-1, [Fraction(5, 2)], [1], [Fraction(1, 2), Fraction(1, 3)], [1, 2])

    def test_deeper_instance(self):
        assert check_karp_prilepkina(-2, [Fraction(7, 5), Fraction(9, 7)], [1, 2],
                                     [Fraction(1, 2), Fraction(1, 3)], [2, 3])

    def test_empty_b_is_vanishing_sum(self):
        # with no b parameters the right side is the empty sum: the series vanishes
        assert check_karp_prilepkina(-4, [Fraction(5, 2), Fraction(7, 3)], [1, 2], [], [])
        assert pfq((-4, Fraction(7, 2), Fraction(13, 3)), (Fraction(5, 2), Fraction(7, 3)), 1) == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_karp_prilepkina(Fraction(1, 2), [], [], [Fraction(1, 2)], [1])
        with pytest.raises(PreconditionError):
            check_karp_prilepkina(-1, [], [], [Fraction(1, 2), Fraction(1, 2)], [1, 1])
        with pytest.raises(PreconditionError):
            # sum(k) - a - sum(m) = 0 violates the hypothesis
            check_karp_prilepkina(-1, [Fraction(5, 4)], [2], [Fraction(1, 2)], [1])

    def test_orthogonality_row_instantiation(self):
        # two weights, unit degrees, lowest row: the parameter identification
        # used to recombine the Hahn summation rows (zero offsets degenerate)
        a1, a2, beta, N = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 3
        assert check_karp_prilepkina(
            0,
            [a1 + beta + N + 2, a1 + beta + 2],
            [0, 0],
            [a1 - a2 - 1 + 1],
            [1],
        )


class TestExternalNumericOracle:
    """Spot checks against mpmath's independent hypergeometric evaluation."""

    def _as_mpf(self, q):
        import mpmath
        q = Fraction(q)
        return mpmath.mpf(q.numerator) / q.denominator

    def test_pfq_matches_mpmath(self):
        import mpmath
        cases = [
            ((-4, Fraction(1, 2), Fraction(7, 3)), (Fraction(1, 5), Fraction(9, 4)), Fraction(2, 3)),
            ((-6, Fraction(3, 2)), (Fraction(1, 7),), Fraction(-5, 4)),
            ((-3, Fraction(1, 2), Fraction(1, 3), Fraction(8, 5)),
             (Fraction(2, 7), Fraction(11, 3), Fraction(5, 2)), Fraction(1)),
        ]
        with mpmath.workdps(30):
            for num, den, x in cases:
                mine = pfq(num, den, x)
                reference = mpmath.hyper(
                    [self._as_mpf(a) for a in num], [self._as_mpf(d) for d in den], self._as_mpf(x)
                )
                assert abs(self._as_mpf(mine) - reference) < mpmath.mpf(10) ** -25

    def test_kummer_sides_match_mpmath_directly(self):
        import mpmath
        with mpmath.workdps(30):
            a1, a2, a3 = -2, self._as_mpf(Fraction(1, 5)), self._as_mpf(Fraction(2, 5))
            b1, b2 = self._as_mpf(Fraction(3, 2)), self._as_mpf(Fraction(9, 2))
            lhs = mpmath.hyper([a1, a2, a3], [b1, b2], 1)
            prefactor = (mpmath.gamma(b2) * mpmath.gamma(b1 + b2 - a1 - a2 - a3)
                         / (mpmath.gamma(b2 - a1) * mpmath.gamma(b1 + b2 - a2 - a3)))
            rhs = prefactor * mpmath.hyper([a1, b1 - a2, b1 - a3], [b1, b1 + b2 - a2 - a3], 1)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -25
        assert check_kummer(-2, Fraction(1, 5), Fraction(2, 5), Fraction(3, 2), Fraction(9, 2))


def test_five_hundred_random_draws_all_pass():
    rng = random.Random(20240917)
    checks = (
        (draw_kummer, check_kummer),
        (draw_rakha_rathie, check_rakha_rathie),
        (draw_karp_prilepkina, lambda a, f, m, b, k: check_karp_prilepkina(a, f, m, b, k)),
    )
    for trial in range(500):
        draw, check = checks[trial % 3]
        params = draw(rng)
        assert check(*params), (trial, params)


def test_chu_vandermonde_sampler_draws():
    rng = random.Random(77)
    for _ in range(100):
        assert check_chu_vandermonde(*draw_chu_vandermonde(rng))
