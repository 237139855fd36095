"""Winner-set comparison: means, dominance notions, axiom closures."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ivote import (
    ComparatorMode,
    ConfigurationError,
    Game,
    OutcomeComparator,
    PluralityForm,
    PreferenceOrder,
    SetComparison,
    TieBreak,
    UtilityVector,
    adversarial_utility,
    axiom_closure,
    compare,
    default_names,
    eu_compare,
    expected_utility,
    k_compare,
    ld_compare,
    match_dominates,
    sd_compare,
    single_vote_adjacent,
)

SB = SetComparison.STRICTLY_BETTER
EQ = SetComparison.EQUAL
SW = SetComparison.STRICTLY_WORSE
IC = SetComparison.INCOMPARABLE


def subsets(m, min_size=1):
    universe = range(m)
    for r in range(min_size, m + 1):
        for combo in itertools.combinations(universe, r):
            yield frozenset(combo)


def all_orders(m):
    return [PreferenceOrder(p) for p in itertools.permutations(range(m))]


def consistent_utilities(order, rng, spread=100):
    values = sorted(rng.sample(range(1, spread * order.m), order.m), reverse=True)
    out = [0] * order.m
    for pos, c in enumerate(order.ranking):
        out[c] = values[pos]
    return UtilityVector(out)


# --- expected utility


def test_expected_utility_is_an_exact_mean():
    u = UtilityVector((5, 3, 2, 8, 0))
    assert expected_utility(u, {0, 1, 2}) == Fraction(10, 3)
    assert expected_utility(u, {3}) == 8
    with pytest.raises(ConfigurationError):
        expected_utility(u, set())


def test_eu_compare_matches_mean_comparison():
    u = UtilityVector((5, 3, 2, 8, 0))
    assert eu_compare(u, {3}, {0, 1}) is SB
    assert eu_compare(u, {0, 1}, {3}) is SW
    # mean of {1} is 3, mean of the complement is 15/4
    assert eu_compare(u, {1}, {0, 4, 2, 3}) is SW
    assert expected_utility(u, {0, 4, 2, 3}) == Fraction(15, 4)


def test_eu_equal_on_equal_means():
    u = UtilityVector((4, 2, 0))
    assert eu_compare(u, {1}, {0, 2}) is EQ
    assert eu_compare(u, {1}, {1}) is EQ


@given(st.integers(2, 5), st.data())
def test_eu_compare_agrees_with_fraction_means(m, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    order = PreferenceOrder(rng.sample(range(m), m))
    u = consistent_utilities(order, rng)
    X = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    Y = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    got = eu_compare(u, X, Y)
    ex, ey = expected_utility(u, X), expected_utility(u, Y)
    want = SB if ex > ey else SW if ex < ey else EQ
    assert got is want


# --- stochastic dominance


def test_sd_known_verdicts():
    order = PreferenceOrder((0, 1, 2, 3))  # a > b > c > d
    assert sd_compare(order, {0}, {1}) is SB
    assert sd_compare(order, {0, 1}, {2, 3}) is SB
    assert sd_compare(order, {0, 3}, {1, 2}) is IC
    assert sd_compare(order, {0, 1}, {0, 1}) is EQ
    assert sd_compare(order, {0, 1}, {0, 1, 2}) is SB
    assert sd_compare(order, {1, 2}, {0, 1}) is SW


def test_sd_subset_with_shared_top_is_better():
    order = PreferenceOrder((0, 1, 2))
    assert sd_compare(order, {0}, {0, 1}) is SB
    assert sd_compare(order, {0, 1}, {1}) is SB


@settings(max_examples=200)
@given(st.integers(2, 5), st.data())
def test_sd_strictly_better_implies_eu_better_for_all_consistent_utilities(
    m, data
):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    order = PreferenceOrder(rng.sample(range(m), m))
    X = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    Y = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    if sd_compare(order, X, Y) is not SB:
        return
    for _ in range(20):
        u = consistent_utilities(order, rng)
        assert eu_compare(u, X, Y) is SB


def test_sd_incomparable_pairs_are_refuted_by_adversarial_utility():
    # for every non-dominating pair some weakly consistent 0/1 utility
    # prefers Y in expectation
    m = 4
    for order in all_orders(m):
        for X in subsets(m):
            for Y in subsets(m):
                if sd_compare(order, X, Y) in (SB, EQ):
                    continue
                u = adversarial_utility(order, X, Y)
                assert set(u) <= {0, 1}
                # weak consistency: indicator of an upward-closed set
                ones = {c for c in range(m) if u[c] == 1}
                for c in ones:
                    for d in range(m):
                        if order.prefers(d, c):
                            assert d in ones
                ex = sum(u[c] for c in X) * len(Y)
                ey = sum(u[c] for c in Y) * len(X)
                assert ey > ex


# --- the matching characterization of dominance


def test_match_agrees_with_sd_on_adjacent_pairs_small_m():
    for m in (2, 3, 4):
        for order in all_orders(m):
            for X in subsets(m):
                for Y in subsets(m):
                    if X == Y or not single_vote_adjacent(X, Y):
                        continue
                    want = sd_compare(order, X, Y) is SB
                    assert match_dominates(order, X, Y) == want, (
                        order.ranking,
                        sorted(X),
                        sorted(Y),
                    )


def test_match_can_disagree_with_closure_beyond_adjacency():
    # two interleaved pairs: matching (and dominance) hold, the KGR closure
    # does not derive the pair, and no single vote change produces it
    order = PreferenceOrder((0, 1, 2, 3, 4, 5))
    X, Y = frozenset({0, 3}), frozenset({1, 2, 4, 5})
    assert match_dominates(order, X, Y)
    assert sd_compare(order, X, Y) is SB
    assert not single_vote_adjacent(X, Y)
    closure = axiom_closure(order, "KGR")
    assert not closure.holds(X, Y)


def test_match_handles_larger_x_by_reversal():
    order = PreferenceOrder((0, 1, 2))
    # |X| > |Y|: {a,b} vs {c}
    assert match_dominates(order, {0, 1}, {2})
    assert not match_dominates(order, {1, 2}, {0})
    assert not match_dominates(order, {0, 1}, {0, 1})


# --- local dominance


def ld_compare_by_orders(order, X, Y):
    """Brute-force oracle for local dominance.

    Enumerates every strict order L over the candidates, resolves each set to
    its L-first member, and requires the X resolution to be weakly preferred
    in every case and strictly somewhere. Exponential; only sensible for
    small m.
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return EQ
    rank = order.rank

    def dominates(A, B):
        strict = False
        for perm in itertools.permutations(range(order.m)):
            a = next(c for c in perm if c in A)
            b = next(c for c in perm if c in B)
            if rank[a] > rank[b]:
                return False
            if rank[a] < rank[b]:
                strict = True
        return strict

    if dominates(X, Y):
        return SB
    if dominates(Y, X):
        return SW
    return IC


def test_ld_matches_brute_force_oracle_exhaustively_m3():
    for order in all_orders(3):
        for X in subsets(3):
            for Y in subsets(3):
                assert ld_compare(order, X, Y) is ld_compare_by_orders(
                    order, X, Y
                ), (order.ranking, sorted(X), sorted(Y))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ld_matches_brute_force_oracle_sampled_m4(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    order = PreferenceOrder(rng.sample(range(4), 4))
    X = data.draw(st.sets(st.integers(0, 3), min_size=1).map(frozenset))
    Y = data.draw(st.sets(st.integers(0, 3), min_size=1).map(frozenset))
    assert ld_compare(order, X, Y) is ld_compare_by_orders(order, X, Y)


def test_ld_strictly_better_implies_sd_strictly_better():
    for order in all_orders(4):
        for X in subsets(4):
            for Y in subsets(4):
                if ld_compare(order, X, Y) is SB:
                    assert sd_compare(order, X, Y) is SB


def test_ld_known_verdicts():
    order = PreferenceOrder((0, 1, 2))
    assert ld_compare(order, {0}, {1, 2}) is SB
    assert ld_compare(order, {0, 1}, {1, 2}) is SB
    # {a,c} vs {b}: c loses to b under some tie-breaking orders
    assert ld_compare(order, {0, 2}, {1}) is IC


# --- k-only comparison


def test_k_compare_requires_full_separation():
    order = PreferenceOrder((0, 1, 2, 3))
    assert k_compare(order, {0, 1}, {2, 3}) is SB
    assert k_compare(order, {0, 2}, {1, 3}) is IC
    assert k_compare(order, {2, 3}, {0, 1}) is SW
    assert k_compare(order, {1}, {1}) is EQ


# --- axiom closures


def test_kgr_closure_equals_sd_on_adjacent_pairs():
    for m in (2, 3, 4):
        for order in all_orders(m):
            closure = axiom_closure(order, "KGR")
            for X in subsets(m):
                for Y in subsets(m):
                    if X == Y or not single_vote_adjacent(X, Y):
                        continue
                    assert closure.holds(X, Y) == (
                        sd_compare(order, X, Y) is SB
                    ), (order.ranking, sorted(X), sorted(Y))


def test_kg_closure_equals_ld_on_adjacent_pairs():
    for m in (2, 3, 4):
        for order in all_orders(m):
            closure = axiom_closure(order, "KG")
            for X in subsets(m):
                for Y in subsets(m):
                    if X == Y or not single_vote_adjacent(X, Y):
                        continue
                    assert closure.holds(X, Y) == (
                        ld_compare(order, X, Y) is SB
                    ), (order.ranking, sorted(X), sorted(Y))


def test_closures_never_exceed_dominance_anywhere():
    for order in all_orders(4):
        kgr = axiom_closure(order, "KGR")
        kg = axiom_closure(order, "KG")
        for X, Y in kgr.pairs():
            assert sd_compare(order, X, Y) is SB
        for X, Y in kg.pairs():
            assert ld_compare(order, X, Y) is SB


def test_closure_monotone_in_axioms():
    order = PreferenceOrder((0, 2, 1, 3))
    k = set(axiom_closure(order, "K").pairs())
    kg = set(axiom_closure(order, "KG").pairs())
    kgr = set(axiom_closure(order, "KGR").pairs())
    assert k <= kg <= kgr
    assert k < kgr


def test_closure_rejects_unknown_axioms():
    with pytest.raises(ConfigurationError):
        axiom_closure(PreferenceOrder((0, 1)), "KQ")


# --- adjacency


def test_single_vote_adjacency_cases():
    assert single_vote_adjacent({0}, {1, 2, 3})  # singleton side
    assert single_vote_adjacent({0, 1}, {0, 2})  # swap one
    assert single_vote_adjacent({0, 1}, {0, 1, 2})  # add one
    assert single_vote_adjacent({0, 1, 2}, {0, 1})  # drop one
    assert not single_vote_adjacent({0, 1}, {2, 3})
    assert not single_vote_adjacent({0, 3}, {1, 2, 4, 5})


# --- consistency of sd with sampled utilities


@settings(max_examples=150)
@given(st.integers(2, 5), st.data())
def test_consistent_utilities_never_contradict_dominance(m, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    order = PreferenceOrder(rng.sample(range(m), m))
    u = consistent_utilities(order, rng)
    X = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    Y = data.draw(st.sets(st.integers(0, m - 1), min_size=1).map(frozenset))
    verdict = sd_compare(order, X, Y)
    if verdict is SB:
        assert eu_compare(u, X, Y) is SB
    elif verdict is EQ:
        assert eu_compare(u, X, Y) is EQ


# --- one-shot dispatch and the per-game comparator


def test_compare_dispch_requires_inputs():
    order = PreferenceOrder((0, 1))
    u = UtilityVector((2, 1))
    assert compare(ComparatorMode.LEX_SINGLETON, {0}, {1}, order=order) is SB
    with pytest.raises(ConfigurationError):
        compare(ComparatorMode.LEX_SINGLETON, {0, 1}, {1}, order=order)
    with pytest.raises(ConfigurationError):
        compare(ComparatorMode.EXPECTED_UTILITY, {0}, {1}, order=order)
    with pytest.raises(ConfigurationError):
        compare(ComparatorMode.STOCHASTIC_DOMINANCE, {0}, {1}, utility=u)
    assert compare(ComparatorMode.EXPECTED_UTILITY, {0}, {1}, utility=u) is SB


def lex_game():
    form = PluralityForm(default_names(3), (1, 1), (1, 0, 0))
    prefs = (PreferenceOrder((0, 1, 2)), PreferenceOrder((2, 1, 0)))
    return Game(form, prefs)


def random_tie_game():
    form = PluralityForm(default_names(3), (1, 1), (1, 0, 0), TieBreak.RANDOMIZED)
    prefs = (PreferenceOrder((0, 1, 2)), PreferenceOrder((2, 1, 0)))
    return Game(form, prefs)


def test_outcome_comparator_validates_mode_eagerly():
    with pytest.raises(ConfigurationError):
        OutcomeComparator(random_tie_game(), ComparatorMode.LEX_SINGLETON)
    with pytest.raises(ConfigurationError):
        OutcomeComparator(random_tie_game(), ComparatorMode.EXPECTED_UTILITY)
    OutcomeComparator(random_tie_game(), ComparatorMode.STOCHASTIC_DOMINANCE)
    OutcomeComparator(lex_game(), ComparatorMode.LEX_SINGLETON)


def test_outcome_comparator_is_flip_coherent():
    comp = OutcomeComparator(random_tie_game(), ComparatorMode.STOCHASTIC_DOMINANCE)
    sets = list(subsets(3))
    for X in sets:
        for Y in sets:
            assert comp.compare(0, X, Y) is comp.compare(0, Y, X).flipped()
            assert comp.compare(1, X, Y) is compare(
                ComparatorMode.STOCHASTIC_DOMINANCE,
                X,
                Y,
                order=random_tie_game().prefs[1],
            )


def test_outcome_comparator_agrees_with_compare():
    # every mode, voter and ordered pair of winner sets at m=3, asked twice
    prefs = tuple(map(PreferenceOrder, ((0, 1, 2), (2, 0, 1), (1, 2, 0))))
    utilities = tuple(map(UtilityVector, ((5, 3, 0), (1, 0, 4), (1, 7, 4))))
    names = default_names(3)
    for mode in ComparatorMode:
        lex = mode is ComparatorMode.LEX_SINGLETON
        tiebreak = TieBreak.LEXICOGRAPHIC if lex else TieBreak.RANDOMIZED
        game = Game(PluralityForm(names, (1, 1, 1), (0, 0, 0), tiebreak), prefs, utilities)
        comp = OutcomeComparator(game, mode)
        sets = [s for s in subsets(3) if len(s) == 1 or not lex]
        for _ in range(2):
            for v in range(3):
                for X in sets:
                    for Y in sets:
                        assert comp.compare(v, X, Y) is compare(
                            mode, X, Y, prefs[v], utilities[v]
                        ), (mode, v, X, Y)


def test_outcome_comparator_improvement():
    comp = OutcomeComparator(lex_game(), ComparatorMode.LEX_SINGLETON)
    assert comp.is_improvement(0, {1}, {0})  # voter 1: a preferred to b
    assert not comp.is_improvement(0, {0}, {0})
    assert not comp.is_improvement(1, {1}, {0})
