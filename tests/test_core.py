"""Forms, games, preferences, utilities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ivote import (
    Game,
    GameSpecError,
    PluralityForm,
    PreferenceOrder,
    TabularForm,
    TieBreak,
    UnsupportedOperationError,
    UtilityVector,
    default_names,
    format_candidate_set,
    format_profile,
    random_consistent_utilities,
)
from ivote.core import outcome, score_vector, tabular_outcome


def lex_form(m=3, n=2, scores=None, weights=None):
    return PluralityForm(
        default_names(m),
        weights or (1,) * n,
        scores,
        TieBreak.LEXICOGRAPHIC,
    )


# --- preference orders


def test_order_rejects_non_permutations():
    with pytest.raises(GameSpecError):
        PreferenceOrder((0, 0, 1))
    with pytest.raises(GameSpecError):
        PreferenceOrder((1, 2, 3))


def test_order_prefers_and_top():
    order = PreferenceOrder((2, 0, 1))  # c > a > b
    assert order.prefers(2, 0) and order.prefers(0, 1)
    assert not order.prefers(1, 1)
    assert order.weakly_prefers(1, 1)
    assert order.top((0, 1, 2)) == 2
    assert order.top((0, 1)) == 0
    assert order.rank == (1, 2, 0)


def test_order_top_requires_candidates():
    with pytest.raises(GameSpecError):
        PreferenceOrder((0, 1)).top(())


def test_order_is_immutable_and_hashable():
    order = PreferenceOrder((0, 1, 2))
    with pytest.raises(AttributeError):
        order.ranking = (1, 0, 2)
    assert order == PreferenceOrder((0, 1, 2))
    assert hash(order) == hash(PreferenceOrder((0, 1, 2)))
    assert order != PreferenceOrder((1, 0, 2))


# --- utility vectors


def test_utilities_must_be_distinct():
    with pytest.raises(GameSpecError):
        UtilityVector((1, 1, 2))


def test_utilities_induce_descending_order():
    u = UtilityVector((5, 3, 2, 8, 0))
    assert u.induced_order() == PreferenceOrder((3, 0, 1, 2, 4))


def test_utilities_become_exact_rationals():
    u = UtilityVector((1.5, 2, 0.25))
    assert u.values == (Fraction(3, 2), 2, Fraction(1, 4))
    assert isinstance(u.values[1], int)
    # equal content, mixed input types
    assert u == UtilityVector((Fraction(3, 2), 2, Fraction(1, 4)))


# --- plurality forms


def test_plurality_lex_outcome_is_lowest_index_maximizer():
    form = lex_form(scores=(1, 0, 0))
    assert outcome(form, (1, 2)) == frozenset({0})  # 1,1,1 -> a
    assert outcome(form, (1, 1)) == frozenset({1})
    assert score_vector(form, (1, 1)) == (1, 2, 0)


def test_plurality_random_outcome_is_full_argmax():
    form = PluralityForm(("a", "b", "c"), (1, 1), (1, 0, 0), TieBreak.RANDOMIZED)
    assert outcome(form, (1, 2)) == frozenset({0, 1, 2})


def test_plurality_validates_weights_and_scores():
    with pytest.raises(GameSpecError):
        PluralityForm(("a", "b"), (0,))
    with pytest.raises(GameSpecError):
        PluralityForm(("a", "b"), (1,), (-1, 0))
    with pytest.raises(GameSpecError):
        PluralityForm(("a", "b"), (1,), (0, 0, 0))
    with pytest.raises(GameSpecError):
        PluralityForm(("a", "a"), (1,))
    with pytest.raises(GameSpecError):
        PluralityForm(("a", "*"), (1,))


def test_plurality_action_sets_restrict_profiles():
    form = PluralityForm(
        ("a", "b", "c"), (1, 1), action_sets=((0, 1), (1, 2))
    )
    assert form.actions(0) == (0, 1)
    form.validate_profile((0, 2))
    with pytest.raises(GameSpecError):
        form.validate_profile((2, 2))
    with pytest.raises(GameSpecError):
        form.validate_profile((0,))


def test_plurality_equality_normalizes_action_sets():
    full = PluralityForm(("a", "b"), (1, 1), action_sets=((0, 1), (1, 0)))
    assert full == PluralityForm(("a", "b"), (1, 1))
    assert hash(full) == hash(PluralityForm(("a", "b"), (1, 1)))


def test_form_is_immutable():
    form = lex_form()
    with pytest.raises(AttributeError):
        form.weights = (2, 2)


# --- tabular forms


def two_voter_table(overrides=None):
    table = {
        (0, 0): {0},
        (0, 1): {1},
        (1, 0): {1},
        (1, 1): {0, 1},
    }
    table.update(overrides or {})
    return table


def test_tabular_requires_total_table():
    with pytest.raises(GameSpecError):
        TabularForm(("a", "b"), (("x", "y"), ("x", "y")), {(0, 0): {0}})


def test_tabular_rejects_entries_outside_action_space():
    table = two_voter_table()
    table[(2, 0)] = {0}
    with pytest.raises(GameSpecError):
        TabularForm(("a", "b"), (("x", "y"), ("x", "y")), table)


def test_tabular_rejects_bad_outcomes():
    with pytest.raises(GameSpecError):
        TabularForm(
            ("a", "b"), (("x", "y"), ("x", "y")), two_voter_table({(0, 0): set()})
        )
    with pytest.raises(GameSpecError):
        TabularForm(
            ("a", "b"), (("x", "y"), ("x", "y")), two_voter_table({(0, 0): {7}})
        )


def test_tabular_outcome_and_singleton_flag():
    form = TabularForm(("a", "b"), (("x", "y"), ("x", "y")), two_voter_table())
    assert tabular_outcome(form, (1, 1)) == frozenset({0, 1})
    assert not form.deterministic
    sing = TabularForm(
        ("a", "b"), (("x", "y"), ("x", "y")), two_voter_table({(1, 1): {0}})
    )
    assert sing.deterministic


def test_tabular_action_candidate_maps_labels_to_candidates():
    form = TabularForm(("a", "b"), (("b", "z"), ("a", "b")), two_voter_table())
    assert form.action_candidate(0, 0) == 1  # label "b"
    assert form.action_candidate(0, 1) is None  # label "z" names no candidate
    assert form.action_candidate(1, 0) == 0
    assert form.action_name(0, 1) == "z"


def test_score_vector_is_plurality_only():
    form = TabularForm(("a", "b"), (("x", "y"), ("x", "y")), two_voter_table())
    with pytest.raises(UnsupportedOperationError):
        score_vector(form, (0, 0))
    with pytest.raises(UnsupportedOperationError):
        tabular_outcome(lex_form(), (0, 0))


# --- games


def test_game_validates_pref_arity():
    form = lex_form()
    with pytest.raises(GameSpecError):
        Game(form, (PreferenceOrder((0, 1, 2)),))
    with pytest.raises(GameSpecError):
        Game(form, (PreferenceOrder((0, 1)), PreferenceOrder((0, 1))))


def test_game_checks_utility_consistency():
    form = lex_form()
    prefs = (PreferenceOrder((0, 1, 2)), PreferenceOrder((2, 1, 0)))
    good = (UtilityVector((9, 5, 1)), UtilityVector((1, 5, 9)))
    Game(form, prefs, good)
    bad = (UtilityVector((9, 5, 1)), UtilityVector((9, 5, 1)))
    with pytest.raises(GameSpecError):
        Game(form, prefs, bad)


def test_truthful_profile_is_most_preferred_available_action():
    form = PluralityForm(
        ("a", "b", "c"), (1, 1), action_sets=((0, 1, 2), (1, 2))
    )
    prefs = (PreferenceOrder((2, 0, 1)), PreferenceOrder((0, 1, 2)))
    game = Game(form, prefs)
    # voter 2 cannot vote a, falls back to b
    assert game.truthful_profile() == (2, 1)


def test_truthful_profile_on_tabular_forms_uses_candidate_labels():
    form = TabularForm(("a", "b"), (("b", "z"), ("a", "b")), two_voter_table())
    game = Game(form, (PreferenceOrder((0, 1)), PreferenceOrder((1, 0))))
    # voter 1's only candidate-naming action is "b"
    assert game.truthful_profile() == (0, 1)


def test_truthful_profile_needs_a_candidate_action():
    form = TabularForm(("a", "b"), (("z", "w"), ("a", "b")), two_voter_table())
    game = Game(form, (PreferenceOrder((0, 1)), PreferenceOrder((1, 0))))
    with pytest.raises(GameSpecError):
        game.truthful_profile()


# --- helpers


def test_default_names_extends_past_the_alphabet():
    assert default_names(3) == ("a", "b", "c")
    names = default_names(28)
    assert names[25] == "z" and names[26] == "c26" and len(set(names)) == 28


def test_random_consistent_utilities_respect_the_order():
    rng = random.Random(7)
    prefs = (PreferenceOrder((2, 0, 1)), PreferenceOrder((0, 1, 2)))
    us = random_consistent_utilities(prefs, rng)
    assert len(us) == 2
    for u, pref in zip(us, prefs):
        assert u.induced_order() == pref
    again = random_consistent_utilities(prefs, random.Random(7))
    assert us == again


def test_format_helpers():
    form = lex_form()
    assert format_candidate_set(form, {2, 0}) == "{a,c}"
    assert format_profile(form, (1, 2)) == "(b,c)"


# --- properties


@st.composite
def plurality_and_profile(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.integers(1, 5)) for _ in range(n))
    scores = tuple(draw(st.integers(0, 3)) for _ in range(m))
    tb = draw(st.sampled_from(list(TieBreak)))
    form = PluralityForm(default_names(m), weights, scores, tb)
    profile = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    return form, profile


@given(plurality_and_profile())
def test_outcome_is_argmax_of_scores(fp):
    form, profile = fp
    scores = score_vector(form, profile)
    winners = outcome(form, profile)
    best = max(scores)
    argmax = {c for c, s in enumerate(scores) if s == best}
    if form.tiebreak is TieBreak.RANDOMIZED:
        assert winners == frozenset(argmax)
    else:
        assert winners == frozenset({min(argmax)})


@given(plurality_and_profile())
def test_scores_sum_to_total_weight_plus_initial(fp):
    form, profile = fp
    scores = score_vector(form, profile)
    assert sum(scores) == sum(form.initial_scores) + sum(form.weights)
