"""Reference forms, the replayable catalog, and generated game families."""

import itertools

import pytest

from ivote import (
    ESCAPE_MOVES,
    Game,
    GameParams,
    GameSpecError,
    PathStatus,
    PreferenceOrder,
    TieBreak,
    catalog,
    catalog_entry,
    dictatorship_form,
    hamming_acyclic_form,
    profile_from_names,
    random_game,
    replay_entry,
    restricted_action_defining_plurality,
    restricted_action_form,
    separability_certificate,
    verify_catalog,
)
from ivote.constructions import _code_profiles

CATALOG_NAMES = (
    "lex_best_cycle",
    "lex_best_cycle_from_truth",
    "weighted_direct_cycle",
    "random_tie_better_cycle",
    "random_tie_cycle_from_truth",
    "random_tie_unique_reply_cycle",
    "random_tie_direct_cycle_from_truth",
    "truthful_equilibrium",
    "truthful_not_equilibrium",
    "restricted_action_cycle",
)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_replays_and_facts_all_verify():
    results = verify_catalog()
    assert tuple(name for name, _ in results) == CATALOG_NAMES
    bad = {name: problems for name, problems in results if problems}
    assert not bad


def test_catalog_entry_lookup():
    entry = catalog_entry("weighted_direct_cycle")
    assert entry.name == "weighted_direct_cycle"
    with pytest.raises(GameSpecError):
        catalog_entry("eight_voter_cycle")


def test_catalog_traces_have_consistent_shapes():
    for entry in catalog():
        assert len(entry.agents) == len(entry.actions)
        assert len(entry.expected_states) == len(entry.agents) + 1
        assert len(entry.expected_winners) == len(entry.expected_states)
        if entry.expected_scores is not None:
            assert len(entry.expected_scores) == len(entry.expected_states)
        if entry.expected_status is PathStatus.CYCLE:
            assert entry.expected_states[-1] == entry.expected_states[entry.cycle_start]
        result = replay_entry(entry)
        assert result.status is entry.expected_status


# ---------------------------------------------------------------------------
# random games


def test_random_game_is_seed_deterministic():
    params = GameParams(candidates=3, voters=3, weight_bound=4, score_bound=2)
    assert random_game(params, 7) == random_game(params, 7)


def test_random_game_respects_bounds():
    params = GameParams(candidates=4, voters=3, weight_bound=3, score_bound=2)
    for seed in range(30):
        game = random_game(params, seed)
        form = game.form
        assert form.m == 4 and form.n == 3
        assert all(1 <= w <= 3 for w in form.weights)
        assert all(0 <= s <= 2 for s in form.initial_scores)
        assert form.tiebreak is TieBreak.LEXICOGRAPHIC
        assert game.utilities is None
        assert len(game.prefs) == 3


def test_random_game_attaches_utilities_under_randomized_ties():
    params = GameParams(
        candidates=3, voters=2, weight_bound=1, score_bound=1,
        tiebreak=TieBreak.RANDOMIZED,
    )
    game = random_game(params, 1)
    assert game.utilities is not None
    for u, order in zip(game.utilities, game.prefs):
        assert u.induced_order() == order


def test_unweighted_default_bounds():
    game = random_game(GameParams(candidates=2, voters=2), 0)
    assert game.form.weights == (1, 1)
    assert game.form.initial_scores == (0, 0)


# ---------------------------------------------------------------------------
# dictatorships


def test_dictatorship_elects_the_dictators_ballot():
    form = dictatorship_form(3, 2, dictator=1)
    assert form.deterministic
    for profile in itertools.product(range(3), repeat=2):
        assert form.outcome(profile) == frozenset({profile[1]})
    with pytest.raises(GameSpecError):
        dictatorship_form(3, 2, dictator=2)


def test_dictatorship_separability():
    cert = separability_certificate(dictatorship_form(2, 2))
    assert cert.range_size == 2
    assert cert.action_budget == 4
    assert cert.min_distance is None
    assert not cert.non_separable


# ---------------------------------------------------------------------------
# the restricted-ballot form


def test_restricted_form_matches_its_defining_plurality():
    tab = restricted_action_form()
    plural = restricted_action_defining_plurality()
    assert plural.action_sets == ((2, 3), (1, 2), (0, 1, 3))
    for v in range(3):
        row = tuple(tab.action_candidate(v, a) for a in tab.actions(v))
        assert row == plural.action_sets[v]
    assert len(tab.table) == 12
    for profile, out in tab.table.items():
        cand_profile = tuple(tab.action_candidate(v, a) for v, a in enumerate(profile))
        assert plural.outcome(cand_profile) == out


def test_restricted_form_separability():
    cert = separability_certificate(restricted_action_form())
    assert cert.range_size == 4
    assert cert.action_budget == 7
    assert cert.min_distance is None
    assert not cert.non_separable


def test_escape_moves_flee_to_stable_states():
    form = restricted_action_form()
    names = form.names
    all_orders = [PreferenceOrder(p) for p in itertools.permutations(range(4))]
    applying_counts = []
    for move in ESCAPE_MOVES:
        src = profile_from_names(form, move.state)
        dst = profile_from_names(form, move.landing)
        assert move.voter == 2
        # landing really is the single-slot update the move describes
        action = form.action_labels[2].index(move.action)
        assert dst == src[:2] + (action,)
        src_out = next(iter(form.outcome(src)))
        dst_out = next(iter(form.outcome(dst)))
        applying = [o for o in all_orders if move.applies(o, names)]
        applying_counts.append(len(applying))
        for order in applying:
            # the escape is a strict better reply for voter 3
            assert order.prefers(dst_out, src_out)
            # ... and lands on an equilibrium no matter what voters 1 and 2
            # want: their deviations cannot change the outcome at all
            for v in (0, 1):
                for a in form.actions(v):
                    if a == dst[v]:
                        continue
                    dev = dst[:v] + (a,) + dst[v + 1 :]
                    assert form.outcome(dev) == form.outcome(dst)
            for a in form.actions(2):
                if a == dst[2]:
                    continue
                dev_out = next(iter(form.outcome(dst[:2] + (a,))))
                assert not order.prefers(dev_out, dst_out)
    assert applying_counts == [12, 8, 1]


def test_escape_move_conditions_are_mutually_exclusive():
    names = restricted_action_form().names
    all_orders = [PreferenceOrder(p) for p in itertools.permutations(range(4))]
    for order in all_orders:
        applying = [m for m in ESCAPE_MOVES if m.applies(order, names)]
        assert len(applying) <= 1


# ---------------------------------------------------------------------------
# the binary-code form


def test_code_profiles_are_the_nontrivial_syndrome_free_words():
    words = _code_profiles()
    assert len(words) == 14
    assert all(len(w) == 7 for w in words)
    for bits in words:
        syndrome = 0
        for i, bit in enumerate(bits, start=1):
            if bit:
                syndrome ^= i
        assert syndrome == 0
    assert (0,) * 7 not in words
    assert (1,) * 7 not in words
    as_ints = [int("".join(map(str, w)), 2) for w in words]
    assert as_ints == sorted(as_ints)


def test_hamming_form_structure():
    form = hamming_acyclic_form()
    assert form.names == ("z",) + tuple(f"a{i}" for i in range(1, 15))
    assert form.n == 7 and form.m == 15
    words = _code_profiles()
    for k, w in enumerate(words, start=1):
        assert form.table[w] == frozenset({k})
    z_count = sum(1 for out in form.table.values() if out == frozenset({0}))
    assert z_count == 2**7 - 14
    # labeled profiles are pairwise at least three flips apart...
    dists = [
        sum(1 for x, y in zip(p, q) if x != y)
        for p, q in itertools.combinations(words, 2)
    ]
    assert min(dists) == 3
    # ... so no single ballot flip connects two labeled outcomes
    for w in words:
        for i in range(7):
            neighbour = w[:i] + (1 - w[i],) + w[i + 1 :]
            assert form.table[neighbour] == frozenset({0})


def test_hamming_form_separability_certificate():
    cert = separability_certificate(hamming_acyclic_form())
    assert cert.range_size == 15
    assert cert.action_budget == 14
    assert cert.min_distance == 3
    assert cert.non_separable


def test_separability_rejects_plurality_forms():
    with pytest.raises(GameSpecError):
        separability_certificate(restricted_action_defining_plurality())
