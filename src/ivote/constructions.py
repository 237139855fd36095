"""Reference games, counterexample forms, and the replayable catalog.

The catalog is a set of small games with recorded play traces, each
pinpointing one behaviour of the dynamics: a best-reply cycle, a cycle
reachable from the truthful profile, a weighted direct-reply cycle whose
every move is forced, cycles under randomized tie-breaking, truthful
profiles that are / are not equilibria, and a restricted-ballot form whose
better replies always allow an escape to equilibrium yet defeat every
memoryless restriction. ``verify_catalog`` replays every trace step by
step under its scripted schedule and re-checks the recorded classification
facts, so the library's dynamics are pinned to concrete expected data.

Also here: a restricted-ballot three-voter form and its escape-move case
analysis, a binary-ballot form built on a distance-3 binary code (with the
separability certificate showing its outcome range exceeds its total
action budget), dictatorships, and seeded random game generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Game,
    GameSpecError,
    LimitError,
    PluralityForm,
    PreferenceOrder,
    Profile,
    TabularForm,
    TieBreak,
    UtilityVector,
    default_names,
    random_plurality_game,
)
from .comparators import ComparatorMode
from .dynamics import (
    PathResult,
    PathStatus,
    ReplyKind,
    ReplyPolicy,
    SchedulerSpec,
    ScriptedActions,
    ScriptedAgents,
    run_path,
)
from .analysis import (
    PROPERTIES,
    _violations,
    build_graph,
    default_node_limit,
    from_state,
    sinks,
)

_BETTER_LEX = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.LEX_SINGLETON)
_BEST_LEX = ReplyPolicy(ReplyKind.BEST, ComparatorMode.LEX_SINGLETON)
_DIRECT_LEX = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.LEX_SINGLETON)
_BETTER_EU = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.EXPECTED_UTILITY)
_DIRECT_EU = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.EXPECTED_UTILITY)
_BETTER_SD = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.STOCHASTIC_DOMINANCE)


# ---------------------------------------------------------------------------
# generated game families


@dataclass(frozen=True)
class GameParams:
    """Sampling parameters for ``random_game``."""

    candidates: int
    voters: int
    weight_bound: int = 1
    score_bound: int = 0
    tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC


def random_game(params: GameParams, seed: int) -> Game:
    """A seeded random plurality game; equal seeds give equal games.

    Weights are uniform on 1..weight_bound (so bound 1 means unweighted),
    initial scores uniform on 0..score_bound, preferences uniform random
    orders. Randomized tie-breaking also attaches consistent utilities,
    since set comparators need them.
    """
    return random_plurality_game(
        params.candidates,
        params.voters,
        params.weight_bound,
        params.score_bound,
        params.tiebreak,
        random.Random(seed),
    )


def dictatorship_form(m: int, n: int, dictator: int = 0) -> TabularForm:
    """Voter ``dictator``'s ballot wins outright; everyone else is ignored.

    Materialized as an explicit table of m**n profiles, so more profiles
    than the node limit (``default_node_limit``) raise LimitError before
    any is built.
    """
    if not 0 <= dictator < n:
        raise GameSpecError(f"dictator {dictator} out of range for {n} voters")
    limit = default_node_limit()
    # m**n >= 2**n > limit once n reaches limit.bit_length(): not computed then
    if m > 1 and (n >= limit.bit_length() or m**n > limit):
        raise LimitError(
            f"a dictatorship table of {m}^{n} profiles is above the node "
            f"limit of {limit}"
        )
    names = default_names(m)
    table = {
        p: frozenset((p[dictator],))
        for p in itertools.product(range(m), repeat=n)
    }
    return TabularForm(names, (names,) * n, table)


# ---------------------------------------------------------------------------
# the restricted-ballot form


def restricted_action_form() -> TabularForm:
    """A three-voter form with ballots A1={c,d}, A2={b,c}, A3={a,b,d}.

    It is the restriction of a weighted plurality (voter weights 1, 2, 6
    over initial scores 0, 1, 5, 6 for a, b, c, d, lexicographic ties) to
    those ballots; the twelve outcomes are hardcoded and a test recomputes
    them from the defining rule. Better replies on it always admit a path
    to equilibrium, but some preference profiles force a move cycle that
    survives every memoryless restriction of the schedule.
    """
    names = ("a", "b", "c", "d")
    a, b, c, d = range(4)
    # rows: voter 1 in {c,d}, voter 2 in {b,c}, voter 3 in {a,b,d}
    table = {
        (0, 1, 0): {c},  # (c,c,a)
        (0, 1, 1): {c},  # (c,c,b)
        (0, 1, 2): {d},  # (c,c,d)
        (0, 0, 0): {a},  # (c,b,a)
        (0, 0, 1): {b},  # (c,b,b)
        (0, 0, 2): {d},  # (c,b,d)
        (1, 1, 0): {c},  # (d,c,a)
        (1, 1, 1): {b},  # (d,c,b)
        (1, 1, 2): {d},  # (d,c,d)
        (1, 0, 0): {d},  # (d,b,a)
        (1, 0, 1): {b},  # (d,b,b)
        (1, 0, 2): {d},  # (d,b,d)
    }
    return TabularForm(names, (("c", "d"), ("b", "c"), ("a", "b", "d")), table)


def restricted_action_defining_plurality() -> PluralityForm:
    """The weighted plurality whose ballot restriction yields the form above."""
    return PluralityForm(
        ("a", "b", "c", "d"),
        (1, 2, 6),
        (0, 1, 5, 6),
        TieBreak.LEXICOGRAPHIC,
        action_sets=((2, 3), (1, 2), (0, 1, 3)),
    )


@dataclass(frozen=True)
class EscapeMove:
    """A move of voter 3 that leaves the forced cycle and lands on an
    equilibrium, valid whenever voter 3's order satisfies ``conditions``
    (pairs (x, y) meaning x is preferred to y)."""

    state: tuple
    voter: int
    action: str
    landing: tuple
    conditions: tuple

    def applies(self, order: PreferenceOrder, names: Sequence[str]) -> bool:
        idx = {s: i for i, s in enumerate(names)}
        return all(order.prefers(idx[x], idx[y]) for x, y in self.conditions)


ESCAPE_MOVES = (
    EscapeMove(("d", "b", "a"), 2, "b", ("d", "b", "b"), (("b", "d"),)),
    EscapeMove(("c", "b", "b"), 2, "d", ("c", "b", "d"), (("d", "b"), ("d", "a"))),
    EscapeMove(
        ("d", "c", "b"), 2, "d", ("d", "c", "d"), (("a", "d"), ("d", "b"), ("b", "c"))
    ),
)


# ---------------------------------------------------------------------------
# the binary-code form


def _code_profiles() -> list:
    """Binary 7-tuples whose set of 1-positions (1-based) XORs to zero,
    minus the all-zeros and all-ones words, ascending as binary numbers."""
    words = []
    for bits in itertools.product((0, 1), repeat=7):
        syndrome = 0
        for i, bit in enumerate(bits, start=1):
            if bit:
                syndrome ^= i
        if syndrome == 0:
            words.append(bits)
    words = [w for w in words if any(w) and not all(w)]
    words.sort(key=lambda w: int("".join(map(str, w)), 2))
    return words


def hamming_acyclic_form() -> TabularForm:
    """Seven binary ballots; fourteen profiles, pairwise at least three
    flips apart, each elect their own candidate, and every other profile
    elects the default z.

    One ballot flip therefore never connects two labeled profiles, so any
    improvement step moves between z and a labeled outcome; better-reply
    dynamics on this form resist cycling while its outcome range (15)
    exceeds the sum of ballot sizes (14), which rules out separable
    (per-voter additive) scoring explanations of that behaviour.
    """
    words = _code_profiles()
    names = ("z",) + tuple(f"a{i}" for i in range(1, len(words) + 1))
    table = {}
    labeled = {w: k + 1 for k, w in enumerate(words)}
    for bits in itertools.product((0, 1), repeat=7):
        table[bits] = {labeled.get(bits, 0)}
    return TabularForm(names, (("0", "1"),) * 7, table)


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Outcome range vs. total action budget of a tabular form.

    ``range_size > action_budget`` certifies that no per-voter additive
    (separable) scoring with one value per action can produce the form.
    ``min_distance`` is the minimum profile distance (number of differing
    positions) between distinct profiles that are the unique preimages of
    their outcomes, when at least two such profiles exist.
    """

    range_size: int
    action_budget: int
    min_distance: Optional[int]

    @property
    def non_separable(self) -> bool:
        return self.range_size > self.action_budget


def separability_certificate(form: TabularForm) -> SeparabilityCertificate:
    if form.kind != "tabular":
        raise GameSpecError("separability certificates apply to tabular forms")
    outcomes = {}
    for profile, out in form.table.items():
        outcomes.setdefault(out, []).append(profile)
    unique = sorted(ps[0] for ps in outcomes.values() if len(ps) == 1)
    min_distance = None
    if len(unique) > 1:
        min_distance = min(
            sum(1 for x, y in zip(p, q) if x != y)
            for p, q in itertools.combinations(unique, 2)
        )
    budget = sum(len(form.action_labels[i]) for i in range(form.n))
    return SeparabilityCertificate(len(outcomes), budget, min_distance)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogFact:
    """One recorded classification fact, re-derived during verification."""

    policy: ReplyPolicy
    prop: str  # has_ne | fip | weak_fip | restricted_fip | fip_from_start |
    #            truthful_is_ne | equilibria
    expected: object


@dataclass(frozen=True)
class CatalogEntry:
    """A game, a scripted schedule, and the exact expected play trace.

    States and actions are stored by name; scores are None for tabular
    games. ``agents`` are 0-based voter indices.
    """

    name: str
    description: str
    game: Game
    policy: ReplyPolicy
    start: tuple
    agents: tuple
    actions: tuple
    expected_status: PathStatus
    expected_states: tuple
    expected_scores: Optional[tuple]
    expected_winners: tuple
    cycle_start: Optional[int]
    facts: tuple = ()


def _order(names, *ranked) -> PreferenceOrder:
    idx = {s: i for i, s in enumerate(names)}
    return PreferenceOrder(tuple(idx[s] for s in ranked))


def _action_value(form, voter: int, name: str) -> int:
    if form.kind == "plurality":
        return form.names.index(name)
    return form.action_labels[voter].index(name)


def profile_from_names(form, names_tuple: Sequence[str]) -> Profile:
    return tuple(
        _action_value(form, v, name) for v, name in enumerate(names_tuple)
    )


def profile_names(form, profile: Profile) -> tuple:
    return tuple(form.action_name(v, a) for v, a in enumerate(profile))


def outcome_names(form, outcome) -> tuple:
    return tuple(form.names[c] for c in sorted(outcome))


def _entry_lex_best_cycle() -> CatalogEntry:
    names = ("a", "b", "c")
    form = PluralityForm(names, (1, 1), (1, 0, 0))
    game = Game(form, (_order(names, "a", "b", "c"), _order(names, "c", "b", "a")))
    return CatalogEntry(
        name="lex_best_cycle",
        description="two voters cycle forever under best replies "
        "(deterministic tie-breaking, initial scores 1,0,0)",
        game=game,
        policy=_BEST_LEX,
        start=("b", "c"),
        agents=(1, 0, 1, 0),
        actions=("b", "c", "c", "b"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("b", "c"),
            ("b", "b"),
            ("c", "b"),
            ("c", "c"),
            ("b", "c"),
        ),
        expected_scores=((1, 1, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2), (1, 1, 1)),
        expected_winners=(("a",), ("b",), ("a",), ("c",), ("a",)),
        cycle_start=0,
        facts=(
            CatalogFact(_BEST_LEX, "fip", False),
            CatalogFact(_BETTER_LEX, "has_ne", True),
            CatalogFact(_DIRECT_LEX, "fip", True),
        ),
    )


def _entry_lex_best_cycle_from_truth() -> CatalogEntry:
    names = ("a", "b", "c", "d")
    form = PluralityForm(names, (1, 1, 1), (2, 2, 2, 0))
    game = Game(
        form,
        (
            _order(names, "d", "a", "b", "c"),
            _order(names, "c", "b", "a", "d"),
            _order(names, "d", "a", "b", "c"),
        ),
    )
    return CatalogEntry(
        name="lex_best_cycle_from_truth",
        description="a better-reply path from the truthful profile runs "
        "into a three-voter cycle",
        game=game,
        policy=_BETTER_LEX,
        start=("d", "c", "d"),
        agents=(0, 2, 1, 0, 1, 0),
        actions=("b", "a", "b", "c", "c", "b"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("d", "c", "d"),
            ("b", "c", "d"),
            ("b", "c", "a"),
            ("b", "b", "a"),
            ("c", "b", "a"),
            ("c", "c", "a"),
            ("b", "c", "a"),
        ),
        expected_scores=(
            (2, 2, 3, 2),
            (2, 3, 3, 1),
            (3, 3, 3, 0),
            (3, 4, 2, 0),
            (3, 3, 3, 0),
            (3, 2, 4, 0),
            (3, 3, 3, 0),
        ),
        expected_winners=(
            ("c",),
            ("b",),
            ("a",),
            ("b",),
            ("a",),
            ("c",),
            ("a",),
        ),
        cycle_start=2,
        facts=(
            CatalogFact(_BETTER_LEX, "fip_from_start", False),
            CatalogFact(_BETTER_LEX, "has_ne", True),
            CatalogFact(_BEST_LEX, "fip_from_start", True),
        ),
    )


def _entry_weighted_direct_cycle() -> CatalogEntry:
    names = ("a", "b", "c", "d")
    form = PluralityForm(names, (1, 2, 3), (0, 1, 2, 3))
    game = Game(
        form,
        (
            _order(names, "c", "d", "b", "a"),
            _order(names, "b", "c", "a", "d"),
            _order(names, "a", "b", "c", "d"),
        ),
    )
    return CatalogEntry(
        name="weighted_direct_cycle",
        description="three weighted voters cycle from the truthful profile "
        "with a single direct reply available at every step",
        game=game,
        policy=_DIRECT_LEX,
        start=("c", "b", "a"),
        agents=(0, 1, 2, 0, 1, 2),
        actions=("d", "c", "b", "c", "b", "a"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("c", "b", "a"),
            ("d", "b", "a"),
            ("d", "c", "a"),
            ("d", "c", "b"),
            ("c", "c", "b"),
            ("c", "b", "b"),
            ("c", "b", "a"),
        ),
        expected_scores=(
            (3, 3, 3, 3),
            (3, 3, 2, 4),
            (3, 1, 4, 4),
            (0, 4, 4, 4),
            (0, 4, 5, 3),
            (0, 6, 3, 3),
            (3, 3, 3, 3),
        ),
        expected_winners=(
            ("a",),
            ("d",),
            ("c",),
            ("b",),
            ("c",),
            ("b",),
            ("a",),
        ),
        cycle_start=0,
        facts=(
            CatalogFact(_DIRECT_LEX, "fip", False),
            CatalogFact(_DIRECT_LEX, "restricted_fip", False),
        ),
    )


def _entry_random_tie_better_cycle() -> CatalogEntry:
    names = ("a", "b", "c")
    form = PluralityForm(names, (1, 1, 1), (0, 1, 0), TieBreak.RANDOMIZED)
    game = Game(
        form,
        (
            _order(names, "a", "c", "b"),
            _order(names, "b", "a", "c"),
            _order(names, "c", "b", "a"),
        ),
    )
    return CatalogEntry(
        name="random_tie_better_cycle",
        description="with randomized tie-breaking, better replies judged by "
        "stochastic dominance cycle through six winner sets",
        game=game,
        policy=_BETTER_SD,
        start=("a", "a", "b"),
        agents=(1, 0, 2, 1, 2, 0),
        actions=("c", "c", "a", "a", "b", "a"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("a", "a", "b"),
            ("a", "c", "b"),
            ("c", "c", "b"),
            ("c", "c", "a"),
            ("c", "a", "a"),
            ("c", "a", "b"),
            ("a", "a", "b"),
        ),
        expected_scores=(
            (2, 2, 0),
            (1, 2, 1),
            (0, 2, 2),
            (1, 1, 2),
            (2, 1, 1),
            (1, 2, 1),
            (2, 2, 0),
        ),
        expected_winners=(
            ("a", "b"),
            ("b",),
            ("b", "c"),
            ("c",),
            ("a",),
            ("b",),
            ("a", "b"),
        ),
        cycle_start=0,
        facts=(CatalogFact(_BETTER_SD, "fip", False),),
    )


def _entry_random_tie_cycle_from_truth() -> CatalogEntry:
    names = ("a", "b", "c", "d", "e")
    form = PluralityForm(names, (1, 1), (1, 1, 2, 0, 0), TieBreak.RANDOMIZED)
    u1 = UtilityVector((5, 3, 2, 8, 0))
    u2 = UtilityVector((4, 2, 5, 0, 8))
    game = Game(form, (u1.induced_order(), u2.induced_order()), (u1, u2))
    return CatalogEntry(
        name="random_tie_cycle_from_truth",
        description="two voters with cardinal utilities cycle from the "
        "truthful profile under randomized tie-breaking",
        game=game,
        policy=_BETTER_EU,
        start=("d", "e"),
        agents=(0, 1, 0, 1),
        actions=("b", "a", "d", "e"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("d", "e"),
            ("b", "e"),
            ("b", "a"),
            ("d", "a"),
            ("d", "e"),
        ),
        expected_scores=(
            (1, 1, 2, 1, 1),
            (1, 2, 2, 0, 1),
            (2, 2, 2, 0, 0),
            (2, 1, 2, 1, 0),
            (1, 1, 2, 1, 1),
        ),
        expected_winners=(
            ("c",),
            ("b", "c"),
            ("a", "b", "c"),
            ("a", "c"),
            ("c",),
        ),
        cycle_start=0,
        facts=(CatalogFact(_BETTER_EU, "fip_from_start", False),),
    )


def _unique_reply_utilities():
    u1 = UtilityVector((7, 3, 0, 4))
    u2 = UtilityVector((0, 7, 3, 4))
    u3 = UtilityVector((3, 0, 7, 4))
    return u1, u2, u3


def _entry_random_tie_unique_reply_cycle() -> CatalogEntry:
    names = ("a", "b", "c", "x")
    form = PluralityForm(names, (1, 1, 1), (0, 0, 0, 0), TieBreak.RANDOMIZED)
    us = _unique_reply_utilities()
    game = Game(form, tuple(u.induced_order() for u in us), us)
    return CatalogEntry(
        name="random_tie_unique_reply_cycle",
        description="a six-step cycle under randomized tie-breaking in "
        "which the scheduled voter always has exactly one improving move",
        game=game,
        policy=_BETTER_EU,
        start=("a", "b", "x"),
        agents=(1, 2, 0, 1, 2, 0),
        actions=("x", "c", "x", "b", "x", "a"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("a", "b", "x"),
            ("a", "x", "x"),
            ("a", "x", "c"),
            ("x", "x", "c"),
            ("x", "b", "c"),
            ("x", "b", "x"),
            ("a", "b", "x"),
        ),
        expected_scores=(
            (1, 1, 0, 1),
            (1, 0, 0, 2),
            (1, 0, 1, 1),
            (0, 0, 1, 2),
            (0, 1, 1, 1),
            (0, 1, 0, 2),
            (1, 1, 0, 1),
        ),
        expected_winners=(
            ("a", "b", "x"),
            ("x",),
            ("a", "c", "x"),
            ("x",),
            ("b", "c", "x"),
            ("x",),
            ("a", "b", "x"),
        ),
        cycle_start=0,
        facts=(
            CatalogFact(_BETTER_EU, "fip", False),
            CatalogFact(_BETTER_EU, "restricted_fip", False),
        ),
    )


def _entry_random_tie_direct_cycle_from_truth() -> CatalogEntry:
    names = ("a", "b", "c", "x", "d1", "d2", "d3")
    form = PluralityForm(
        names, (1, 1, 1), (3, 3, 3, 3, 0, 0, 0), TieBreak.RANDOMIZED
    )
    # base utilities as in the unique-reply cycle, plus a private safety
    # candidate per voter on top and the other two just below the midfield
    u1 = UtilityVector((7, 3, 0, 4, 8, 1.5, 2.5))
    u2 = UtilityVector((0, 7, 3, 4, 0.5, 8, 2.5))
    u3 = UtilityVector((3, 0, 7, 4, 0.5, 1.5, 8))
    us = (u1, u2, u3)
    game = Game(form, tuple(u.induced_order() for u in us), us)
    return CatalogEntry(
        name="random_tie_direct_cycle_from_truth",
        description="direct replies reach the unique-reply cycle from the "
        "truthful profile once safety candidates are abandoned",
        game=game,
        policy=_DIRECT_EU,
        start=("d1", "d2", "d3"),
        agents=(2, 0, 1, 1, 2, 0, 1, 2, 0),
        actions=("x", "a", "b", "x", "c", "x", "b", "x", "a"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("d1", "d2", "d3"),
            ("d1", "d2", "x"),
            ("a", "d2", "x"),
            ("a", "b", "x"),
            ("a", "x", "x"),
            ("a", "x", "c"),
            ("x", "x", "c"),
            ("x", "b", "c"),
            ("x", "b", "x"),
            ("a", "b", "x"),
        ),
        expected_scores=(
            (3, 3, 3, 3, 1, 1, 1),
            (3, 3, 3, 4, 1, 1, 0),
            (4, 3, 3, 4, 0, 1, 0),
            (4, 4, 3, 4, 0, 0, 0),
            (4, 3, 3, 5, 0, 0, 0),
            (4, 3, 4, 4, 0, 0, 0),
            (3, 3, 4, 5, 0, 0, 0),
            (3, 4, 4, 4, 0, 0, 0),
            (3, 4, 3, 5, 0, 0, 0),
            (4, 4, 3, 4, 0, 0, 0),
        ),
        expected_winners=(
            ("a", "b", "c", "x"),
            ("x",),
            ("a", "x"),
            ("a", "b", "x"),
            ("x",),
            ("a", "c", "x"),
            ("x",),
            ("b", "c", "x"),
            ("x",),
            ("a", "b", "x"),
        ),
        cycle_start=3,
        facts=(CatalogFact(_DIRECT_EU, "fip_from_start", False),),
    )


def _two_voter_weighted_form() -> PluralityForm:
    return PluralityForm(("a", "b", "c"), (3, 4), (7, 9, 3))


def _entry_truthful_equilibrium() -> CatalogEntry:
    names = ("a", "b", "c")
    form = _two_voter_weighted_form()
    game = Game(form, (_order(names, "a", "b", "c"), _order(names, "c", "a", "b")))
    return CatalogEntry(
        name="truthful_equilibrium",
        description="a weighted two-voter game whose truthful profile is "
        "already an equilibrium",
        game=game,
        policy=_BETTER_LEX,
        start=("a", "c"),
        agents=(),
        actions=(),
        expected_status=PathStatus.CONVERGED,
        expected_states=((("a", "c")),),
        expected_scores=((10, 9, 7),),
        expected_winners=(("a",),),
        cycle_start=None,
        facts=(
            CatalogFact(_BETTER_LEX, "truthful_is_ne", True),
            CatalogFact(
                _BETTER_LEX,
                "equilibria",
                (("a", "a"), ("a", "c"), ("b", "b")),
            ),
        ),
    )


def _entry_truthful_not_equilibrium() -> CatalogEntry:
    names = ("a", "b", "c")
    form = _two_voter_weighted_form()
    game = Game(form, (_order(names, "a", "c", "b"), _order(names, "c", "b", "a")))
    return CatalogEntry(
        name="truthful_not_equilibrium",
        description="the same weighted form with other preferences: the "
        "truthful profile is not an equilibrium and one step settles play",
        game=game,
        policy=_BETTER_LEX,
        start=("a", "c"),
        agents=(1,),
        actions=("b",),
        expected_status=PathStatus.CONVERGED,
        expected_states=(("a", "c"), ("a", "b")),
        expected_scores=((10, 9, 7), (10, 13, 3)),
        expected_winners=(("a",), ("b",)),
        cycle_start=None,
        facts=(
            CatalogFact(_BETTER_LEX, "truthful_is_ne", False),
            CatalogFact(_BETTER_LEX, "equilibria", (("a", "b"), ("b", "b"))),
        ),
    )


def _entry_restricted_action_cycle() -> CatalogEntry:
    form = restricted_action_form()
    names = form.names
    game = Game(
        form,
        (
            _order(names, "c", "d", "b", "a"),
            _order(names, "b", "c", "a", "d"),
            _order(names, "a", "b", "c", "d"),
        ),
    )
    return CatalogEntry(
        name="restricted_action_cycle",
        description="on the restricted-ballot form, these preferences force "
        "a six-state cycle of unique moves, yet an escape to equilibrium "
        "exists from inside it",
        game=game,
        policy=_BETTER_LEX,
        start=("c", "b", "b"),
        agents=(2, 0, 1, 2, 0, 1),
        actions=("a", "d", "c", "b", "c", "b"),
        expected_status=PathStatus.CYCLE,
        expected_states=(
            ("c", "b", "b"),
            ("c", "b", "a"),
            ("d", "b", "a"),
            ("d", "c", "a"),
            ("d", "c", "b"),
            ("c", "c", "b"),
            ("c", "b", "b"),
        ),
        expected_scores=None,
        expected_winners=(
            ("b",),
            ("a",),
            ("d",),
            ("c",),
            ("b",),
            ("c",),
            ("b",),
        ),
        cycle_start=0,
        facts=(
            CatalogFact(_BETTER_LEX, "fip", False),
            CatalogFact(_BETTER_LEX, "weak_fip", True),
            CatalogFact(_BETTER_LEX, "restricted_fip", False),
            CatalogFact(_BETTER_LEX, "has_ne", True),
        ),
    )


def catalog() -> tuple:
    """All catalog entries, fixed order."""
    return (
        _entry_lex_best_cycle(),
        _entry_lex_best_cycle_from_truth(),
        _entry_weighted_direct_cycle(),
        _entry_random_tie_better_cycle(),
        _entry_random_tie_cycle_from_truth(),
        _entry_random_tie_unique_reply_cycle(),
        _entry_random_tie_direct_cycle_from_truth(),
        _entry_truthful_equilibrium(),
        _entry_truthful_not_equilibrium(),
        _entry_restricted_action_cycle(),
    )


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise GameSpecError(f"no catalog entry named {name!r}")


def replay_entry(entry: CatalogEntry, max_steps: int = 10_000) -> PathResult:
    """Run the entry's scripted schedule from its start state."""
    form = entry.game.form
    start = profile_from_names(form, entry.start)
    scheduler = SchedulerSpec(
        ScriptedAgents(entry.agents),
        ScriptedActions(
            tuple(
                _action_value(form, v, name)
                for v, name in zip(entry.agents, entry.actions)
            )
        ),
    )
    return run_path(entry.game, start, entry.policy, scheduler, max_steps)


def _check_fact(entry: CatalogEntry, fact: CatalogFact) -> Optional[str]:
    game = entry.game
    form = game.form
    graph = build_graph(game, fact.policy)
    if fact.prop in PROPERTIES:
        actual = fact.prop not in _violations(graph, (fact.prop,))
    elif fact.prop == "fip_from_start":
        actual = from_state(graph, profile_from_names(form, entry.start)).fip
    elif fact.prop == "truthful_is_ne":
        truth = game.truthful_profile()
        actual = truth in {graph.profiles[i] for i in sinks(graph)}
    elif fact.prop == "equilibria":
        actual = tuple(
            sorted(profile_names(form, graph.profiles[i]) for i in sinks(graph))
        )
    else:
        return f"unknown fact {fact.prop!r}"
    expected = fact.expected
    if fact.prop == "equilibria":
        expected = tuple(sorted(tuple(p) for p in fact.expected))
    if actual != expected:
        return (
            f"fact {fact.prop} under {fact.policy.describe()}: "
            f"expected {expected!r}, got {actual!r}"
        )
    return None


def verify_entry(entry: CatalogEntry) -> tuple:
    """Replay the trace and re-check facts; returns mismatch descriptions."""
    problems = []
    form = entry.game.form
    result = replay_entry(entry)
    if result.status is not entry.expected_status:
        problems.append(
            f"status: expected {entry.expected_status.value}, got {result.status.value}"
        )
    got_states = tuple(profile_names(form, s) for s in result.states)
    if got_states != tuple(tuple(s) for s in entry.expected_states):
        problems.append(f"states: expected {entry.expected_states}, got {got_states}")
    if entry.expected_scores is not None:
        got_scores = tuple(form.score_vector(s) for s in result.states)
        if got_scores != tuple(tuple(s) for s in entry.expected_scores):
            problems.append(
                f"scores: expected {entry.expected_scores}, got {got_scores}"
            )
    got_winners = tuple(
        outcome_names(form, form.outcome(s)) for s in result.states
    )
    if got_winners != tuple(tuple(w) for w in entry.expected_winners):
        problems.append(
            f"winners: expected {entry.expected_winners}, got {got_winners}"
        )
    if result.cycle_start != entry.cycle_start:
        problems.append(
            f"cycle start: expected {entry.cycle_start}, got {result.cycle_start}"
        )
    for fact in entry.facts:
        problem = _check_fact(entry, fact)
        if problem:
            problems.append(problem)
    return tuple(problems)


def verify_catalog() -> tuple:
    """(name, problems) per entry; all problem tuples empty on a good build."""
    return tuple((entry.name, verify_entry(entry)) for entry in catalog())
