"""Finite game forms and plurality voting games.

A game form maps action profiles (one action per voter) to outcomes. Here an
outcome is a non-empty set of candidates: a singleton when ties are broken
deterministically, a full tie set when the winner is drawn at random. Two
form kinds are provided:

* :class:`PluralityForm` - each voter casts one vote for a candidate
  (optionally restricted to a subset of ballots), candidate scores are fixed
  initial scores plus the sum of the weights of the voters voting for them,
  and the outcome is the set of score maximizers, reduced to the
  lowest-index maximizer under lexicographic tie-breaking.
* :class:`TabularForm` - an explicit finite table from action profiles to
  candidate sets, used for counterexample constructions whose behaviour is
  not a plurality rule.

A :class:`Game` attaches a strict preference order per voter (and optionally
a utility vector consistent with it) to a form. Everything is immutable and
hashable, uses exact integer/rational arithmetic, and iterates candidates in
index order so that equal inputs produce identical outputs.

Voters are 0-based internally; rendering helpers present them 1-based.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence


def _exact(value) -> object:
    """Exact rational for a numeric input; plain int when integral."""
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


class IvoteError(Exception):
    """Base class for all library errors."""


class GameSpecError(IvoteError, ValueError):
    """Structurally invalid game, form, profile, or preference input."""


class ConfigurationError(IvoteError, ValueError):
    """An operation was configured inconsistently with its inputs."""


class ScheduleError(IvoteError, RuntimeError):
    """A scripted schedule names a voter or action with no legal move."""


class LimitError(IvoteError, RuntimeError):
    """A state space or search exceeded its configured resource bound."""


class UnsupportedOperationError(IvoteError, RuntimeError):
    """The operation is undefined for this input (e.g. scores of a table)."""


class TieBreak(Enum):
    """How score ties are resolved by a plurality form."""

    LEXICOGRAPHIC = "lex"
    RANDOMIZED = "random"


# An action profile: one action per voter. For plurality forms the actions
# are candidate ids; for tabular forms they are per-voter action indices.
Profile = tuple

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_*")


def _check_names(names: Sequence[str]) -> tuple:
    names = tuple(names)
    if len(names) < 1:
        raise GameSpecError("at least one candidate is required")
    if len(set(names)) != len(names):
        raise GameSpecError("candidate names must be distinct")
    for s in names:
        if not s or not set(s) <= _NAME_OK or s == "*":
            raise GameSpecError(f"bad candidate name {s!r}")
    return names


class PreferenceOrder:
    """A strict total order over candidates 0..m-1, most preferred first.

    ``ranking`` lists candidate ids from best to worst; ``rank[c]`` is the
    position of candidate ``c`` (0 = most preferred).
    """

    __slots__ = ("ranking", "rank")

    def __init__(self, ranking: Sequence[int]):
        ranking = tuple(ranking)
        m = len(ranking)
        if sorted(ranking) != list(range(m)):
            raise GameSpecError(
                f"ranking must be a permutation of 0..{m - 1}, got {ranking!r}"
            )
        rank = [0] * m
        for pos, c in enumerate(ranking):
            rank[c] = pos
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "rank", tuple(rank))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PreferenceOrder is immutable")

    @property
    def m(self) -> int:
        return len(self.ranking)

    def prefers(self, c: int, d: int) -> bool:
        """True iff candidate ``c`` is strictly preferred to ``d``."""
        return self.rank[c] < self.rank[d]

    def weakly_prefers(self, c: int, d: int) -> bool:
        return self.rank[c] <= self.rank[d]

    def top(self, available: Optional[Iterable[int]] = None) -> int:
        """The most preferred candidate, optionally among ``available``."""
        if available is None:
            return self.ranking[0]
        avail = list(available)
        if not avail:
            raise GameSpecError("no available candidate to pick a top from")
        return min(avail, key=self.rank.__getitem__)

    def __eq__(self, other):
        return isinstance(other, PreferenceOrder) and self.ranking == other.ranking

    def __hash__(self):
        return hash(("pref", self.ranking))

    def __repr__(self):
        return f"PreferenceOrder({list(self.ranking)!r})"


class UtilityVector:
    """Cardinal utilities over candidates, pairwise distinct.

    Values may be ints, floats, or fractions; each is converted to an exact
    rational on construction (kept as a plain int when integral), so all
    later arithmetic is exact and serialization round-trips losslessly.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        values = tuple(_exact(v) for v in values)
        if len(values) < 1:
            raise GameSpecError("utility vector must be non-empty")
        if len(set(values)) != len(values):
            raise GameSpecError(f"utility values must be pairwise distinct: {values!r}")
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("UtilityVector is immutable")

    @property
    def m(self) -> int:
        return len(self.values)

    def induced_order(self) -> PreferenceOrder:
        """The strict preference order implied by descending utility."""
        ranking = sorted(range(len(self.values)), key=lambda c: -self.values[c])
        return PreferenceOrder(ranking)

    def __getitem__(self, c: int) -> float:
        return self.values[c]

    def __eq__(self, other):
        return isinstance(other, UtilityVector) and self.values == other.values

    def __hash__(self):
        return hash(("util", self.values))

    def __repr__(self):
        return f"UtilityVector({list(self.values)!r})"


class PluralityForm:
    """Plurality with additive initial scores, voter weights and a tie-break.

    Parameters
    ----------
    names:
        Candidate names; candidate ids are their indices.
    weights:
        One positive integer per voter.
    initial_scores:
        Non-negative integer head start per candidate (defaults to zeros).
    tiebreak:
        ``TieBreak.LEXICOGRAPHIC`` (lowest-index maximizer wins alone) or
        ``TieBreak.RANDOMIZED`` (the outcome is the full set of maximizers).
    action_sets:
        Optional per-voter ballot restrictions, each a non-empty set of
        candidate ids. Defaults to every candidate for every voter.
    """

    kind = "plurality"

    __slots__ = ("names", "weights", "initial_scores", "tiebreak", "action_sets")

    def __init__(
        self,
        names: Sequence[str],
        weights: Sequence[int],
        initial_scores: Optional[Sequence[int]] = None,
        tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC,
        action_sets: Optional[Sequence[Iterable[int]]] = None,
    ):
        names = _check_names(names)
        m = len(names)
        weights = tuple(weights)
        if not weights:
            raise GameSpecError("at least one voter is required")
        for w in weights:
            if not isinstance(w, int) or w < 1:
                raise GameSpecError(f"voter weights must be positive integers: {w!r}")
        if initial_scores is None:
            initial_scores = (0,) * m
        initial_scores = tuple(initial_scores)
        if len(initial_scores) != m:
            raise GameSpecError("need one initial score per candidate")
        for s in initial_scores:
            if not isinstance(s, int) or s < 0:
                raise GameSpecError(f"initial scores must be non-negative ints: {s!r}")
        if not isinstance(tiebreak, TieBreak):
            raise GameSpecError(f"bad tiebreak {tiebreak!r}")
        if action_sets is None:
            sets = (tuple(range(m)),) * len(weights)
        else:
            rows = []
            for row in action_sets:
                row = tuple(sorted(set(row)))
                if not row:
                    raise GameSpecError("every voter needs at least one ballot")
                if not all(isinstance(c, int) and 0 <= c < m for c in row):
                    raise GameSpecError(f"ballot outside candidate range: {row!r}")
                rows.append(row)
            if len(rows) != len(weights):
                raise GameSpecError("need one action set per voter")
            sets = tuple(rows)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "initial_scores", initial_scores)
        object.__setattr__(self, "tiebreak", tiebreak)
        object.__setattr__(self, "action_sets", sets)

    def __setattr__(self, name, value):
        raise AttributeError("PluralityForm is immutable")

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def deterministic(self) -> bool:
        """True when every outcome is a single candidate."""
        return self.tiebreak is TieBreak.LEXICOGRAPHIC

    def actions(self, voter: int) -> tuple:
        return self.action_sets[voter]

    def action_candidate(self, voter: int, action: int) -> Optional[int]:
        """The candidate a ballot names (ballots ARE candidates here)."""
        return action

    def action_name(self, voter: int, action: int) -> str:
        return self.names[action]

    def validate_profile(self, profile: Profile) -> None:
        if len(profile) != self.n:
            raise GameSpecError(
                f"profile has {len(profile)} entries for {self.n} voters"
            )
        for i, a in enumerate(profile):
            if a not in self.action_sets[i]:
                raise GameSpecError(
                    f"voter {i + 1} cannot vote {a!r} (allowed: {self.action_sets[i]})"
                )

    def score_vector(self, profile: Profile) -> tuple:
        """Initial scores plus the weight each candidate receives."""
        scores = list(self.initial_scores)
        for w, a in zip(self.weights, profile):
            scores[a] += w
        return tuple(scores)

    def outcome(self, profile: Profile) -> frozenset:
        scores = list(self.initial_scores)
        for w, a in zip(self.weights, profile):
            scores[a] += w
        best = max(scores)
        if self.tiebreak is TieBreak.LEXICOGRAPHIC:
            return frozenset((scores.index(best),))
        return frozenset(c for c, s in enumerate(scores) if s == best)

    def __eq__(self, other):
        return isinstance(other, PluralityForm) and (
            self.names,
            self.weights,
            self.initial_scores,
            self.tiebreak,
            self.action_sets,
        ) == (
            other.names,
            other.weights,
            other.initial_scores,
            other.tiebreak,
            other.action_sets,
        )

    def __hash__(self):
        return hash(
            (
                "plurality",
                self.names,
                self.weights,
                self.initial_scores,
                self.tiebreak,
                self.action_sets,
            )
        )

    def __repr__(self):
        return (
            f"PluralityForm(m={self.m}, n={self.n}, weights={self.weights}, "
            f"initial_scores={self.initial_scores}, tiebreak={self.tiebreak.value})"
        )


class TabularForm:
    """An explicit outcome table over per-voter action alphabets.

    ``action_labels[i]`` are voter i's action names; profiles are tuples of
    action indices. ``table`` must cover the full product of action ranges
    and map each profile to a non-empty frozenset of candidate ids.
    """

    kind = "tabular"

    __slots__ = ("names", "action_labels", "table", "_candidate_of", "_singleton")

    def __init__(
        self,
        names: Sequence[str],
        action_labels: Sequence[Sequence[str]],
        table: Mapping[tuple, Iterable[int]],
    ):
        names = _check_names(names)
        m = len(names)
        labels = []
        for row in action_labels:
            row = tuple(row)
            if not row or len(set(row)) != len(row):
                raise GameSpecError(f"bad action labels {row!r}")
            for s in row:
                if not s or not set(s) <= _NAME_OK or s == "*":
                    raise GameSpecError(f"bad action label {s!r}")
            labels.append(row)
        labels = tuple(labels)
        if not labels:
            raise GameSpecError("at least one voter is required")
        full = {}
        for profile in itertools.product(*(range(len(row)) for row in labels)):
            if profile not in table:
                parts = tuple(labels[i][a] for i, a in enumerate(profile))
                raise GameSpecError(f"outcome table misses profile {parts!r}")
            out = frozenset(table[profile])
            if not out or not all(isinstance(c, int) and 0 <= c < m for c in out):
                raise GameSpecError(f"bad outcome {out!r} for profile {profile!r}")
            full[profile] = out
        if len(table) != len(full):
            raise GameSpecError("outcome table has entries outside the action space")
        name_index = {s: c for c, s in enumerate(names)}
        candidate_of = tuple(
            tuple(name_index.get(label) for label in row) for row in labels
        )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "action_labels", labels)
        object.__setattr__(self, "table", full)
        object.__setattr__(self, "_candidate_of", candidate_of)
        object.__setattr__(
            self, "_singleton", all(len(v) == 1 for v in full.values())
        )

    def __setattr__(self, name, value):
        raise AttributeError("TabularForm is immutable")

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return len(self.action_labels)

    @property
    def deterministic(self) -> bool:
        """True when every outcome is a single candidate."""
        return self._singleton

    def actions(self, voter: int) -> tuple:
        return tuple(range(len(self.action_labels[voter])))

    def action_candidate(self, voter: int, action: int) -> Optional[int]:
        """The candidate an action names, or None for non-candidate labels."""
        return self._candidate_of[voter][action]

    def action_name(self, voter: int, action: int) -> str:
        return self.action_labels[voter][action]

    def validate_profile(self, profile: Profile) -> None:
        if len(profile) != self.n:
            raise GameSpecError(
                f"profile has {len(profile)} entries for {self.n} voters"
            )
        for i, a in enumerate(profile):
            if not isinstance(a, int) or not 0 <= a < len(self.action_labels[i]):
                raise GameSpecError(f"voter {i + 1} has no action {a!r}")

    def outcome(self, profile: Profile) -> frozenset:
        try:
            return self.table[tuple(profile)]
        except KeyError:
            self.validate_profile(profile)
            raise

    def __eq__(self, other):
        return isinstance(other, TabularForm) and (
            self.names,
            self.action_labels,
            self.table,
        ) == (other.names, other.action_labels, other.table)

    def __hash__(self):
        return hash(
            ("tabular", self.names, self.action_labels, frozenset(self.table.items()))
        )

    def __repr__(self):
        return f"TabularForm(m={self.m}, n={self.n}, profiles={len(self.table)})"


class Game:
    """A game form plus one strict preference order per voter.

    ``utilities``, when given, must contain one vector per voter whose
    induced order equals that voter's preference order; comparators that
    need cardinal information require them.
    """

    __slots__ = ("form", "prefs", "utilities")

    def __init__(
        self,
        form,
        prefs: Sequence[PreferenceOrder],
        utilities: Optional[Sequence[UtilityVector]] = None,
    ):
        if form.kind not in ("plurality", "tabular"):
            raise GameSpecError(f"unknown form kind {form.kind!r}")
        prefs = tuple(prefs)
        if len(prefs) != form.n:
            raise GameSpecError(f"need {form.n} preference orders, got {len(prefs)}")
        for p in prefs:
            if not isinstance(p, PreferenceOrder) or p.m != form.m:
                raise GameSpecError(f"bad preference order {p!r} for m={form.m}")
        if utilities is not None:
            utilities = tuple(utilities)
            if len(utilities) != form.n:
                raise GameSpecError("need one utility vector per voter")
            for i, u in enumerate(utilities):
                if not isinstance(u, UtilityVector) or u.m != form.m:
                    raise GameSpecError(f"bad utility vector for voter {i + 1}")
                if u.induced_order() != prefs[i]:
                    raise GameSpecError(
                        f"utilities of voter {i + 1} disagree with their ranking"
                    )
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "prefs", prefs)
        object.__setattr__(self, "utilities", utilities)

    def __setattr__(self, name, value):
        raise AttributeError("Game is immutable")

    @property
    def m(self) -> int:
        return self.form.m

    @property
    def n(self) -> int:
        return self.form.n

    def truthful_profile(self) -> Profile:
        """Every voter plays the action naming their best available candidate.

        With restricted ballots this is the most preferred candidate that the
        voter can actually vote for; actions that do not name a candidate are
        never truthful.
        """
        profile = []
        for i, pref in enumerate(self.prefs):
            named = [
                a
                for a in self.form.actions(i)
                if self.form.action_candidate(i, a) is not None
            ]
            if not named:
                raise GameSpecError(
                    f"voter {i + 1} has no candidate-named action to play truthfully"
                )
            best = min(
                named, key=lambda a: pref.rank[self.form.action_candidate(i, a)]
            )
            profile.append(best)
        return tuple(profile)

    def __eq__(self, other):
        return isinstance(other, Game) and (
            self.form,
            self.prefs,
            self.utilities,
        ) == (other.form, other.prefs, other.utilities)

    def __hash__(self):
        return hash(("game", self.form, self.prefs, self.utilities))

    def __repr__(self):
        u = "with utilities" if self.utilities else "ordinal"
        return f"Game({self.form!r}, {u})"


# ---------------------------------------------------------------------------
# module-level operations


def score_vector(form, profile: Profile) -> tuple:
    """Candidate scores under a plurality form (undefined for tables)."""
    if form.kind != "plurality":
        raise UnsupportedOperationError("score vectors exist only for plurality forms")
    form.validate_profile(profile)
    return form.score_vector(profile)


def outcome(form, profile: Profile) -> frozenset:
    """The winner set of a profile under either form kind."""
    form.validate_profile(profile)
    return form.outcome(profile)


def tabular_outcome(form, profile: Profile) -> frozenset:
    """Table lookup for explicit forms; errors on plurality forms."""
    if form.kind != "tabular":
        raise UnsupportedOperationError("tabular_outcome needs a tabular form")
    form.validate_profile(profile)
    return form.outcome(profile)


def truthful_profile(game: Game) -> Profile:
    return game.truthful_profile()


def default_names(m: int) -> tuple:
    """Single letters a, b, c, ... while they last, then c26, c27, ..."""
    base = "abcdefghijklmnopqrstuvwxyz"
    if m <= len(base):
        return tuple(base[:m])
    return tuple(base) + tuple(f"c{i}" for i in range(len(base), m))


def random_consistent_utilities(prefs: Sequence[PreferenceOrder], rng) -> tuple:
    """One utility vector per order: distinct random integers, descending
    along the ranking, so each induced order equals the given one."""
    out = []
    for pref in prefs:
        values = sorted(rng.sample(range(1, 100 * pref.m), pref.m), reverse=True)
        u = [0] * pref.m
        for pos, c in enumerate(pref.ranking):
            u[c] = values[pos]
        out.append(UtilityVector(u))
    return tuple(out)


def random_plurality_game(
    m: int, n: int, weight_bound: int, score_bound: int, tiebreak: TieBreak, rng
) -> Game:
    """A plurality game drawn from ``rng``: weights uniform on
    1..weight_bound, initial scores on 0..score_bound, uniform random
    preference orders, and consistent utilities under randomized ties."""
    form = PluralityForm(
        default_names(m),
        tuple(rng.randint(1, weight_bound) for _ in range(n)),
        tuple(rng.randint(0, score_bound) for _ in range(m)),
        tiebreak,
    )
    prefs = tuple(PreferenceOrder(rng.sample(range(m), m)) for _ in range(n))
    utilities = None
    if tiebreak is TieBreak.RANDOMIZED:
        utilities = random_consistent_utilities(prefs, rng)
    return Game(form, prefs, utilities)


def format_candidate_set(form, candidates: Iterable[int]) -> str:
    """Render a candidate set as ``{a,b}`` in candidate-index order."""
    return "{" + ",".join(form.names[c] for c in sorted(candidates)) + "}"


def format_profile(form, profile: Profile) -> str:
    """Render a profile as ``(b,c)`` using per-voter action names."""
    return "(" + ",".join(form.action_name(i, a) for i, a in enumerate(profile)) + ")"
