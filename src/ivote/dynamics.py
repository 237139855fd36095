"""Reply dynamics: who may move, to what, and what a play path looks like.

A state is an action profile. A voter's moves at a state are filtered by a
:class:`ReplyPolicy`:

* BETTER - any action whose outcome the voter strictly prefers;
* BEST - better replies whose resulting outcome is comparator-maximal among
  the voter's better replies (note: maximal OUTCOME, not the most preferred
  ballot);
* DIRECT - better replies that vote for a candidate who then actually wins;
* DIRECT_BEST - direct members of the best set, with outcome ties broken
  toward the lowest candidate index, so at most one action remains.

Steps are classified by where the old and new votes sit relative to the
winner sets: type 1 (old vote was losing, new vote wins), type 2 (old vote
was winning, new vote wins), type 3 (new vote does not win). Direct steps
are exactly the types 1 and 2.

A scheduler picks the mover among the voters that have moves, and then one
of the allowed actions. Play stops at a state with no movers (converged), on
revisiting a profile (cycle), or when a step bound or script runs out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Optional, Sequence

from .core import (
    ConfigurationError,
    Game,
    GameSpecError,
    Profile,
    ScheduleError,
    format_candidate_set,
)
from .comparators import ComparatorMode, OutcomeComparator, SetComparison


class ReplyKind(Enum):
    BETTER = "better"
    BEST = "best"
    DIRECT = "direct"
    DIRECT_BEST = "direct-best"


# the members as plain globals: reading one off the class costs a descriptor
# call, and the graph builder selects replies once per (state, voter)
_BETTER, _BEST, _DIRECT = ReplyKind.BETTER, ReplyKind.BEST, ReplyKind.DIRECT


@dataclass(frozen=True)
class ReplyPolicy:
    """A reply kind plus the comparator used to judge improvements."""

    kind: ReplyKind
    comparator: ComparatorMode

    def describe(self) -> str:
        return f"{self.kind.value}/{self.comparator.value}"


def default_comparator(game: Game) -> ComparatorMode:
    """The natural comparator for a game: lexicographic when outcomes are
    single winners, otherwise expected utility when utilities are present,
    otherwise stochastic dominance."""
    if game.form.deterministic:
        return ComparatorMode.LEX_SINGLETON
    if game.utilities is not None:
        return ComparatorMode.EXPECTED_UTILITY
    return ComparatorMode.STOCHASTIC_DOMINANCE


def default_policy(game: Game, kind: ReplyKind = ReplyKind.BETTER) -> ReplyPolicy:
    return ReplyPolicy(kind, default_comparator(game))


def select_replies(kind: ReplyKind, better: list, beats) -> list:
    """The moves ``kind`` allows among one voter's better replies at a state.

    ``better`` lists those replies in action order, each a tuple that starts
    ``(action, outcome, named candidate or None)``; further fields ride
    along. ``beats(y, x)`` tells whether the voter strictly prefers outcome
    y to outcome x. The result keeps action order; DIRECT_BEST keeps at most
    one reply, the one naming the lowest candidate.
    """
    if kind is _BETTER:
        return better
    if kind is not _DIRECT:
        # outcome-maximal replies; an outcome never beats itself
        better = [r for r in better if not any(beats(s[1], r[1]) for s in better)]
        if kind is _BEST:
            return better
    direct = [r for r in better if r[2] in r[1]]
    if kind is _DIRECT or not direct:
        return direct
    return [min(direct, key=itemgetter(2))]


def improvement_set(
    game: Game,
    profile: Profile,
    voter: int,
    policy: ReplyPolicy,
    comparator: Optional[OutcomeComparator] = None,
) -> tuple:
    """The actions ``voter`` may move to at ``profile`` under ``policy``,
    in increasing action order (see ``select_replies``)."""
    comp = comparator if comparator is not None else OutcomeComparator(game, policy.comparator)
    form = game.form
    old_out = form.outcome(profile)
    before = profile[:voter]
    after = profile[voter + 1 :]

    def beats(y, x):
        return comp.compare(voter, y, x) is SetComparison.STRICTLY_BETTER

    better = []
    for a in form.actions(voter):
        if a != profile[voter]:
            new_out = form.outcome(before + (a,) + after)
            if beats(new_out, old_out):
                better.append((a, new_out, form.action_candidate(voter, a)))
    return tuple(r[0] for r in select_replies(policy.kind, better, beats))


# ---------------------------------------------------------------------------
# step classification


@dataclass(frozen=True)
class StepRecord:
    """One improvement step, 1-based step index and 0-based voter."""

    step: int
    voter: int
    from_action: int
    to_action: int
    old_outcome: frozenset
    new_outcome: frozenset
    step_type: int
    direct: bool


def classify_step(
    form,
    old_profile: Profile,
    new_profile: Profile,
    old_outcome: Optional[frozenset] = None,
    new_outcome: Optional[frozenset] = None,
    voter: Optional[int] = None,
    step: int = 1,
) -> StepRecord:
    """Classify the single-voter step between two profiles.

    The mover is inferred when not given; profiles differing in any number
    of positions other than one are rejected. Outcomes are recomputed unless
    supplied. The typology is total: type 3 whenever the new vote is not a
    winner afterwards, else type 2/1 by whether the old vote was a winner.
    """
    if len(old_profile) != len(new_profile):
        raise GameSpecError("profiles of different lengths")
    diff = [i for i, (a, b) in enumerate(zip(old_profile, new_profile)) if a != b]
    if voter is None:
        if len(diff) != 1:
            raise GameSpecError(f"expected exactly one changed vote, got {len(diff)}")
        voter = diff[0]
    elif diff != [voter]:
        raise GameSpecError(f"voter {voter + 1} is not the unique mover")
    if old_outcome is None:
        old_outcome = form.outcome(old_profile)
    if new_outcome is None:
        new_outcome = form.outcome(new_profile)
    old_c = form.action_candidate(voter, old_profile[voter])
    new_c = form.action_candidate(voter, new_profile[voter])
    old_in = old_c is not None and old_c in old_outcome
    new_in = new_c is not None and new_c in new_outcome
    if not new_in:
        kind = 3
    elif old_in:
        kind = 2
    else:
        kind = 1
    return StepRecord(
        step=step,
        voter=voter,
        from_action=old_profile[voter],
        to_action=new_profile[voter],
        old_outcome=old_outcome,
        new_outcome=new_outcome,
        step_type=kind,
        direct=new_in,
    )


def format_trace(form, steps: Sequence[StepRecord]) -> tuple:
    """Render steps as ``t voter from to old_winners new_winners type direct``
    lines, voters 1-based and sets in candidate order."""
    lines = []
    for rec in steps:
        lines.append(
            f"{rec.step} {rec.voter + 1} "
            f"{form.action_name(rec.voter, rec.from_action)} "
            f"{form.action_name(rec.voter, rec.to_action)} "
            f"{format_candidate_set(form, rec.old_outcome)} "
            f"{format_candidate_set(form, rec.new_outcome)} "
            f"{rec.step_type} {'true' if rec.direct else 'false'}"
        )
    return tuple(lines)


# ---------------------------------------------------------------------------
# schedulers


@dataclass(frozen=True)
class RoundRobin:
    """Cycle through voters from ``start``, skipping those with no move."""

    start: int = 0


@dataclass(frozen=True)
class FixedPriority:
    """Always the highest-priority voter (first in ``order``) with a move."""

    order: tuple


@dataclass(frozen=True)
class RandomAgents:
    """Uniform choice among the voters with a move, from a seeded stream."""

    seed: int = 0


@dataclass(frozen=True)
class ScriptedAgents:
    """An explicit mover per step; errors if a scripted voter cannot move."""

    voters: tuple


@dataclass(frozen=True)
class UniqueAction:
    """Requires the policy to allow exactly one action; errors otherwise."""


@dataclass(frozen=True)
class MostPreferredAction:
    """The allowed action naming the voter's most preferred candidate.

    This ranks the BALLOTS, not the resulting outcomes (the policy already
    filtered by outcome); actions naming no candidate rank last and fall
    back to lowest action index. Deterministic plumbing default.
    """


@dataclass(frozen=True)
class RandomActions:
    """Uniform choice among the allowed actions, from a seeded stream."""

    seed: int = 0


@dataclass(frozen=True)
class ScriptedActions:
    """An explicit action per step; errors if one is not allowed."""

    actions: tuple


@dataclass(frozen=True)
class SchedulerSpec:
    """An agent rule plus an action rule."""

    agents: object = field(default_factory=RoundRobin)
    actions: object = field(default_factory=MostPreferredAction)


class PathStatus(Enum):
    CONVERGED = "converged"
    CYCLE = "cycle"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class PathResult:
    """A play path: visited states, step records, and how play ended.

    ``states`` has one more entry than ``steps``. On a cycle, the last state
    equals ``states[cycle_start]`` and the closing walk is
    ``states[cycle_start:]``.
    """

    status: PathStatus
    states: tuple
    steps: tuple
    cycle_start: Optional[int] = None

    @property
    def final_state(self) -> Profile:
        return self.states[-1]

    @property
    def cycle_length(self) -> Optional[int]:
        if self.cycle_start is None:
            return None
        return len(self.states) - 1 - self.cycle_start


class _AgentPicker:
    def __init__(self, rule, n):
        self.rule = rule
        self.n = n
        if isinstance(rule, RoundRobin):
            if not 0 <= rule.start < n:
                raise ConfigurationError(f"round-robin start {rule.start} out of range")
            self.pointer = rule.start
        elif isinstance(rule, FixedPriority):
            if sorted(rule.order) != list(range(n)):
                raise ConfigurationError(
                    f"priority order must be a permutation of the voters: {rule.order!r}"
                )
        elif isinstance(rule, RandomAgents):
            self.rng = random.Random(rule.seed)
        elif isinstance(rule, ScriptedAgents):
            for v in rule.voters:
                if not 0 <= v < n:
                    raise ConfigurationError(f"scripted voter {v} out of range")
            self.script = list(rule.voters)
            self.at = 0
        else:
            raise ConfigurationError(f"unknown agent rule {rule!r}")

    def exhausted(self) -> bool:
        return isinstance(self.rule, ScriptedAgents) and self.at >= len(self.script)

    def pick(self, movers):
        # movers is a non-empty sorted list of voters with a legal move
        if isinstance(self.rule, RoundRobin):
            for off in range(self.n):
                v = (self.pointer + off) % self.n
                if v in movers:
                    self.pointer = (v + 1) % self.n
                    return v
        if isinstance(self.rule, FixedPriority):
            for v in self.rule.order:
                if v in movers:
                    return v
        if isinstance(self.rule, RandomAgents):
            return self.rng.choice(movers)
        v = self.script[self.at]
        self.at += 1
        if v not in movers:
            raise ScheduleError(
                f"scripted voter {v + 1} has no allowed move at step {self.at}"
            )
        return v


class _ActionPicker:
    def __init__(self, rule, game):
        self.rule = rule
        self.game = game
        if isinstance(rule, RandomActions):
            self.rng = random.Random(rule.seed)
        elif isinstance(rule, ScriptedActions):
            self.script = list(rule.actions)
            self.at = 0
        elif not isinstance(rule, (UniqueAction, MostPreferredAction)):
            raise ConfigurationError(f"unknown action rule {rule!r}")

    def exhausted(self) -> bool:
        return isinstance(self.rule, ScriptedActions) and self.at >= len(self.script)

    def pick(self, voter, allowed, step):
        if isinstance(self.rule, UniqueAction):
            if len(allowed) != 1:
                raise ScheduleError(
                    f"step {step}: voter {voter + 1} has {len(allowed)} allowed "
                    f"actions but the schedule requires exactly one"
                )
            return allowed[0]
        if isinstance(self.rule, MostPreferredAction):
            form = self.game.form
            rank = self.game.prefs[voter].rank

            def key(a):
                c = form.action_candidate(voter, a)
                return (0, rank[c]) if c is not None else (1, a)

            return min(allowed, key=key)
        if isinstance(self.rule, RandomActions):
            return self.rng.choice(list(allowed))
        a = self.script[self.at]
        self.at += 1
        if a not in allowed:
            raise ScheduleError(
                f"step {step}: scripted action {a!r} of voter {voter + 1} "
                f"is not an allowed move"
            )
        return a


def run_path(
    game: Game,
    start: Profile,
    policy: ReplyPolicy,
    scheduler: Optional[SchedulerSpec] = None,
    max_steps: int = 10_000,
) -> PathResult:
    """Play the dynamics from ``start`` until convergence, a revisited
    profile, script exhaustion, or ``max_steps``.

    Script exhaustion at a state with no movers counts as convergence;
    with movers remaining it truncates the run.
    """
    if max_steps < 0:
        raise ConfigurationError(f"step bound must be a non-negative integer: {max_steps}")
    if scheduler is None:
        scheduler = SchedulerSpec()
    start = tuple(start)
    game.form.validate_profile(start)
    comp = OutcomeComparator(game, policy.comparator)
    agents = _AgentPicker(scheduler.agents, game.n)
    actions = _ActionPicker(scheduler.actions, game)
    states = [start]
    seen = {start: 0}
    steps = []
    state = start
    form = game.form
    while True:
        allowed_by = {}
        for v in range(game.n):
            moves = improvement_set(game, state, v, policy, comp)
            if moves:
                allowed_by[v] = moves
        movers = sorted(allowed_by)
        if not movers:
            return PathResult(PathStatus.CONVERGED, tuple(states), tuple(steps))
        if agents.exhausted() or actions.exhausted():
            return PathResult(PathStatus.TRUNCATED, tuple(states), tuple(steps))
        if len(steps) >= max_steps:
            return PathResult(PathStatus.TRUNCATED, tuple(states), tuple(steps))
        voter = agents.pick(movers)
        action = actions.pick(voter, allowed_by[voter], len(steps) + 1)
        new_state = state[:voter] + (action,) + state[voter + 1 :]
        steps.append(
            classify_step(
                form,
                state,
                new_state,
                voter=voter,
                step=len(steps) + 1,
            )
        )
        states.append(new_state)
        if new_state in seen:
            return PathResult(
                PathStatus.CYCLE, tuple(states), tuple(steps), seen[new_state]
            )
        seen[new_state] = len(states) - 1
        state = new_state
