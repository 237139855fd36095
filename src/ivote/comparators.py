"""Comparing sets of potential winners.

When ties are broken at random, a reply changes one winner SET into another,
and whether that is an improvement depends on how a voter ranks sets. This
module implements the set comparators used by the dynamics:

* lexicographic singleton comparison (deterministic forms only),
* exact expected utility of a uniform draw from the set,
* stochastic dominance (SD) of the uniform lotteries,
* local dominance (LD), a structural sufficient condition,
* the bare "every member beats every member" test (axiom K alone),

plus the machinery used to relate them: match-domination via the block
matching construction, transitive closures of the axioms K, G and R over all
non-empty candidate subsets, and an adversarial utility builder that refutes
claimed dominances. All arithmetic is exact: probabilities are compared by
cross-multiplication and expected utilities are returned as fractions.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    ConfigurationError,
    Game,
    LimitError,
    PreferenceOrder,
    UtilityVector,
)


class SetComparison(Enum):
    STRICTLY_BETTER = "strictly_better"
    EQUAL = "equal"
    STRICTLY_WORSE = "strictly_worse"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "SetComparison":
        return _FLIPPED[self]


class ComparatorMode(Enum):
    LEX_SINGLETON = "lex"
    EXPECTED_UTILITY = "eu"
    STOCHASTIC_DOMINANCE = "sd"
    LOCAL_DOMINANCE = "ld"
    K_ONLY = "k"


_SB = SetComparison.STRICTLY_BETTER
_EQ = SetComparison.EQUAL
_SW = SetComparison.STRICTLY_WORSE
_IC = SetComparison.INCOMPARABLE
_FLIPPED = {_SB: _SW, _EQ: _EQ, _SW: _SB, _IC: _IC}


def lex_compare(order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]) -> SetComparison:
    """Compare two single winners by the voter's order (deterministic
    forms); sets of any other size are a usage error."""
    try:
        (x,) = X
        (y,) = Y
    except ValueError:
        raise ConfigurationError(
            "lexicographic comparison is defined on single winners only"
        ) from None
    if x == y:
        return _EQ
    rank = order.rank
    return _SB if rank[x] < rank[y] else _SW


def expected_utility(utility: UtilityVector, subset: Iterable[int]) -> Fraction:
    """Exact mean utility of a uniform draw from ``subset``."""
    subset = frozenset(subset)
    if not subset:
        raise ConfigurationError("expected utility of an empty set is undefined")
    return Fraction(sum(Fraction(utility[c]) for c in subset), len(subset))


def eu_compare(utility, X: Iterable[int], Y: Iterable[int]) -> SetComparison:
    """Compare mean utilities exactly; EQUAL means indifference, so two
    different sets with the same mean compare EQUAL."""
    X = frozenset(X)
    Y = frozenset(Y)
    values = utility.values if isinstance(utility, UtilityVector) else utility
    # cross-multiplied means: sum(X)*|Y| vs sum(Y)*|X|, no division
    lhs = sum(values[c] for c in X) * len(Y)
    rhs = sum(values[c] for c in Y) * len(X)
    if lhs > rhs:
        return _SB
    if lhs < rhs:
        return _SW
    return _EQ


def sd_compare(order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]) -> SetComparison:
    """Stochastic dominance between uniform draws from X and from Y.

    X dominates Y when, for every candidate threshold, drawing from X gives
    at least the probability of drawing something at least as good, with
    strict inequality somewhere.
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return _EQ
    kx, ky = len(X), len(Y)
    ge = le = True  # X's upper cdf >= / <= Y's at every threshold so far
    cx = cy = 0
    for c in order.ranking:
        if c in X:
            cx += 1
        if c in Y:
            cy += 1
        lhs = cx * ky
        rhs = cy * kx
        if lhs < rhs:
            ge = False
        if lhs > rhs:
            le = False
    if ge and not le:
        return _SB
    if le and not ge:
        return _SW
    if ge and le:
        return _EQ  # identical lotteries; unreachable for distinct sets
    return _IC


def ld_compare(order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]) -> SetComparison:
    """Local dominance via the shared-part test.

    With Z = X n Y, X' = X - Z and Y' = Y - Z, X dominates Y exactly when
    every member of X beats every member of Y' and every member of X' beats
    every member of Y. Equivalent to requiring that every joint tie-breaking
    order resolves X at least as well as Y (see ld_compare_by_orders).
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return _EQ
    rank = order.rank
    Z = X & Y
    Xp = X - Z
    Yp = Y - Z

    def dominates(A, B, Ap, Bp):
        return all(rank[a] < rank[b] for a in A for b in Bp) and all(
            rank[a] < rank[b] for a in Ap for b in B
        )

    if dominates(X, Y, Xp, Yp):
        return _SB
    if dominates(Y, X, Yp, Xp):
        return _SW
    return _IC


def ld_compare_by_orders(
    order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]
) -> SetComparison:
    """Brute-force oracle for local dominance.

    Enumerates every strict order L over the candidates, resolves each set to
    its L-first member, and requires the X resolution to be weakly preferred
    in every case and strictly somewhere. Exponential; only sensible for
    small m.
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return _EQ
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
        return _SB
    if dominates(Y, X):
        return _SW
    return _IC


def k_compare(order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]) -> SetComparison:
    """Axiom K alone: X beats Y only when all of X beats all of Y."""
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return _EQ
    rank = order.rank
    if all(rank[x] < rank[y] for x in X for y in Y):
        return _SB
    if all(rank[y] < rank[x] for x in X for y in Y):
        return _SW
    return _IC


def reversed_order(order: PreferenceOrder) -> PreferenceOrder:
    return PreferenceOrder(tuple(reversed(order.ranking)))


def match_dominates(order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]) -> bool:
    """Strict dominance via the block-matching construction.

    Sort both sets by increasing preference. With k = |X| <= K = |Y|, member
    x_j must be weakly preferred to every member of the j-th block of Y,
    whose upper end is ceil(j*K/k); the domination is strict when some
    matched pair is strict or the blocks are uneven (K not divisible by k).
    When |X| > |Y| the roles are swapped under the reversed order.
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if X == Y:
        return False
    if len(X) > len(Y):
        return match_dominates(reversed_order(order), Y, X)
    rank = order.rank
    # increasing preference = worst candidate first
    xs = sorted(X, key=lambda c: -rank[c])
    ys = sorted(Y, key=lambda c: -rank[c])
    k, K = len(xs), len(ys)
    strict = False
    lo = 0
    for j in range(1, k + 1):
        hi = -(-j * K // k)  # ceil(j*K/k)
        x = xs[j - 1]
        for y in ys[lo:hi]:
            if rank[x] > rank[y]:
                return False
            if rank[x] < rank[y]:
                strict = True
        lo = hi
    return strict or K % k != 0


# ---------------------------------------------------------------------------
# axiom closures


_AXIOMS = frozenset("KGR")


class SetDominance:
    """An explicit strict dominance relation over non-empty candidate subsets.

    Subsets are encoded as bitmasks internally; ``holds(X, Y)`` answers
    whether X was derived to strictly dominate Y.
    """

    __slots__ = ("m", "_rel")

    def __init__(self, m: int, rel):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_rel", rel)

    def __setattr__(self, name, value):
        raise AttributeError("SetDominance is immutable")

    @staticmethod
    def _mask(subset) -> int:
        mask = 0
        for c in subset:
            mask |= 1 << c
        return mask

    def holds(self, X: Iterable[int], Y: Iterable[int]) -> bool:
        return self._mask(Y) in self._rel.get(self._mask(X), ())

    def pairs(self):
        """All derived (X, Y) pairs as frozensets, in deterministic order."""
        out = []
        for x_mask in sorted(self._rel):
            for y_mask in sorted(self._rel[x_mask]):
                X = frozenset(c for c in range(self.m) if x_mask >> c & 1)
                Y = frozenset(c for c in range(self.m) if y_mask >> c & 1)
                out.append((X, Y))
        return tuple(out)


def axiom_closure(order: PreferenceOrder, axioms: Iterable[str] = "KGR") -> SetDominance:
    """Transitive closure of the chosen dominance axioms.

    Axioms, for a voter with strict order ``order``:

    * K: if every member of X is preferred to every member of Y, X beats Y.
    * G: joining a candidate preferred to every member of W improves W
      (W u {a} beats W), and joining one that every member beats worsens it
      (W beats W u {a}).
    * R: if a is preferred to b, then {a} u W beats {b} u W for any W
      containing neither (W may be empty).

    Only m <= 6 is supported (the relation is over all non-empty subsets).
    """
    axioms = frozenset(axioms)
    if not axioms or not axioms <= _AXIOMS:
        raise ConfigurationError(f"axioms must be a non-empty subset of K,G,R: {axioms!r}")
    m = order.m
    if m > 6:
        raise LimitError("axiom closures are limited to at most 6 candidates")
    rank = order.rank
    full = (1 << m) - 1
    rel = {mask: set() for mask in range(1, full + 1)}

    def members(mask):
        return [c for c in range(m) if mask >> c & 1]

    if "K" in axioms:
        for xm in range(1, full + 1):
            worst_x = max(rank[c] for c in members(xm))
            for ym in range(1, full + 1):
                if xm & ym:
                    continue
                if worst_x < min(rank[c] for c in members(ym)):
                    rel[xm].add(ym)
    if "G" in axioms:
        for a in range(m):
            am = 1 << a
            below = 0
            above = 0
            for c in range(m):
                if c == a:
                    continue
                if rank[a] < rank[c]:
                    below |= 1 << c
                else:
                    above |= 1 << c
            wm = below
            while wm:  # non-empty W entirely worse than a: W u {a} beats W
                rel[am | wm].add(wm)
                wm = (wm - 1) & below
            wm = above
            while wm:  # non-empty W entirely better than a: W beats W u {a}
                rel[wm].add(am | wm)
                wm = (wm - 1) & above
    if "R" in axioms:
        for a in range(m):
            for b in range(m):
                if a == b or rank[a] >= rank[b]:
                    continue
                others = full & ~(1 << a) & ~(1 << b)
                wm = others
                while True:  # includes the empty W
                    rel[(1 << a) | wm].add((1 << b) | wm)
                    if wm == 0:
                        break
                    wm = (wm - 1) & others
    # transitive closure (Warshall over subset masks)
    masks = list(range(1, full + 1))
    for k in masks:
        rel_k = rel[k]
        if not rel_k:
            continue
        for i in masks:
            if k in rel[i]:
                rel[i] |= rel_k
    return SetDominance(m, {k: frozenset(v) for k, v in rel.items() if v})


def single_vote_adjacent(X: Iterable[int], Y: Iterable[int]) -> bool:
    """True when the pair can arise from a single vote change.

    One vote moves at most one candidate in and at most one out of the
    winner set, so adjacent pairs differ by adding, removing or swapping one
    candidate; any pair with a singleton side also qualifies (the whole set
    collapses onto one winner).
    """
    X = frozenset(X)
    Y = frozenset(Y)
    if len(X) == 1 or len(Y) == 1:
        return True
    return len(X - Y) <= 1 and len(Y - X) <= 1


def adversarial_utility(
    order: PreferenceOrder, X: Iterable[int], Y: Iterable[int]
) -> tuple:
    """A weakly order-consistent utility that refutes a dominance claim.

    Returns a 0/1 utility vector u (1 on every candidate at least as good as
    a chosen threshold). If X does not weakly stochastically dominate Y, the
    threshold is the one where X's upper cdf falls furthest below Y's, and
    the uniform expectations then satisfy EU_u(Y) > EU_u(X). The vector is
    weakly consistent with ``order`` (never reverses a strict preference).
    """
    X = frozenset(X)
    Y = frozenset(Y)
    rank = order.rank
    kx, ky = len(X), len(Y)
    best_gap = None
    best_t = 0
    cx = cy = 0
    for t, c in enumerate(order.ranking):
        if c in X:
            cx += 1
        if c in Y:
            cy += 1
        gap = cx * ky - cy * kx
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best_t = t
    return tuple(1 if rank[c] <= best_t else 0 for c in range(order.m))


# ---------------------------------------------------------------------------
# comparator objects bound to a game


# mode -> (the set comparison, whether it reads a voter's utilities rather
# than their preference order)
_COMPARATORS = {
    ComparatorMode.LEX_SINGLETON: (lex_compare, False),
    ComparatorMode.EXPECTED_UTILITY: (eu_compare, True),
    ComparatorMode.STOCHASTIC_DOMINANCE: (sd_compare, False),
    ComparatorMode.LOCAL_DOMINANCE: (ld_compare, False),
    ComparatorMode.K_ONLY: (k_compare, False),
}


def compare(
    mode: ComparatorMode,
    X: Iterable[int],
    Y: Iterable[int],
    order: Optional[PreferenceOrder] = None,
    utility: Optional[UtilityVector] = None,
) -> SetComparison:
    """One-shot comparison of two winner sets under any mode."""
    X = frozenset(X)
    Y = frozenset(Y)
    try:
        relation, on_utilities = _COMPARATORS[mode]
    except KeyError:
        raise ConfigurationError(f"unknown comparator mode {mode!r}") from None
    if on_utilities:
        if utility is None:
            raise ConfigurationError("expected-utility comparison needs utilities")
        return relation(utility, X, Y)
    if order is None:
        raise ConfigurationError(f"{mode.value} comparison needs a preference order")
    return relation(order, X, Y)


class OutcomeComparator:
    """Winner-set comparison for the voters of one game, with caching.

    Validates up front that the game supports the mode: expected utility
    needs utility vectors, and the lexicographic mode needs a form whose
    outcomes are always singletons. Lexicographic verdicts are not cached:
    two rank lookups cost less than a cache probe.
    """

    def __init__(self, game: Game, mode: ComparatorMode):
        if mode is ComparatorMode.EXPECTED_UTILITY and game.utilities is None:
            raise ConfigurationError(
                "expected-utility comparison needs a game with utilities"
            )
        if mode is ComparatorMode.LEX_SINGLETON and not game.form.deterministic:
            raise ConfigurationError("lexicographic comparison needs a deterministic form")
        self.game = game
        self.mode = mode
        self._relation, on_utilities = _COMPARATORS[mode]
        self._voters = game.utilities if on_utilities else game.prefs
        self._cache = None if mode is ComparatorMode.LEX_SINGLETON else {}

    def compare(self, voter: int, X: frozenset, Y: frozenset) -> SetComparison:
        cache = self._cache
        if cache is None:
            return self._relation(self._voters[voter], X, Y)
        key = (voter, X, Y)
        hit = cache.get(key)
        if hit is not None:
            return hit
        verdict = cache[key] = self._relation(self._voters[voter], X, Y)
        cache[(voter, Y, X)] = verdict.flipped()
        return verdict

    def is_improvement(self, voter: int, old: frozenset, new: frozenset) -> bool:
        return self.compare(voter, new, old) is _SB
