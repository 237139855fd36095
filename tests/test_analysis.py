"""Reply graphs, acyclicity classes, reports, and scans."""

import dataclasses
import gc
import itertools
import operator
import random
import time
import tracemalloc
from array import array
from fractions import Fraction
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ivote import (
    BetterReplyGraph,
    ComparatorMode,
    ConfigurationError,
    FormReport,
    Game,
    GameParams,
    GameSpecError,
    LimitError,
    PluralityForm,
    PreferenceOrder,
    ReplyKind,
    ReplyPolicy,
    ScanParams,
    TabularForm,
    TieBreak,
    UnsupportedOperationError,
    UtilityVector,
    build_graph,
    catalog_entry,
    classify_game,
    classify_game_form,
    conjecture_scan,
    default_names,
    default_node_limit,
    default_policy,
    direct_closure,
    format_profile,
    from_state,
    hierarchy_holds,
    improvement_set,
    is_fip,
    is_restricted_fip,
    is_weak_fip,
    longest_convergence_path,
    nash_equilibria,
    random_consistent_utilities,
    random_game,
    render_form_report,
    render_game_report,
    render_scan_report,
    restricted_action_defining_plurality,
    restricted_action_form,
    sinks,
    truthful_profile,
)
from ivote import analysis, cli
from ivote.analysis import (
    PROPERTIES,
    Edge,
    _Skeleton,
    _assemble,
    _attractor,
    _preference_profiles,
    _reachable,
    _reply_graph,
    _restriction,
    _scc_partition,
    _violations,
    _voter_blocks,
    longest_path_from,
)
from ivote.comparators import OutcomeComparator, SetComparison, eu_compare
from ivote.dynamics import run_path, SchedulerSpec, RoundRobin

BETTER_LEX = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.LEX_SINGLETON)
BEST_LEX = ReplyPolicy(ReplyKind.BEST, ComparatorMode.LEX_SINGLETON)
DIRECT_LEX = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.LEX_SINGLETON)
DIRECT_BEST_LEX = ReplyPolicy(ReplyKind.DIRECT_BEST, ComparatorMode.LEX_SINGLETON)
BETTER_SD = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.STOCHASTIC_DOMINANCE)


def fork_game():
    form = PluralityForm(("a", "b", "c"), (1, 1), (0, 2, 1))
    return Game(form, (PreferenceOrder((1, 0, 2)), PreferenceOrder((2, 1, 0))))


def ring_game():
    """A closed 4-cycle of single better replies plus an equilibrium that
    only the states outside the cycle can reach."""
    names = ("a", "b", "c")
    labels = (("p0", "p1", "p2"), ("q0", "q1", "q2"))
    table = {
        (0, 0): {1},
        (1, 0): {0},
        (1, 1): {1},
        (0, 1): {0},
        (2, 0): {2},
        (2, 1): {2},
        (0, 2): {2},
        (1, 2): {2},
        (2, 2): {0},
    }
    form = TabularForm(names, labels, table)
    return Game(form, (PreferenceOrder((0, 1, 2)), PreferenceOrder((1, 0, 2))))


RING_CYCLE = {(0, 0), (1, 0), (1, 1), (0, 1)}


def walk_route(graph, route, start):
    """Follow a weak-FIP route witness to its sink; asserts well-formedness."""
    node = start
    hops = 0
    while route[node] is not None:
        edge = graph.edges[route[node]]
        assert edge.src == node
        node = edge.dst
        hops += 1
        assert hops <= graph.num_nodes
    assert graph.out_edges[node] == ()
    return node


def assert_closed_walk(graph, cycle, inside):
    """``cycle`` is a closed walk of ``graph``'s edges through states of
    ``inside`` only."""
    assert cycle
    edges = set(graph.edges)
    for e, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert e in edges and e.src in inside
        assert e.dst == nxt.src


def selection_subgraph(graph, selection):
    """The graph of the selected edges only, with its own edge ids."""
    for (node, voter), eid in selection.items():
        assert eid in graph.slot_edges(node, voter)
    kept = sorted(selection.values())
    offsets = array("i", [0] * (graph.num_nodes + 1))
    for eid in kept:
        offsets[graph.src[eid] + 1] += 1
    for i in range(graph.num_nodes):
        offsets[i + 1] += offsets[i]
    columns = (
        array("i", (getattr(graph, name)[eid] for eid in kept))
        for name in ("src", "voter", "action", "dst")
    )
    sub = BetterReplyGraph(
        graph.game, graph.policy, graph.profiles, graph.outcomes, offsets, *columns
    )
    assert_views_match_columns(sub)
    return sub


def assert_valid_selection(graph, selection):
    """``selection`` picks one of its own edges for every (node, voter) slot
    of ``graph``, and the picked edges form an acyclic graph."""
    assert set(selection) == {(e.src, e.voter) for e in graph.edges}
    assert is_fip(selection_subgraph(graph, selection)).holds


def reference_selection(graph, acyclic):
    """The restriction certificate as a plain dict, kept apart from the
    library's array-backed view (``RestrictedFipResult.selection``) as its
    oracle: each (node, voter) slot's first edge when the graph is
    ``acyclic``, else the edge that settled the slot in the slot attractor
    of the sinks; None when some node stays outside that attractor."""
    first = {}
    for eid, key in enumerate(zip(graph.src, graph.voter)):
        first.setdefault(key, eid)
    if acyclic:
        return first
    starts = list(first.values())
    lengths = map(operator.sub, [*starts[1:], graph.num_edges], starts)
    slot = [k for k, length in enumerate(lengths) for _ in range(length)]
    slot_node = [i for i, _ in first]
    pending = [0] * graph.num_nodes
    for i in slot_node:
        pending[i] += 1
    order, settled_by = _attractor(
        graph.num_nodes, graph.dst, slot, slot_node, pending, sinks(graph)
    )
    if len(order) < graph.num_nodes:
        return None
    return dict(zip(first, settled_by))


def reference_route(graph):
    """The weak-FIP route as a plain tuple: per node the edge that brought
    it into the attractor of the sinks, None at sinks; None when some node
    stays outside that attractor."""
    n = graph.num_nodes
    order, settled_by = _attractor(
        n, graph.dst, graph.src, range(n), [1] * n, sinks(graph)
    )
    if len(order) < n:
        return None
    return tuple(None if e == -1 else e for e in settled_by)


def assert_acts_as_tuple(view, want):
    """``view`` answers as the tuple ``want`` does: length, indexing with
    negative ids and slices, IndexError past either end, iteration, ==
    both ways, hash and repr."""
    assert len(view) == len(want)
    assert list(view) == list(want)
    assert [view[i] for i in range(len(want))] == list(want)
    assert [view[-i] for i in range(1, len(want) + 1)] == list(want[::-1])
    assert view[1:3] == want[1:3] and view[::-2] == want[::-2]
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            view[bad]
    assert view == want and want == view and not view != want
    assert view != want + (None,) and view != list(want)
    assert hash(view) == hash(want)
    assert repr(view) == repr(want)


def assert_acts_as_dict(view, want):
    """``view`` answers as the dict ``want`` does: items, keys and values
    in order, lookups, misses, ==, repr, and no hash."""
    assert len(view) == len(want)
    assert list(view.items()) == list(want.items())
    assert list(view) == list(want) and list(view.keys()) == list(want.keys())
    assert list(view.values()) == list(want.values())
    for key, eid in want.items():
        assert view[key] == eid and key in view and (key, eid) in view.items()
    for missing in ((-1, 0), (10**6, 0), (0, 10**6), "slot", (0,)):
        assert missing not in view and view.get(missing) is None
        with pytest.raises(KeyError):
            view[missing]
    assert view == want and want == view and not view != want
    assert repr(view) == repr(want)
    with pytest.raises(TypeError):
        hash(view)


def assert_valid_trap(graph, trap):
    """``trap`` lists states ascending, none of them a sink, and at each of
    them some voter has moves that all stay inside ``trap``: from there,
    every restriction can move forever without leaving it."""
    assert trap and list(trap) == sorted(set(trap))
    inside = set(trap)
    for node in trap:
        voters = set(graph.voter[graph.offsets[node] : graph.offsets[node + 1]])
        assert voters, f"trap state {node} is a sink"
        assert any(
            all(graph.dst[e] in inside for e in graph.slot_edges(node, v))
            for v in voters
        ), f"every voter can leave the trap at state {node}"


# ---------------------------------------------------------------------------
# graph construction


def test_graph_edges_match_improvement_sets():
    sd_game = catalog_entry("random_tie_better_cycle").game
    cases = [
        (fork_game(), BETTER_LEX),
        (fork_game(), BEST_LEX),
        (fork_game(), DIRECT_LEX),
        (fork_game(), DIRECT_BEST_LEX),
        (sd_game, BETTER_SD),
        (sd_game, ReplyPolicy(ReplyKind.DIRECT_BEST, ComparatorMode.STOCHASTIC_DOMINANCE)),
    ]
    for game, policy in cases:
        assert_matches_improvement_sets(build_graph(game, policy))


def reference_improvement_set(game, profile, voter, policy, comparator=None):
    """The plain per-state reply filter, kept apart from the library's
    shared rule (``dynamics.select_replies``) so that the graph builder and
    ``improvement_set`` are each checked against an independent oracle.

    Returned in increasing action order. DIRECT_BEST returns at most one
    action (lowest candidate index among the direct, outcome-maximal ones).
    """
    comp = comparator if comparator is not None else OutcomeComparator(game, policy.comparator)
    form = game.form
    current = profile[voter]
    old_out = form.outcome(profile)
    improving = []
    outs = {}
    before = profile[:voter]
    after = profile[voter + 1 :]
    for a in form.actions(voter):
        if a == current:
            continue
        new_out = form.outcome(before + (a,) + after)
        if comp.compare(voter, new_out, old_out) is SetComparison.STRICTLY_BETTER:
            improving.append(a)
            outs[a] = new_out
    kind = policy.kind
    if kind is ReplyKind.BETTER:
        return tuple(improving)

    def is_direct(a):
        c = form.action_candidate(voter, a)
        return c is not None and c in outs[a]

    if kind is ReplyKind.DIRECT:
        return tuple(a for a in improving if is_direct(a))
    # best replies: keep actions whose outcome no other better reply beats
    best = []
    for a in improving:
        if not any(
            b != a
            and comp.compare(voter, outs[b], outs[a]) is SetComparison.STRICTLY_BETTER
            for b in improving
        ):
            best.append(a)
    if kind is ReplyKind.BEST:
        return tuple(best)
    direct_best = [a for a in best if is_direct(a)]
    if not direct_best:
        return ()
    return (min(direct_best, key=lambda a: form.action_candidate(voter, a)),)


def assert_matches_improvement_sets(graph):
    """The graph's edges are the union of ``reference_improvement_set``
    over all states, in action order per (node, voter) slot."""
    game, policy = graph.game, graph.policy
    form = game.form
    assert graph.num_nodes == prod(len(form.actions(v)) for v in range(game.n))
    assert_views_match_columns(graph)
    for node in range(graph.num_nodes):
        p = graph.profile_of(node)
        assert graph.node_of(p) == node
        assert graph.outcomes[node] == form.outcome(p)
        for v in range(game.n):
            want = reference_improvement_set(game, p, v, policy)
            eids = graph.slot_edges(node, v)
            assert tuple(graph.edges[e].action for e in eids) == want
            for e in (graph.edges[e] for e in eids):
                assert graph.profile_of(e.dst) == p[:v] + (e.action,) + p[v + 1 :]


def assert_views_match_columns(graph):
    """``edges``, ``out_edges``, ``successors`` and ``slot_edges`` agree with
    the offsets and the four edge columns."""
    form = graph.game.form
    edges = list(graph.edges)
    assert len(graph.edges) == graph.num_edges == len(edges)
    assert edges == [graph.edges[e] for e in range(graph.num_edges)]
    assert edges == [
        Edge(*cols)
        for cols in zip(graph.src, graph.voter, graph.action, graph.dst)
    ]
    off = graph.offsets
    assert len(off) == graph.num_nodes + 1 == len(graph.out_edges) + 1
    assert len(graph.profiles) == len(graph.outcomes) == graph.num_nodes
    assert off[0] == 0 and off[-1] == graph.num_edges
    assert all(a <= b for a, b in zip(off, off[1:]))
    by_src = [[] for _ in range(graph.num_nodes)]
    for e, edge in enumerate(edges):
        by_src[edge.src].append(e)
    for i in range(graph.num_nodes):
        eids = graph.out_edges[i]
        assert eids == tuple(by_src[i])
        keys = [
            (edges[e].voter, form.actions(edges[e].voter).index(edges[e].action))
            for e in eids
        ]
        assert keys == sorted(keys)
        assert graph.successors(i) == tuple(edges[e].dst for e in eids)
        for v in range(graph.game.n):
            assert graph.slot_edges(i, v) == tuple(
                e for e in eids if edges[e].voter == v
            )


@st.composite
def small_forms(draw):
    """Plurality forms (weighted, head starts, restricted ballots, either
    tie-break) and tabular forms with a ballot that names no candidate,
    with m <= 3 candidates and n <= 3 voters."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    names = ("a", "b", "c")[:m]
    if draw(st.booleans()):
        ballots = st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
        return PluralityForm(
            names,
            draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
            draw(st.sampled_from(sorted(TieBreak, key=lambda t: t.value))),
            draw(st.one_of(st.none(), st.lists(ballots, min_size=n, max_size=n))),
        )
    # voter 1 always has the ballot "abstain", which names no candidate
    labels = [("abstain", *draw(st.lists(st.sampled_from(names), unique=True)))]
    for _ in range(n - 1):
        row = st.lists(st.sampled_from(names + ("abstain",)), min_size=1, unique=True)
        labels.append(tuple(draw(row)))
    outcomes = st.frozensets(st.integers(0, m - 1), min_size=1)
    if draw(st.booleans()):
        outcomes = st.integers(0, m - 1).map(lambda c: frozenset((c,)))
    table = {
        p: draw(outcomes)
        for p in itertools.product(*(range(len(row)) for row in labels))
    }
    return TabularForm(names, labels, table)


@st.composite
def symmetric_forms(draw):
    """Tabular forms whose first k voters share their ballots and whose
    table does not change when those voters swap ballots, so the form sweep
    can skip profiles; the random tables make every property fail often.
    Some break the symmetry: one table entry changes, or voter 2's ballots
    name the candidates in reverse."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(2, n))
    names = ("a", "b", "c")[:m]
    row = tuple(draw(st.lists(st.sampled_from(names), min_size=2, unique=True)))
    labels = [row] * k + [row[:1]] * (n - k)
    if draw(st.booleans()):
        labels[1] = row[::-1]
    outcomes = st.integers(0, m - 1).map(lambda c: frozenset((c,)))
    if draw(st.booleans()):
        outcomes = st.frozensets(st.integers(0, m - 1), min_size=1)
    table = {}
    for p in itertools.product(*(range(len(row)) for row in labels)):
        key = (*sorted(p[:k]), *p[k:])
        if key not in table:
            table[key] = draw(outcomes)
        table[p] = table[key]
    if draw(st.booleans()):
        table[draw(st.sampled_from(sorted(table)))] = draw(outcomes)
    return TabularForm(names, labels, table)


def valid_modes(form):
    """Every comparator a game with utilities supports on ``form``."""
    modes = [m for m in ComparatorMode if m is not ComparatorMode.LEX_SINGLETON]
    if form.deterministic:
        modes.append(ComparatorMode.LEX_SINGLETON)
    return modes


def test_graph_stores_no_edge_objects():
    # a graph keeps int columns; Edge objects exist only while a caller
    # holds what the edges view returned
    def live_edges():
        return sum(type(o) is Edge for o in gc.get_objects())

    gc.collect()
    before = live_edges()
    graph = build_graph(random_game(GameParams(3, 5), 0), BETTER_LEX)
    assert graph.num_edges == 480
    assert live_edges() <= before
    first = graph.edges[0]
    assert live_edges() <= before + 1
    assert first == Edge(graph.src[0], graph.voter[0], graph.action[0], graph.dst[0])


@settings(max_examples=60, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_shared_skeleton_matches_standalone_builds(form, seed):
    rng = random.Random(seed)

    def random_game_on_form():
        prefs = tuple(PreferenceOrder(rng.sample(range(form.m), form.m))
                      for _ in range(form.n))
        return Game(form, prefs, random_consistent_utilities(prefs, rng))

    skel = _Skeleton(form, None)
    for mode in valid_modes(form):
        for kind in ReplyKind:
            policy = ReplyPolicy(kind, mode)
            # the skeleton is reused, as in a form sweep
            _reply_graph(skel, random_game_on_form(), policy)
            game = random_game_on_form()
            graph = _reply_graph(skel, game, policy)
            alone = build_graph(game, policy)
            assert graph.profiles == alone.profiles
            assert graph.outcomes == alone.outcomes
            assert graph.edges == alone.edges
            assert graph.out_edges == alone.out_edges
            assert_matches_improvement_sets(graph)


@settings(max_examples=60, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_improvement_set_matches_the_plain_reference(form, seed):
    rng = random.Random(seed)
    prefs = tuple(PreferenceOrder(rng.sample(range(form.m), form.m))
                  for _ in range(form.n))
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    states = list(itertools.product(*(form.actions(v) for v in range(form.n))))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            policy = ReplyPolicy(kind, mode)
            for p in states:
                for v in range(form.n):
                    assert improvement_set(game, p, v, policy) == (
                        reference_improvement_set(game, p, v, policy)
                    ), (p, v, policy)


def test_reply_graph_compares_each_outcome_pair_once():
    # the best-reply selection reads the per-game preference tables, so it
    # costs no comparison beyond those of the better-reply test
    calls = []
    compare = OutcomeComparator.compare

    def counting(self, voter, x, y):
        calls.append((voter, frozenset((x, y))))
        return compare(self, voter, x, y)

    game = random_game(GameParams(3, 4, tiebreak=TieBreak.RANDOMIZED), 0)
    with mock.patch.object(OutcomeComparator, "compare", counting):
        for mode in (ComparatorMode.EXPECTED_UTILITY, ComparatorMode.STOCHASTIC_DOMINANCE):
            for kind in ReplyKind:
                calls.clear()
                build_graph(game, ReplyPolicy(kind, mode))
                assert calls and len(calls) == len(set(calls)), (kind, mode)


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_profiles_view_decodes_node_ids(form, seed):
    rng = random.Random(seed)
    prefs = tuple(PreferenceOrder(rng.sample(range(form.m), form.m))
                  for _ in range(form.n))
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    graph = build_graph(game, ReplyPolicy(ReplyKind.BETTER, valid_modes(form)[0]))
    want = tuple(itertools.product(*(form.actions(v) for v in range(form.n))))
    profiles = graph.profiles
    assert_acts_as_tuple(profiles, want)
    assert graph.num_nodes == len(want)
    for p in want:
        assert profiles[graph.node_of(p)] == p
    ids = [rng.randrange(len(want)) for _ in range(5)]
    assert profiles.decode(ids) == tuple(want[i] for i in ids)
    assert profiles.decode(()) == ()
    for node in (0, len(want) - 1, rng.randrange(len(want))):
        nodes, sub = _reachable(graph, node)
        assert_acts_as_tuple(sub.profiles, tuple(want[i] for i in nodes))
        k = rng.randrange(len(nodes))
        assert sub.profiles.decode([k, 0]) == (want[nodes[k]], want[nodes[0]])


def test_node_of_rejects_malformed_profiles():
    form = restricted_action_defining_plurality()
    prefs = tuple(PreferenceOrder((0, 1, 2, 3)) for _ in range(3))
    graph = build_graph(Game(form, prefs), BETTER_LEX)
    assert graph.num_nodes == 2 * 2 * 3
    assert graph.profile_of(graph.node_of((2, 1, 0))) == (2, 1, 0)
    with pytest.raises(GameSpecError):
        graph.node_of((0, 0, 0))  # voter 1 cannot vote a
    with pytest.raises(GameSpecError):
        graph.node_of((2, 1))


def test_node_limit_is_enforced():
    game = fork_game()
    with pytest.raises(LimitError):
        build_graph(game, BETTER_LEX, node_limit=8)
    graph = build_graph(game, BETTER_LEX, node_limit=9)
    assert graph.num_nodes == 9
    # a limit below 1 is a usage error, not a limit every graph exceeds
    for bad in (0, -3):
        with pytest.raises(ConfigurationError):
            build_graph(game, BETTER_LEX, node_limit=bad)
        with pytest.raises(ConfigurationError):
            direct_closure(game.form, (0, 0), node_limit=bad)


def test_node_limit_environment_override(monkeypatch):
    monkeypatch.delenv("IVOTE_NODE_LIMIT", raising=False)
    assert default_node_limit() == 1_000_000
    monkeypatch.setenv("IVOTE_NODE_LIMIT", "8")
    assert default_node_limit() == 8
    with pytest.raises(LimitError):
        build_graph(fork_game(), BETTER_LEX)
    for bad in ("0", "-3", "many"):
        monkeypatch.setenv("IVOTE_NODE_LIMIT", bad)
        with pytest.raises(ConfigurationError):
            default_node_limit()


def opposite_rankings_game(m):
    """Two unweighted voters with opposite rankings of m candidates: m^2
    states, and under better replies about m^3 / 3 moves."""
    form = PluralityForm(tuple(f"c{i}" for i in range(m)), (1, 1))
    ranking = tuple(range(m))
    return Game(form, (PreferenceOrder(ranking), PreferenceOrder(ranking[::-1])))


def test_edge_limit_follows_the_node_limit():
    # 2,500 states and 80,850 moves: under a node limit of 2,500 the edge
    # limit is 16 x 2,500 = 40,000
    game = opposite_rankings_game(50)
    message = r"above the limit of 40000 \(16 x the node limit of 2500\)"
    with pytest.raises(LimitError, match=r"reply graph reached \d+ edges, " + message):
        build_graph(game, BETTER_LEX, node_limit=2500)
    graph = build_graph(game, BETTER_LEX, node_limit=5100)
    assert (graph.num_nodes, graph.num_edges) == (2500, 80850)
    # a form sweep assembles graphs from voter blocks: the same limit holds
    blocks = _voter_blocks(graph)
    with pytest.raises(LimitError, match=r"reply graph reached 80850 edges, " + message):
        _assemble(_Skeleton(game.form, 2500), game, BETTER_LEX, blocks)
    assembled = _assemble(_Skeleton(game.form, 5100), game, BETTER_LEX, blocks)
    assert assembled.edges == graph.edges


def test_sweep_profiles_stream_the_first_voters_orders():
    for m in range(1, 5):
        orders = [PreferenceOrder(p) for p in itertools.permutations(range(m))]
        for n in range(1, 4):
            assert list(_preference_profiles(m, n)) == list(
                itertools.product(orders, repeat=n)
            )
    # one voter over ten candidates: 3,628,800 orders, made as they are used
    start = time.perf_counter()
    first = list(itertools.islice(_preference_profiles(10, 1), 3))
    assert time.perf_counter() - start < 0.5
    assert [p[0].ranking for p in first] == [
        tuple(range(10)), (0, 1, 2, 3, 4, 5, 6, 7, 9, 8), (0, 1, 2, 3, 4, 5, 6, 8, 7, 9)
    ]


def test_sinks_are_exactly_the_equilibria():
    game = fork_game()
    graph = build_graph(game, BETTER_LEX)
    sink_profiles = {graph.profile_of(i) for i in sinks(graph)}
    assert sink_profiles == {(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
    assert set(nash_equilibria(game)) == sink_profiles
    for node in range(graph.num_nodes):
        p = graph.profile_of(node)
        movers = [v for v in range(2) if improvement_set(game, p, v, BETTER_LEX)]
        assert bool(movers) == (p not in sink_profiles)


# ---------------------------------------------------------------------------
# acyclicity verdicts


def test_is_fip_returns_closed_improving_cycle():
    entry = catalog_entry("lex_best_cycle")
    graph = build_graph(entry.game, BEST_LEX)
    verdict = is_fip(graph)
    assert not verdict.holds
    cycle = verdict.cycle
    assert len(cycle) >= 2
    for e, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert e.dst == nxt.src
        eid = graph.slot_edges(e.src, e.voter)
        assert any(graph.edges[i] == e for i in eid)


def naive_closure(graph, start):
    """Nodes reachable from ``start`` over successors, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for j in graph.successors(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def naive_has_cycle(graph, roots=None):
    """Plain recursive depth-first search for a back edge over successors,
    from ``roots`` (every node when None)."""
    state = [0] * graph.num_nodes  # 0 new, 1 on the path, 2 done

    def visit(i):
        state[i] = 1
        for j in graph.successors(i):
            if state[j] == 1 or (state[j] == 0 and visit(j)):
                return True
        state[i] = 2
        return False

    if roots is None:
        roots = range(graph.num_nodes)
    return any(state[i] == 0 and visit(i) for i in roots)


def naive_longest_path(graph, memo, node):
    """Plain recursive longest path (in steps) from ``node``, memoized in
    ``memo``; nothing reachable from ``node`` may lie on a cycle."""
    if node not in memo:
        memo[node] = max(
            (1 + naive_longest_path(graph, memo, j) for j in graph.successors(node)),
            default=0,
        )
    return memo[node]


def naive_cannot_reach_sink(graph):
    """Nodes whose forward closure over successors holds no sink."""
    return {
        start
        for start in range(graph.num_nodes)
        if all(graph.successors(i) for i in naive_closure(graph, start))
    }


def assert_topological(graph, order, nodes):
    """``order`` lists ``nodes`` once each, every edge among them forward."""
    assert sorted(order) == sorted(nodes)
    position = {node: k for k, node in enumerate(order)}
    for e in graph.edges:
        if e.src in position:
            assert position[e.src] < position[e.dst]


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_certificates_match_plain_references(form, seed):
    rng = random.Random(seed)
    prefs = tuple(
        PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
    )
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            graph = build_graph(game, ReplyPolicy(kind, mode))
            fip = is_fip(graph)
            assert fip.holds == (not naive_has_cycle(graph))
            if fip.holds:
                assert_topological(graph, fip.order, range(graph.num_nodes))
            else:
                assert fip.order is None
                assert_closed_walk(graph, fip.cycle, range(graph.num_nodes))
            memo = {}
            for node in range(graph.num_nodes):
                reachable = naive_closure(graph, node)
                if naive_has_cycle(graph, [node]):
                    assert not from_state(graph, graph.profiles[node]).fip
                    with pytest.raises(UnsupportedOperationError):
                        longest_path_from(graph, node)
                    continue
                expected = naive_longest_path(graph, memo, node)
                assert longest_path_from(graph, node) == expected
                assert from_state(graph, graph.profiles[node]).longest == expected
                nodes, sub = _reachable(graph, node)
                local = is_fip(sub)
                assert_topological(graph, [nodes[k] for k in local.order], reachable)
            if fip.holds:
                assert longest_convergence_path(graph) == max(memo.values())
            weak = is_weak_fip(graph)
            bad = naive_cannot_reach_sink(graph)
            assert weak.holds == (not bad)
            assert set(weak.unreachable) == bad
            if weak.holds:
                for node in range(graph.num_nodes):
                    walk_route(graph, weak.route, node)


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_per_start_questions_read_the_reachable_subgraph(form, seed):
    rng = random.Random(seed)
    prefs = tuple(
        PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
    )
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            graph = build_graph(game, ReplyPolicy(kind, mode))
            edges = list(graph.edges)
            for node in range(graph.num_nodes):
                nodes, sub = _reachable(graph, node)
                inside = naive_closure(graph, node)
                assert nodes == sorted(inside)
                assert_views_match_columns(sub)
                assert [
                    Edge(nodes[e.src], e.voter, e.action, nodes[e.dst])
                    for e in sub.edges
                ] == [e for e in edges if e.src in inside]
                res = from_state(graph, graph.profiles[node])
                assert (res.cycle is None) == res.fip
                if res.cycle is not None:
                    assert_closed_walk(graph, res.cycle, inside)


def test_is_fip_holds_on_dag():
    graph = build_graph(fork_game(), BETTER_LEX)
    verdict = is_fip(graph)
    assert verdict.holds and verdict.cycle is None


def test_weak_fip_route_reaches_sinks():
    graph = build_graph(catalog_entry("lex_best_cycle").game, BEST_LEX)
    verdict = is_weak_fip(graph)
    assert verdict.holds
    for node in range(graph.num_nodes):
        walk_route(graph, verdict.route, node)


def test_weak_fip_fails_on_closed_ring():
    game = ring_game()
    graph = build_graph(game, BETTER_LEX)
    assert not is_fip(graph).holds
    verdict = is_weak_fip(graph)
    assert not verdict.holds
    assert {graph.profile_of(i) for i in verdict.unreachable} == RING_CYCLE
    # the equilibrium exists, it is just out of reach from the ring
    assert set(nash_equilibria(game)) == {(2, 2)}


def test_restricted_fip_trivial_on_dag():
    graph = build_graph(fork_game(), BETTER_LEX)
    verdict = is_restricted_fip(graph)
    assert verdict.holds
    assert_valid_selection(graph, verdict.selection)


def test_restricted_fip_finds_selection_through_search():
    graph = build_graph(catalog_entry("lex_best_cycle").game, BEST_LEX)
    assert not is_fip(graph).holds
    verdict = is_restricted_fip(graph)
    assert verdict.holds
    assert_valid_selection(graph, verdict.selection)
    assert "acyclic move graph" in verdict.certificate()


def test_restricted_fip_searches_every_cyclic_component():
    game = random_game(GameParams(3, 4, tiebreak=TieBreak.RANDOMIZED), 6)
    better_eu = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.EXPECTED_UTILITY)
    graph = build_graph(game, better_eu)
    assert graph.num_nodes == 81
    sccs = _scc_partition(graph.num_nodes, graph.successors)
    assert sum(len(c) > 1 for c in sccs) == 6
    verdict = is_restricted_fip(graph)
    assert verdict.holds
    assert len(verdict.selection) == 156
    assert_valid_selection(graph, verdict.selection)
    assert verdict.certificate() == (
        "restriction over 156 slots with an acyclic move graph"
    )


def test_restricted_fip_decides_the_4096_state_game():
    # the largest cyclic component has 2,247 nodes, far deeper than the
    # interpreter's recursion limit; the attractor does not recurse
    graph = build_graph(random_game(GameParams(4, 6), 7), BETTER_LEX)
    sccs = _scc_partition(graph.num_nodes, graph.successors)
    assert max(map(len, sccs)) == 2247
    verdict = is_restricted_fip(graph)
    assert verdict.holds
    assert len(verdict.selection) == 8070
    assert_valid_selection(graph, verdict.selection)


@settings(max_examples=40, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_certificate_views_match_the_plain_references(form, seed):
    rng = random.Random(seed)
    prefs = tuple(PreferenceOrder(rng.sample(range(form.m), form.m))
                  for _ in range(form.n))
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            graph = build_graph(game, ReplyPolicy(kind, mode))
            acyclic = is_fip(graph).holds
            verdict = is_restricted_fip(graph)
            want = reference_selection(graph, acyclic)
            assert verdict.holds == (want is not None)
            if want is None:
                assert verdict.selection is None
            else:
                assert_acts_as_dict(verdict.selection, want)
                if not acyclic:
                    # the first edges are a certificate only without cycles
                    assert reference_selection(graph, True) == dict(
                        _restriction(graph, True).selection.items()
                    )
            weak = is_weak_fip(graph)
            route = reference_route(graph)
            assert weak.holds == (route is not None)
            if route is None:
                assert weak.route is None
            else:
                assert_acts_as_tuple(weak.route, route)


def test_restriction_keeps_few_bytes_per_slot():
    # the selection is one array of edge ids over the graph's own columns;
    # a dict keyed by (node, voter) tuples kept 142 bytes a slot
    graph = build_graph(random_game(GameParams(4, 6), 7), DIRECT_LEX)
    acyclic = is_fip(graph).holds
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdict = _restriction(graph, acyclic)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert verdict.holds and len(verdict.selection) > 1000
    assert kept < 16 * len(verdict.selection)


def test_from_state_decides_a_start_in_the_4096_state_game():
    # no global verdict to lean on: the attractor of the states reachable
    # from this start holds the start (a search over restrictions from it
    # ran past 20,000 branches)
    graph = build_graph(random_game(GameParams(4, 6), 7), BETTER_LEX)
    res = from_state(graph, (2, 2, 3, 3, 1, 2))
    assert res.reachable == 2788
    assert not res.fip
    assert res.restricted_fip is True


def eu_trap_game():
    """A 256-state game whose restriction verdict is no, with a 37-state
    trap and no forced cycle under better replies and expected utility."""
    form = PluralityForm(
        default_names(4), (3, 2, 1, 2), (0, 0, 0, 1), TieBreak.RANDOMIZED
    )
    rankings = ((0, 1, 3, 2), (2, 3, 0, 1), (2, 0, 1, 3), (3, 1, 2, 0))
    utilities = (
        (394, 244, 88, 188),
        (205, 185, 343, 259),
        (218, 178, 230, 143),
        (75, 198, 142, 201),
    )
    return Game(
        form,
        tuple(map(PreferenceOrder, rankings)),
        tuple(map(UtilityVector, utilities)),
    )


BETTER_EU = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.EXPECTED_UTILITY)


def test_restricted_fip_trap_on_the_256_state_eu_game():
    graph = build_graph(eu_trap_game(), BETTER_EU)
    assert graph.num_nodes == 256
    verdict = is_restricted_fip(graph)
    assert not verdict.holds
    assert verdict.forced_cycle is None
    assert len(verdict.trap) == 37
    assert_valid_trap(graph, verdict.trap)
    assert verdict.certificate().startswith("trap of 37 states: ")
    # the trap is exactly the states no restriction makes safe
    trap = set(verdict.trap)
    for node, profile in enumerate(graph.profiles):
        assert from_state(graph, profile).restricted_fip == (node not in trap)


def brute_force_restrictions(graph, limit=4096):
    """Try every selection of one edge per (node, voter) slot.

    Returns whether some selection leaves the graph acyclic, and the nodes
    from which some selection reaches no cycle; None when there are more
    than ``limit`` selections.
    """
    n = graph.num_nodes
    slots = [graph.slot_edges(i, v) for i in range(n) for v in range(graph.game.n)]
    slots = [eids for eids in slots if eids]
    if prod(map(len, slots)) > limit:
        return None
    some_acyclic = False
    safe = set()
    for selection in itertools.product(*slots):
        preds = [[] for _ in range(n)]
        left = [0] * n  # selected moves not yet known to avoid every cycle
        for eid in selection:
            preds[graph.dst[eid]].append(graph.src[eid])
            left[graph.src[eid]] += 1
        # peel nodes whose selected moves all lead to peeled nodes; the
        # nodes left over reach a cycle
        stack = [i for i in range(n) if not left[i]]
        peeled = set(stack)
        while stack:
            for i in preds[stack.pop()]:
                left[i] -= 1
                if not left[i]:
                    peeled.add(i)
                    stack.append(i)
        some_acyclic |= len(peeled) == n
        safe |= peeled
    return some_acyclic, safe


@settings(max_examples=60, deadline=None)
@given(small_forms(), st.integers(0, 10**6))
def test_restriction_verdicts_match_brute_force(form, seed):
    rng = random.Random(seed)
    prefs = tuple(
        PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
    )
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            graph = build_graph(game, ReplyPolicy(kind, mode))
            brute = brute_force_restrictions(graph)
            if brute is None:
                continue
            some_acyclic, safe = brute
            verdict = is_restricted_fip(graph)
            assert verdict.holds == some_acyclic
            if verdict.holds:
                assert_valid_selection(graph, verdict.selection)
                assert not naive_has_cycle(
                    selection_subgraph(graph, verdict.selection)
                )
            else:
                assert verdict.trap == tuple(
                    i for i in range(graph.num_nodes) if i not in safe
                )
                assert_valid_trap(graph, verdict.trap)
            for node, profile in enumerate(graph.profiles):
                assert from_state(graph, profile).restricted_fip == (node in safe)


def test_restricted_fip_forced_cycle():
    graph = build_graph(ring_game(), BETTER_LEX)
    verdict = is_restricted_fip(graph)
    assert not verdict.holds
    assert verdict.forced_cycle is not None
    assert_valid_trap(graph, verdict.trap)
    assert {e.src for e in verdict.forced_cycle} <= set(verdict.trap)
    assert {graph.profile_of(e.src) for e in verdict.forced_cycle} == RING_CYCLE
    for e in verdict.forced_cycle:
        assert graph.slot_edges(e.src, e.voter) == (
            graph.out_edges[e.src][graph.out_edges[e.src].index(
                next(i for i in graph.out_edges[e.src] if graph.edges[i] == e)
            )],
        )
    assert "forced cycle" in verdict.certificate()


def test_restricted_fip_exhausted_search():
    # no forced cycle here: the refutation is the trap alone
    entry = catalog_entry("weighted_direct_cycle")
    graph = build_graph(entry.game, entry.policy)
    verdict = is_restricted_fip(graph)
    assert not verdict.holds
    assert verdict.forced_cycle is None and verdict.selection is None
    assert len(verdict.trap) == 33
    assert_valid_trap(graph, verdict.trap)
    assert verdict.certificate() == (
        "trap of 33 states: every restriction cycles from each of them "
        "(at each, some voter's every allowed move stays in the trap)"
    )


# ---------------------------------------------------------------------------
# path lengths and per-start reports


def test_longest_convergence_path():
    graph = build_graph(fork_game(), BETTER_LEX)
    assert longest_convergence_path(graph) == 3
    assert longest_path_from(graph, graph.node_of((0, 0))) == 3
    assert longest_path_from(graph, graph.node_of((2, 2))) == 1
    assert longest_path_from(graph, graph.node_of((1, 2))) == 0


def test_longest_path_rejects_cycles():
    graph = build_graph(ring_game(), BETTER_LEX)
    with pytest.raises(UnsupportedOperationError):
        longest_convergence_path(graph)
    with pytest.raises(UnsupportedOperationError):
        longest_path_from(graph, graph.node_of((0, 0)))


def test_from_state_on_acyclic_region():
    graph = build_graph(fork_game(), BETTER_LEX)
    res = from_state(graph, (2, 2))
    assert res.start == (2, 2)
    assert res.reachable == 3
    assert res.has_ne and res.fip and res.weak_fip and res.restricted_fip
    assert res.cycle is None
    assert res.longest == 1
    at_sink = from_state(graph, (1, 2))
    assert at_sink.reachable == 1 and at_sink.longest == 0


def test_from_state_inside_ring_sees_no_way_out():
    graph = build_graph(ring_game(), BETTER_LEX)
    res = from_state(graph, (0, 2))
    assert res.reachable == 6
    assert res.has_ne  # the sink is reachable from the start...
    assert not res.fip
    # the ring, in the graph's state ids, though the start reaches 6 of 9
    assert_closed_walk(graph, res.cycle, {graph.node_of(p) for p in RING_CYCLE})
    assert not res.weak_fip  # ...but not from the ring states downstream
    assert res.restricted_fip is False
    assert res.longest is None


def test_from_state_restriction_can_escape_a_cycle():
    graph = build_graph(catalog_entry("lex_best_cycle").game, BEST_LEX)
    res = from_state(graph, (1, 2))
    assert not res.fip
    # state 0 is out of reach, so the cycle's ids differ from the ids it
    # has in the reachable subgraph
    assert_closed_walk(graph, res.cycle, naive_closure(graph, graph.node_of((1, 2))))
    assert res.weak_fip
    assert res.restricted_fip is True


def test_hierarchy_holds_table():
    assert hierarchy_holds(True, True, True, True)
    assert hierarchy_holds(True, False, True, True)
    assert hierarchy_holds(True, False, False, False)
    assert not hierarchy_holds(True, True, True, False)
    assert not hierarchy_holds(True, False, False, True)
    assert not hierarchy_holds(False, False, True, False)


# ---------------------------------------------------------------------------
# bundled reports


def test_classify_game_report_consistency():
    seed = 0
    for trial in range(40):
        m = 2 + trial % 3
        n = 2 + trial % 2
        tiebreak = TieBreak.RANDOMIZED if trial % 4 == 0 else TieBreak.LEXICOGRAPHIC
        params = GameParams(
            candidates=m, voters=n, weight_bound=2, score_bound=2, tiebreak=tiebreak
        )
        game = random_game(params, seed + trial)
        kind = (ReplyKind.BETTER, ReplyKind.DIRECT, ReplyKind.BEST)[trial % 3]
        policy = default_policy(game, kind)
        report = classify_game(game, policy, starts=(truthful_profile(game),))
        assert report.hierarchy_ok
        assert report.has_ne == bool(report.equilibria)
        assert (report.longest is not None) == report.fip.holds
        if report.fip.holds:
            assert report.weak_fip.holds and report.restricted_fip.holds
        if report.weak_fip.holds:
            for node in range(report.graph.num_nodes):
                walk_route(report.graph, report.weak_fip.route, node)
        if report.restricted_fip.holds:
            sub = selection_subgraph(report.graph, report.restricted_fip.selection)
            assert is_fip(sub).holds
        fs = report.from_starts[0]
        assert hierarchy_holds(fs.has_ne, fs.fip, fs.weak_fip, fs.restricted_fip)
        assert fs.reachable <= report.num_nodes


def test_classify_game_answers_starts_from_the_global_restriction(monkeypatch):
    # one attractor over the whole graph settles every start: no start
    # computes its own
    calls = []
    attractor = analysis._attractor

    def counting_attractor(*args):
        calls.append(args[0])
        return attractor(*args)

    monkeypatch.setattr(analysis, "_attractor", counting_attractor)
    game = random_game(GameParams(4, 6), 7)
    starts = ((2, 2, 3, 3, 1, 2), truthful_profile(game))
    report = classify_game(game, BETTER_LEX, starts=starts)
    assert report.restricted_fip.holds
    assert not report.from_starts[0].fip
    assert [fs.restricted_fip for fs in report.from_starts] == [True, True]
    # is_weak_fip, the global restriction, and the weak verdict per start
    assert len(calls) == 2 + len(starts)
    # and on a graph whose restriction fails, each start reads the trap
    graph = build_graph(eu_trap_game(), BETTER_EU)
    trap = set(is_restricted_fip(graph).trap)
    starts = (graph.profiles[min(trap)], graph.profiles[0])
    report = classify_game(eu_trap_game(), BETTER_EU, starts=starts)
    assert [fs.restricted_fip for fs in report.from_starts] == [
        from_state(graph, s).restricted_fip for s in starts
    ] == [False, 0 not in trap]


def test_classify_game_peels_an_acyclic_graph_once(monkeypatch):
    # the restriction question reuses the acyclicity verdict instead of
    # peeling the whole graph a second time
    whole = []
    peel = analysis._peel

    def counting_peel(num_nodes, offsets, heads):
        whole.append(num_nodes == 3**3)
        return peel(num_nodes, offsets, heads)

    monkeypatch.setattr(analysis, "_peel", counting_peel)
    report = classify_game(random_game(GameParams(3, 3), 0), DIRECT_LEX)
    assert report.fip.holds and report.restricted_fip.holds
    assert whole.count(True) == 1


def test_render_game_report_mentions_the_verdicts():
    game = ring_game()
    report = classify_game(game, BETTER_LEX, starts=((2, 0),))
    text = render_game_report(report)
    assert "classification report" in text
    assert "has_ne: yes" in text
    assert "fip: no" in text
    assert "weak_fip: no" in text
    assert "restricted_fip: no" in text
    assert "forced cycle" in text
    assert "hierarchy_ok: yes" in text
    assert "from (p2,q0):" in text


def test_classify_game_form_exhaustive_finds_ring_prefs():
    form = ring_game().form
    report = classify_game_form(form, BETTER_LEX)
    # all four properties falsify early: the sweep stops at the fourth
    # profile, whose game has no equilibrium at all
    assert report.games_checked == 4
    assert report.scope.startswith("exhaustive over 36")
    assert not report.has_ne.holds
    assert report.has_ne.prefs == ((0, 1, 2), (1, 2, 0))
    assert not report.fip.holds
    assert not report.weak_fip.holds
    assert not report.restricted_fip.holds
    assert report.weak_fip.prefs == ((0, 1, 2), (1, 0, 2))
    text = render_form_report(report)
    assert "form classification report" in text
    assert "cycle through" in text.replace("\n", " ")
    assert "no path to a sink" in text
    assert "no equilibrium profile" in text


def test_classify_game_form_sampled_mode_counts():
    form = PluralityForm(("a", "b"), (1, 1))
    report = classify_game_form(form, BETTER_LEX, sample=7, seed=3)
    assert report.games_checked == 7
    assert report.scope == "7 sampled preference profiles (seed 3)"
    assert report.fip.holds


def test_classify_game_form_utility_sampling_multiplies_games():
    form = PluralityForm(("a", "b"), (1, 1), (0, 0), TieBreak.RANDOMIZED)
    policy = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.EXPECTED_UTILITY)
    report = classify_game_form(form, policy, utility_samples=3)
    assert report.games_checked == 4 * 3


def test_exhaustive_sweep_limit_counts_utility_samples():
    # m=5, n=3 has 120^3 = 1,728,000 profiles: under the limit alone, above
    # it with six utility draws each
    form = PluralityForm(default_names(5), (1, 1, 1), tiebreak=TieBreak.RANDOMIZED)
    policy = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.EXPECTED_UTILITY)
    assert 1_728_000 <= analysis._SWEEP_LIMIT < 1_728_000 * 6
    with pytest.raises(LimitError, match="1728000 preference profiles x 6 utility"):
        classify_game_form(form, policy, utility_samples=6)


def full_sweep(form, policy, **kw):
    """The sweep as if no two voters were interchangeable: every profile
    is built."""
    with mock.patch.object(analysis, "_voter_classes", lambda form, skel: []):
        return classify_game_form(form, policy, **kw)


def assert_same_report(reduced, full):
    assert render_form_report(reduced) == render_form_report(full)
    for f in dataclasses.fields(FormReport):
        if f.name not in ("graphs_built", "reply_passes"):
            assert getattr(reduced, f.name) == getattr(full, f.name), f.name
    assert full.graphs_built == full.games_checked


def sweep_policies(form):
    """Every reply kind under every valid comparator that needs no
    utilities."""
    modes = [m for m in valid_modes(form) if m is not ComparatorMode.EXPECTED_UTILITY]
    return [ReplyPolicy(kind, mode) for mode in modes for kind in ReplyKind]


def tabular_copy(form):
    """The same form as an explicit outcome table."""
    labels = [[form.names[a] for a in form.actions(v)] for v in range(form.n)]
    table = {
        p: form.outcome(tuple(form.actions(v)[a] for v, a in enumerate(p)))
        for p in itertools.product(*(range(len(row)) for row in labels))
    }
    return TabularForm(form.names, labels, table)


DIRECT_EU = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.EXPECTED_UTILITY)


@pytest.mark.parametrize(
    "form, policy, kw, games, built",
    [
        (PluralityForm(default_names(4), (1, 1, 1)), DIRECT_LEX, {}, 13824, 2600),
        (PluralityForm(default_names(3), (1, 2, 1)), DIRECT_LEX, {}, 216, 126),
        (
            PluralityForm(default_names(3), (1, 1, 1), tiebreak=TieBreak.RANDOMIZED),
            DIRECT_EU,
            {"utility_samples": 5},
            1080,
            1080,
        ),
        (PluralityForm(default_names(3), (1, 1, 1)), DIRECT_LEX, {"sample": 40}, 40, 40),
    ],
)
def test_form_sweep_builds_one_graph_per_orbit(form, policy, kw, games, built):
    report = classify_game_form(form, policy, **kw)
    assert (report.games_checked, report.graphs_built) == (games, built)
    # the reply filter runs once per new (voter, preference) block at most:
    # 3 * 4! = 72 times for the m=4, n=3 sweep, and under EU, whose blocks
    # repeat less, still on fewer graphs than the sweep builds
    passes = built
    if "sample" not in kw:
        passes = form.n * factorial(form.m) if policy is DIRECT_LEX else built - 1
    assert 1 <= report.reply_passes <= passes
    text = render_form_report(report)
    assert "graphs" not in text and "passes" not in text


def graph_columns(graph):
    return (graph.offsets, graph.src, graph.voter, graph.action, graph.dst)


@settings(max_examples=25, deadline=None)
@given(st.one_of(small_forms(), symmetric_forms()), st.integers(0, 10**6))
def test_sweeps_assemble_the_graphs_the_reply_filter_builds(form, seed):
    # every graph a sweep assembles from cached voter blocks, under every
    # reply kind and comparator, exhaustive or sampled, is the graph the
    # reply filter builds for that game
    assemble = analysis._assemble
    assembled = []

    def checked_assemble(skel, game, policy, blocks):
        graph = assemble(skel, game, policy, blocks)
        assert graph_columns(graph) == graph_columns(_reply_graph(skel, game, policy))
        assembled.append(graph)
        return graph

    with mock.patch.object(analysis, "_assemble", checked_assemble):
        for mode in valid_modes(form):
            for kind in ReplyKind:
                for kw in ({}, {"sample": 12, "seed": seed}):
                    report = classify_game_form(
                        form, ReplyPolicy(kind, mode), utility_samples=2, **kw
                    )
                    assert report.reply_passes <= report.graphs_built
                    assert report.reply_passes + len(assembled) == report.graphs_built
                    assembled.clear()


def test_full_block_cache_leaves_the_report_unchanged(monkeypatch):
    # once the sweep's block cache is full, misses run the reply filter
    # and cache nothing: more passes, the same report
    form = PluralityForm(default_names(4), (1, 1, 1))
    full = classify_game_form(form, DIRECT_LEX)
    monkeypatch.setattr(analysis, "_BLOCK_CACHE_ROWS", 40 * 64)
    capped = classify_game_form(form, DIRECT_LEX)
    assert render_form_report(capped) == render_form_report(full)
    assert full.reply_passes < capped.reply_passes < capped.graphs_built
    assert capped.graphs_built == full.graphs_built


def test_form_sweep_still_checks_the_comparator_against_the_form():
    # the first game of every sweep runs the reply filter, whose comparator
    # rejects a lex comparison on a form with randomized ties
    form = PluralityForm(default_names(3), (1, 1), tiebreak=TieBreak.RANDOMIZED)
    for kw in ({}, {"sample": 5}):
        with pytest.raises(ConfigurationError):
            classify_game_form(form, DIRECT_LEX, **kw)


def assert_key_orders_as_eu_compare(sets, utility):
    key = analysis._eu_rank_key(sets, utility.values)
    assert sorted(set(key)) == list(range(len(set(key))))  # dense ranks
    verdicts = {
        1: SetComparison.STRICTLY_BETTER,
        0: SetComparison.EQUAL,
        -1: SetComparison.STRICTLY_WORSE,
    }
    for (x, kx), (y, ky) in itertools.product(zip(sets, key), repeat=2):
        assert eu_compare(utility, x, y) is verdicts[(kx > ky) - (kx < ky)], (x, y)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_forms(), symmetric_forms()), st.integers(0, 10**6))
def test_eu_rank_key_orders_outcome_sets_as_eu_compare(form, seed):
    rng = random.Random(seed)
    prefs = tuple(
        PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
    )
    sets = _Skeleton(form, None).sets
    for utility in random_consistent_utilities(prefs, rng):
        assert_key_orders_as_eu_compare(sets, utility)


@pytest.mark.parametrize(
    "values",
    [
        (1, 2, 3),  # {a,c} ties {b} and {a,b,c}
        (9, 4, 1),
        (0, 5, 10),
        (1, 2, 3, 4),  # {a,d} ties {b,c}, {a,b,c,d} and {a,c,d} vs {b,d}...
        (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)),
        (7, 1, 4, 10),
    ],
)
def test_eu_rank_key_keeps_tied_means_equal(values):
    m = len(values)
    sets = [
        frozenset(c for c in range(m) if mask >> c & 1) for mask in range(1, 1 << m)
    ]
    assert_key_orders_as_eu_compare(sets, UtilityVector(values))


def test_interchangeable_voters_are_read_from_the_outcomes():
    def classes(form):
        return analysis._voter_classes(form, _Skeleton(form, None))

    names = default_names(3)
    assert classes(PluralityForm(names, (1, 2, 1))) == [(0, 2)]
    assert classes(PluralityForm(names, (2, 2, 2, 1))) == [(0, 1, 2)]
    ballots = ((0, 1), (0, 2), (0, 1))
    assert classes(PluralityForm(names, (1, 1, 1), action_sets=ballots)) == [(0, 2)]
    assert classes(tabular_copy(PluralityForm(names, (1, 1, 1)))) == [(0, 1, 2)]
    assert classes(restricted_action_form()) == []
    # a symmetric table, but the same action names a different candidate
    table = {p: {int(p[0] != p[1])} for p in itertools.product(range(2), repeat=2)}
    assert classes(TabularForm(("a", "b"), (("a", "b"), ("b", "a")), table)) == []


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_forms(), symmetric_forms()))
def test_reduced_form_sweep_matches_the_full_sweep(form):
    for policy in sweep_policies(form):
        try:
            full = full_sweep(form, policy)
        except LimitError:
            continue  # a skipped profile may be the one that overran
        assert_same_report(classify_game_form(form, policy), full)


def named_sweeps():
    """The forms of ACC-02 (direct/lex), ACC-06 (direct under SD, LD and K)
    and ACC-08 (better/lex), and a tabular copy of a plurality form."""
    acc02 = [
        PluralityForm(default_names(3), (1,) * n, shat)
        for n in (2, 3)
        for shat in itertools.product((0, 1), repeat=3)
    ]
    acc06 = [
        PluralityForm(default_names(m), (1,) * n, shat, TieBreak.RANDOMIZED)
        for m in (2, 3)
        for n in (2, 3)
        for shat in itertools.product((0, 1, 2), repeat=m)
    ]
    dominance = (
        ComparatorMode.STOCHASTIC_DOMINANCE,
        ComparatorMode.LOCAL_DOMINANCE,
        ComparatorMode.K_ONLY,
    )
    yield "ACC-02", [(form, DIRECT_LEX) for form in acc02]
    yield "ACC-06", [
        (form, ReplyPolicy(ReplyKind.DIRECT, mode))
        for form in acc06
        for mode in dominance
    ]
    yield "ACC-08", [(restricted_action_form(), BETTER_LEX)]
    tabular = tabular_copy(PluralityForm(default_names(3), (1, 1, 1)))
    yield "tabular", [(tabular, policy) for policy in sweep_policies(tabular)]


@pytest.mark.parametrize("name, sweeps", list(named_sweeps()))
def test_reduced_sweep_is_byte_identical_on_named_forms(name, sweeps):
    reduced_any = False
    for form, policy in sweeps:
        reduced = classify_game_form(form, policy)
        assert_same_report(reduced, full_sweep(form, policy))
        reduced_any |= reduced.graphs_built < reduced.games_checked
    # ACC-08's voters have different ballots, so nothing there is skipped
    assert reduced_any == (name != "ACC-08")


# ---------------------------------------------------------------------------
# direct closure


def test_direct_closure_contains_direct_reply_reachability():
    form = PluralityForm(("a", "b", "c"), (1, 1), (1, 0, 0))
    start = (1, 2)
    closure = set(direct_closure(form, start))
    assert start in closure
    orders = [
        (PreferenceOrder((0, 1, 2)), PreferenceOrder((2, 1, 0))),
        (PreferenceOrder((1, 2, 0)), PreferenceOrder((0, 2, 1))),
        (PreferenceOrder((2, 0, 1)), PreferenceOrder((1, 0, 2))),
    ]
    for prefs in orders:
        game = Game(form, prefs)
        graph = build_graph(game, DIRECT_LEX)
        node = graph.node_of(start)
        seen = {node}
        stack = [node]
        while stack:
            i = stack.pop()
            for dst in graph.successors(i):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        assert {graph.profile_of(i) for i in seen} <= closure


def test_direct_closure_respects_node_limit():
    form = PluralityForm(("a", "b", "c"), (1, 1), (1, 0, 0))
    with pytest.raises(LimitError):
        direct_closure(form, (1, 2), node_limit=1)


# ---------------------------------------------------------------------------
# scanning


def test_conjecture_scan_is_deterministic_and_witnesses_verify():
    params = ScanParams(max_candidates=3, max_voters=3, weight_bound=3, score_bound=2)
    first = conjecture_scan(params, trials=25, seed=11, prop="fip", policy=BETTER_LEX)
    second = conjecture_scan(params, trials=25, seed=11, prop="fip", policy=BETTER_LEX)
    assert render_scan_report(first) == render_scan_report(second)
    assert first.checked == 25
    assert first.violations, "expected better-reply cycles among weighted games"
    for violation in first.violations:
        graph = build_graph(violation.game, BETTER_LEX)
        assert not is_fip(graph).holds
        assert violation.witness.startswith("cycle through")


def test_conjecture_scan_weak_fip_default_policy():
    params = ScanParams(max_candidates=3, max_voters=4, weight_bound=4, score_bound=2)
    report = conjecture_scan(params, trials=20, seed=5)
    assert report.prop == "weak_fip"
    assert report.policy.kind is ReplyKind.DIRECT
    assert report.checked == 20
    text = render_scan_report(report)
    assert "conjecture scan" in text
    if not report.violations:
        assert "no counterexample found (not a proof)" in text
    with pytest.raises(ConfigurationError):
        conjecture_scan(params, trials=1, prop="converges")


# ---------------------------------------------------------------------------
# the property check


def reference_violation(graph, prop):
    """The witness ``graph`` gives against ``prop``, or None: the plain
    dispatch, one decider per property with no hierarchy shortcut."""
    game = graph.game
    witness = None
    if prop == "has_ne":
        if not sinks(graph):
            witness = "no equilibrium profile"
    elif prop == "fip":
        verdict = is_fip(graph)
        if not verdict.holds:
            witness = "cycle through " + ", ".join(
                format_profile(game.form, graph.profiles[e.src])
                for e in verdict.cycle
            )
    elif prop == "weak_fip":
        verdict = is_weak_fip(graph)
        if not verdict.holds:
            witness = "no path to a sink from " + format_profile(
                game.form, graph.profiles[verdict.unreachable[0]]
            )
    else:
        verdict = is_restricted_fip(graph)
        if not verdict.holds:
            witness = verdict.certificate()
    return witness


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_forms(), symmetric_forms()), st.integers(0, 10**6))
def test_violations_match_the_plain_reference(form, seed):
    rng = random.Random(seed)
    prefs = tuple(
        PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
    )
    game = Game(form, prefs, random_consistent_utilities(prefs, rng))
    for mode in valid_modes(form):
        for kind in ReplyKind:
            graph = build_graph(game, ReplyPolicy(kind, mode))
            want = {}
            for prop in PROPERTIES:
                witness = reference_violation(graph, prop)
                if witness is not None:
                    want[prop] = witness
                assert _violations(graph, (prop,)) == (
                    {prop: witness} if witness is not None else {}
                )
            got = _violations(graph, PROPERTIES)
            assert list(got.items()) == list(want.items())


def test_violations_stop_at_an_acyclic_peel(monkeypatch):
    graph = build_graph(random_game(GameParams(3, 3), 0), DIRECT_LEX)
    assert is_fip(graph).holds

    def unreachable(*args):
        raise AssertionError("an acyclic graph needs no further check")

    for name in ("is_weak_fip", "_restriction", "_extract_cycle"):
        monkeypatch.setattr(analysis, name, unreachable)
    assert _violations(graph, PROPERTIES) == {}
    assert conjecture_scan(ScanParams(), trials=5).violations == ()


def test_form_sweep_extracts_only_the_cycle_it_prints(monkeypatch):
    # 489 of the 1,080 graphs of this sweep are cyclic; the report keeps
    # the first cycle, so no other is extracted
    calls = []
    extract = analysis._extract_cycle

    def counting_extract(*args):
        calls.append(args)
        return extract(*args)

    monkeypatch.setattr(analysis, "_extract_cycle", counting_extract)
    form = PluralityForm(default_names(3), (1, 1, 1), tiebreak=TieBreak.RANDOMIZED)
    report = classify_game_form(form, DIRECT_EU, utility_samples=5, seed=0)
    assert report.games_checked == 1080
    assert not report.fip.holds
    assert len(calls) == 1


def test_properties_name_the_report_fields_and_cli_choices():
    fields = [
        f.name for f in dataclasses.fields(FormReport) if f.type == "FormProperty"
    ]
    assert list(PROPERTIES) == fields
    report = classify_game_form(ring_game().form, BETTER_LEX)
    printed = [
        line.split(":")[0]
        for line in render_form_report(report).splitlines()
        if line.endswith((": yes", ": no"))
    ]
    assert printed == list(PROPERTIES)
    assert list(cli._PROP_KEYS.values()) == list(PROPERTIES)
    subparsers = next(
        a for a in cli._build_parser()._actions if a.dest == "command"
    ).choices
    for command, flag in (("classify", "--property"), ("scan", "--prop")):
        option = next(
            a for a in subparsers[command]._actions if flag in a.option_strings
        )
        assert list(option.choices) == list(cli._PROP_KEYS)


def reference_sampled_sweep(form, policy, sample, utility_samples, seed):
    """A sampled sweep as the plain reference: each profile's utility
    vectors drawn up front, every game built on its own, and every
    property asked of ``reference_violation``."""
    rng = random.Random(seed)
    failed = {}
    checked = 0
    for _ in range(sample):
        prefs = tuple(
            PreferenceOrder(rng.sample(range(form.m), form.m)) for _ in range(form.n)
        )
        draws = [random_consistent_utilities(prefs, rng) for _ in range(utility_samples)]
        for utilities in draws:
            graph = build_graph(Game(form, prefs, utilities), policy)
            checked += 1
            for prop in PROPERTIES:
                witness = reference_violation(graph, prop)
                if witness is not None and prop not in failed:
                    failed[prop] = analysis.FormProperty(
                        False,
                        tuple(p.ranking for p in prefs),
                        tuple(u.values for u in utilities),
                        witness,
                    )
        if len(failed) == len(PROPERTIES):
            break
    return FormReport(
        form,
        policy,
        f"{sample} sampled preference profiles (seed {seed})",
        checked,
        checked,
        0,
        **{p: failed.get(p, analysis.FormProperty(True)) for p in PROPERTIES},
    )


@pytest.mark.parametrize("seed", range(4))
def test_sampled_utility_sweep_matches_drawing_up_front(seed):
    # three of the four properties fail on this form, each with a witness
    form = PluralityForm(default_names(3), (1, 1, 3), (1, 0, 2), TieBreak.RANDOMIZED)
    for policy in (BETTER_EU, DIRECT_EU):
        got = classify_game_form(form, policy, sample=12, utility_samples=3, seed=seed)
        want = reference_sampled_sweep(form, policy, 12, 3, seed)
        assert render_form_report(got) == render_form_report(want)
        assert got.games_checked == want.games_checked


def test_sampled_sweep_streams_its_utility_draws():
    # one profile, 4,000 utility draws: drawn one per game, never listed
    form = PluralityForm(default_names(3), (1, 1, 1), tiebreak=TieBreak.RANDOMIZED)
    classify_game_form(form, DIRECT_EU, sample=1, utility_samples=10)  # warm up
    tracemalloc.start()
    try:
        report = classify_game_form(form, DIRECT_EU, sample=1, utility_samples=4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.games_checked == 4000
    assert peak < 1_000_000, peak
