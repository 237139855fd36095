"""Reply graphs and acyclicity analysis.

The central object is the reply graph of a game under a policy: one node
per action profile, one edge per allowed single-voter move. On top of it:

* ``is_fip`` - is the graph acyclic (every improvement path is finite)?
* ``is_weak_fip`` - can every node reach a sink (some path converges,
  under a favourable scheduler)?
* ``is_restricted_fip`` - can a scheduler fix, per (state, voter), ONE of
  the voter's allowed actions so that the restricted graph is acyclic?
* ``from_state`` - the same three questions asked of the reply graph on
  the states play can reach from a start (``_reachable``);
* ``longest_convergence_path`` - worst-case path length of acyclic graphs;
* ``classify_game`` / ``classify_game_form`` - bundled reports, the form
  variant quantifying over preference profiles (and sampled utilities);
* ``conjecture_scan`` - randomized search for counterexamples on families
  whose status is open.

Results carry certificates: a concrete edge cycle when acyclicity fails, a
selection map when a restriction exists, and a trap when none does: states
where some voter's every move stays inside. Weak and restricted FIP are one
attractor computation (``_attractor``), linear in the graph. The form
sweep, the scan and the catalog's facts ask one property check
(``_violations``) which of ``PROPERTIES`` a graph fails. A graph's
profiles, a selection and a route are read-only views over int arrays, so
a classified graph keeps no tuple, dict entry or boxed int for each of its
nodes or slots. Everything
here is pure: inputs are immutable, nothing is cached in module state, and
iteration orders are fixed, so identical inputs give identical reports
(and calls are safe to run concurrently).
"""

from __future__ import annotations

import itertools
import os
import random
from array import array
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from functools import partial
from math import factorial, lcm, prod
from operator import add, eq, floordiv, getitem, index, mod, ne, sub
from typing import Optional

from .core import (
    ConfigurationError,
    Game,
    LimitError,
    PreferenceOrder,
    Profile,
    TieBreak,
    UnsupportedOperationError,
    format_profile,
    random_consistent_utilities,
    random_plurality_game,
)
from .comparators import ComparatorMode, OutcomeComparator, SetComparison
from .dynamics import (
    ReplyKind,
    ReplyPolicy,
    classify_step,
    format_trace,
    select_replies,
)

DEFAULT_NODE_LIMIT = 1_000_000
_NODE_LIMIT_ENV = "IVOTE_NODE_LIMIT"
_flatten = itertools.chain.from_iterable
# A form sweep stops caching voter edge blocks (see _voter_blocks) once it
# holds this many per-node rows, at about 43 bytes a row. Every (voter,
# ranking) block fits for the forms an exhaustive sweep can finish, such
# as m=4, n=4 (96 blocks of 256 rows); past that, sweeps with many nodes
# or many distinct utility orders build the rest of their graphs as the
# reply filter does, instead of growing without bound.
_BLOCK_CACHE_ROWS = 1 << 18
# An exhaustive form sweep checks at most this many games (preference
# profiles, times utility samples under expected utility). The largest
# sweep in use, m=5 and n=3, checks 1,728,000; past the limit the list of
# m! orders alone can exhaust memory, as (15!)^n profiles would.
_SWEEP_LIMIT = 10**7
# A reply graph holds at most this many edges per profile the node limit
# allows. Edges grow about as m^3 in the number m of candidates (two voters
# under better replies: 2,500 profiles and 80,850 edges at m=50), so a
# graph under the node limit alone can still exhaust memory.
_EDGES_PER_NODE = 16


def default_node_limit() -> int:
    """The node budget for graph construction; override via IVOTE_NODE_LIMIT."""
    raw = os.environ.get(_NODE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_NODE_LIMIT
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ConfigurationError(f"{_NODE_LIMIT_ENV} must be a positive integer: {raw!r}")
    return value


def _node_limit(node_limit: Optional[int]) -> int:
    """``node_limit``, or the environment default when None; a limit below 1
    is a usage error, not a limit every graph exceeds."""
    if node_limit is None:
        return default_node_limit()
    if node_limit < 1:
        raise ConfigurationError(f"node limit must be a positive integer: {node_limit}")
    return node_limit


@dataclass(frozen=True)
class Edge:
    """A single-voter move: at node ``src``, ``voter`` switches to ``action``."""

    src: int
    voter: int
    action: int
    dst: int


class _EdgeView(Sequence):
    """``graph.edges``: edge id -> ``Edge``, built on access from the columns."""

    __slots__ = ("_graph",)

    def __init__(self, graph):
        self._graph = graph

    def __len__(self):
        return len(self._graph.dst)

    def __getitem__(self, eid):
        g = self._graph
        eid = index(eid)  # one edge per id: slices are not supported
        return Edge(g.src[eid], g.voter[eid], g.action[eid], g.dst[eid])

    def __iter__(self):
        g = self._graph
        return map(Edge, g.src, g.voter, g.action, g.dst)

    def __eq__(self, other):
        if not isinstance(other, _EdgeView):
            return NotImplemented
        a, b = self._graph, other._graph
        return (a.src, a.voter, a.action, a.dst) == (b.src, b.voter, b.action, b.dst)


class _OutEdgeView(Sequence):
    """``graph.out_edges``: node -> tuple of its edge ids, ascending."""

    __slots__ = ("_offsets",)

    def __init__(self, offsets):
        self._offsets = offsets

    def __len__(self):
        return len(self._offsets) - 1

    def __getitem__(self, node):
        node = range(len(self))[node]  # negative ids and IndexError as for a tuple
        return tuple(range(self._offsets[node], self._offsets[node + 1]))

    def __eq__(self, other):
        if not isinstance(other, _OutEdgeView):
            return NotImplemented
        return self._offsets == other._offsets


class _TupleView(Sequence):
    """A read-only sequence that indexes, compares, hashes and prints as
    the tuple of its items; subclasses give ``_item`` of a non-negative
    index below ``len``."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._item, range(len(self))[i]))
        return self._item(range(len(self))[i])  # negative ids, IndexError

    def __eq__(self, other):
        if not isinstance(other, (tuple, _TupleView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


class _ProfileView(_TupleView):
    """``graph.profiles``: node id -> action profile, decoded from the
    mixed-radix id ``node_of`` encodes, whose digit for voter v is the
    position of their action, weighted by ``strides[v]``. It iterates as
    ``itertools.product(*acts)``. A view on a subgraph first maps its ids
    through ``nodes``, the ids of its nodes in the whole graph."""

    __slots__ = ("_acts", "_strides", "_sizes", "_nodes", "_len")

    def __init__(self, acts, strides, nodes=None):
        self._acts = acts
        self._strides = strides
        self._sizes = tuple(map(len, acts))
        self._nodes = nodes
        self._len = prod(self._sizes) if nodes is None else len(nodes)

    def __len__(self):
        return self._len

    def _profile(self, node):
        return tuple(
            a[node // s % k] for a, s, k in zip(self._acts, self._strides, self._sizes)
        )

    def _item(self, i):
        return self._profile(i if self._nodes is None else self._nodes[i])

    def __iter__(self):
        if self._nodes is None:
            return itertools.product(*self._acts)
        return map(self._profile, self._nodes)

    def subset(self, nodes) -> "_ProfileView":
        """The view whose k-th profile is this view's ``nodes[k]``-th."""
        if self._nodes is not None:
            nodes = map(self._nodes.__getitem__, nodes)
        return _ProfileView(self._acts, self._strides, array("i", nodes))

    def decode(self, ids) -> tuple:
        """The profiles of the nodes ``ids`` (valid, non-negative) as a
        tuple, in bulk. Node id ``head * size + tail`` joins the ``head``-th
        profile of the first k voters to the ``tail``-th of the others, each
        numbered in product order, so two small tables decode every id."""
        if self._nodes is not None:
            ids = map(self._nodes.__getitem__, ids)
        ids = array("i", ids)
        acts, sizes = self._acts, self._sizes
        k = min(
            range(len(acts) + 1), key=lambda k: max(prod(sizes[:k]), prod(sizes[k:]))
        )
        size = prod(sizes[k:])
        head = tuple(itertools.product(*acts[:k]))
        tail = tuple(itertools.product(*acts[k:]))
        repeat = itertools.repeat
        return tuple(
            map(
                add,
                map(head.__getitem__, map(floordiv, ids, repeat(size))),
                map(tail.__getitem__, map(mod, ids, repeat(size))),
            )
        )


class BetterReplyGraph:
    """The reply graph of a game under a policy.

    Nodes are action profiles (in the lexicographic order of per-voter
    action positions), edges the allowed moves. Edges are stored as int
    columns: edge ``eid`` moves ``voter[eid]`` from node ``src[eid]`` to
    node ``dst[eid]`` by playing ``action[eid]``, and node i's edges are
    the ids ``offsets[i]`` to ``offsets[i + 1]``, ordered by voter and then
    by action position. ``edges`` and ``out_edges`` are read-only views
    over the columns, and ``profiles`` decodes node ids (``_ProfileView``).
    Immutable once built.
    """

    __slots__ = (
        "game", "policy", "profiles", "outcomes",
        "offsets", "src", "voter", "action", "dst",
    )

    def __init__(
        self, game, policy, profiles, outcomes, offsets, src, voter, action, dst
    ):
        self.game = game
        self.policy = policy
        self.profiles = profiles
        self.outcomes = outcomes
        self.offsets = offsets
        self.src = src
        self.voter = voter
        self.action = action
        self.dst = dst

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self)

    @property
    def out_edges(self) -> _OutEdgeView:
        return _OutEdgeView(self.offsets)

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    def node_of(self, profile: Profile) -> int:
        # nodes are in itertools.product order: a mixed-radix number whose
        # digits are the voters' action positions
        form = self.game.form
        profile = tuple(profile)
        form.validate_profile(profile)
        node = 0
        for v, a in enumerate(profile):
            actions = form.actions(v)
            node = node * len(actions) + actions.index(a)
        return node

    def profile_of(self, node: int) -> Profile:
        return self.profiles[node]

    def slot_edges(self, node: int, voter: int) -> tuple:
        voters = self.voter
        return tuple(
            eid
            for eid in range(self.offsets[node], self.offsets[node + 1])
            if voters[eid] == voter
        )

    def successors(self, node: int):
        return tuple(self.dst[self.offsets[node] : self.offsets[node + 1]])


def build_graph(
    game: Game,
    policy: ReplyPolicy,
    node_limit: Optional[int] = None,
) -> BetterReplyGraph:
    """Materialize the reply graph; raises LimitError beyond ``node_limit``
    (the environment default when None)."""
    return _reply_graph(_Skeleton(game.form, node_limit), game, policy)


class _Skeleton:
    """The preference-free part of every reply graph on one form.

    ``profiles`` is the view (``_ProfileView``) that decodes node ids to
    profiles; ``outcome_ids[i]`` indexes node i's outcome in ``sets``,
    which holds one frozenset per distinct outcome, and ``outcomes`` is
    the per-node tuple of those shared objects. ``moves[v][k]`` lists, for
    voter v playing their k-th action, every other action as ``(action,
    node offset, named candidate or None)``; ``strides[v]`` is how far one
    step in voter v's action list moves the node index. Raises LimitError
    beyond ``node_limit`` (the environment default when None); a graph on
    the form may hold ``edge_limit`` edges, ``_EDGES_PER_NODE`` per node
    of that limit.
    """

    __slots__ = (
        "profiles", "outcomes", "outcome_ids", "sets", "sizes", "strides", "moves",
        "node_limit", "edge_limit",
    )

    def __init__(self, form, node_limit: Optional[int]):
        node_limit = _node_limit(node_limit)
        n = form.n
        acts = tuple(form.actions(v) for v in range(n))
        sizes = tuple(len(row) for row in acts)
        total = prod(sizes)
        if total > node_limit:
            raise LimitError(
                f"state space has {total} profiles, above the limit of {node_limit}"
            )
        interned = {}
        ids = array(
            "i",
            (
                interned.setdefault(form.outcome(p), len(interned))
                for p in itertools.product(*acts)
            ),
        )
        sets = tuple(interned)
        strides = [1] * n
        for v in range(n - 2, -1, -1):
            strides[v] = strides[v + 1] * sizes[v + 1]
        self.profiles = _ProfileView(acts, tuple(strides))
        self.outcomes = tuple(map(sets.__getitem__, ids))
        self.outcome_ids = ids
        self.node_limit = node_limit
        self.edge_limit = _EDGES_PER_NODE * node_limit
        self.sets = sets
        self.sizes = sizes
        self.strides = tuple(strides)
        self.moves = tuple(
            tuple(
                tuple(
                    (a, (k - pos) * strides[v], form.action_candidate(v, a))
                    for k, a in enumerate(acts[v])
                    if k != pos
                )
                for pos in range(sizes[v])
            )
            for v in range(n)
        )


def _reply_graph(skel: _Skeleton, game: Game, policy: ReplyPolicy) -> BetterReplyGraph:
    """The reply graph of ``game``, whose form ``skel`` was built from."""
    comp = OutcomeComparator(game, policy.comparator)
    outcomes = skel.outcomes
    # prefers[v][x][y]: does voter v strictly prefer outcome y to x?
    # Filled on first use, both directions from one comparison.
    prefers = [{x: {} for x in skel.sets} for _ in range(game.n)]
    SB = SetComparison.STRICTLY_BETTER
    SW = SetComparison.STRICTLY_WORSE

    def beats(v, y, x):
        """Whether voter v strictly prefers outcome y to outcome x."""
        row = prefers[v][x]
        better = row.get(y)
        if better is None:
            verdict = comp.compare(v, y, x)
            prefers[v][y][x] = verdict is SW
            better = row[y] = verdict is SB
        return better

    kind = policy.kind
    edge_limit = skel.edge_limit
    voter_beats = [partial(beats, v) for v in range(game.n)]
    offsets = array("i", [0])
    src, voter, action, dst = (array("i") for _ in range(4))
    positions = itertools.product(*map(range, skel.sizes))
    for i, (x, pos) in enumerate(zip(outcomes, positions)):
        for v, others in enumerate(map(getitem, skel.moves, pos)):
            better = []
            # beats(v, y, x) inlined: this runs once per (node, voter, action)
            row = prefers[v][x]
            for a, offset, c in others:
                j = i + offset
                y = outcomes[j]
                try:
                    improves = row[y]
                except KeyError:
                    improves = beats(v, y, x)
                if improves:
                    better.append((a, y, c, j))
            if better:
                for a, _, _, j in select_replies(kind, better, voter_beats[v]):
                    src.append(i)
                    voter.append(v)
                    action.append(a)
                    dst.append(j)
        edges = len(dst)
        offsets.append(edges)
        if edges > edge_limit:
            raise _edge_limit_error(skel, edges)
    return BetterReplyGraph(
        game, policy, skel.profiles, outcomes, offsets, src, voter, action, dst
    )


def _edge_limit_error(skel: _Skeleton, edges: int) -> LimitError:
    return LimitError(
        f"reply graph reached {edges} edges, above the limit of {skel.edge_limit} "
        f"({_EDGES_PER_NODE} x the node limit of {skel.node_limit})"
    )


def _voter_blocks(graph: BetterReplyGraph) -> list:
    """Each voter's edges of ``graph`` as a block ``(rows, starts)``.

    ``rows[i]`` holds the voter's edges at node i, in edge-id order, as the
    bytes of an ``array('i')`` of ``(src, voter, action, dst)`` quads, and
    ``starts[i]`` counts the voter's edges at the nodes before i.
    """
    quads = array(
        "i", _flatten(zip(graph.src, graph.voter, graph.action, graph.dst))
    ).tobytes()
    width = 4 * array("i").itemsize
    rows = [[b""] * graph.num_nodes for _ in range(graph.game.n)]
    lo = 0
    # the edges of a (node, voter) slot are one run of ids
    for (i, v), run in itertools.groupby(zip(graph.src, graph.voter)):
        hi = lo + width * sum(1 for _ in run)
        rows[v][i] = quads[lo:hi]
        lo = hi
    blocks = []
    for row in rows:
        counts = (len(edges) // width for edges in row)
        blocks.append((tuple(row), tuple(itertools.accumulate(counts, initial=0))))
    return blocks


def _assemble(
    skel: _Skeleton, game: Game, policy: ReplyPolicy, blocks
) -> BetterReplyGraph:
    """The reply graph of ``game`` from one block per voter (see
    ``_voter_blocks``), numbered as ``_reply_graph`` numbers it: node-major,
    voters ascending inside a node."""
    rows, starts = zip(*blocks)
    quads = array("i")
    quads.frombytes(b"".join(_flatten(zip(*rows))))
    if len(quads) // 4 > skel.edge_limit:
        raise _edge_limit_error(skel, len(quads) // 4)
    return BetterReplyGraph(
        game, policy, skel.profiles, skel.outcomes,
        array("i", map(sum, zip(*starts))),
        quads[0::4], quads[1::4], quads[2::4], quads[3::4],
    )


def sinks(graph: BetterReplyGraph) -> tuple:
    """Node ids with no outgoing edge, ascending."""
    off = graph.offsets
    return tuple(itertools.compress(range(graph.num_nodes), map(eq, off, off[1:])))


def nash_equilibria(
    game: Game,
    comparator: Optional[ComparatorMode] = None,
    node_limit: Optional[int] = None,
) -> tuple:
    """Profiles at which no voter has any better reply."""
    from .dynamics import default_comparator

    mode = comparator if comparator is not None else default_comparator(game)
    graph = build_graph(game, ReplyPolicy(ReplyKind.BETTER, mode), node_limit)
    return graph.profiles.decode(sinks(graph))


# ---------------------------------------------------------------------------
# acyclicity


@dataclass(frozen=True)
class FipResult:
    """Acyclicity verdict. When it holds, ``order`` lists the nodes checked
    in a topological order (Kahn's source peel); when it fails, ``cycle`` is
    a closed edge walk."""

    holds: bool
    cycle: Optional[tuple] = None
    # one of many valid orders: left out of ==, hash and repr
    order: Optional[array] = field(default=None, repr=False, compare=False)


def _peel(num_nodes: int, offsets, heads) -> list:
    """Kahn's source peel: the nodes in the order they reach indegree 0. It
    covers every node iff the graph is acyclic. Node i's edges enter the
    nodes ``heads[offsets[i]:offsets[i + 1]]``, and ``heads`` lists no
    others."""
    indeg = [0] * num_nodes
    for dst in heads:
        indeg[dst] += 1
    order = [i for i in range(num_nodes) if indeg[i] == 0]
    # the loop visits the nodes it appends, so ``order`` is also the queue
    for i in order:
        for dst in heads[offsets[i] : offsets[i + 1]]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                order.append(dst)
    return order


def _cyclic_core(offsets, heads, core_nodes) -> frozenset:
    """Drop nodes downstream of every cycle (the source peel keeps anything
    reachable from a cycle, sinks included) so that each surviving node has
    a successor inside the set. Adjacency as for ``_peel``."""
    core = set(core_nodes)
    outdeg = {}
    preds = {}
    for i in core:
        outdeg[i] = 0
        for dst in heads[offsets[i] : offsets[i + 1]]:
            if dst in core:
                outdeg[i] += 1
                preds.setdefault(dst, []).append(i)
    queue = [i for i in core if outdeg[i] == 0]
    removed = set()
    while queue:
        i = queue.pop()
        removed.add(i)
        for src in preds.get(i, ()):
            outdeg[src] -= 1
            if outdeg[src] == 0:
                queue.append(src)
    return frozenset(core - removed)


def _extract_cycle(graph: BetterReplyGraph, offsets, heads, eids, order) -> tuple:
    """Walk inside the cyclic core of a subgraph of ``graph`` on all its
    nodes, on what the peel ``order`` left, until a node repeats; return
    that loop as ``Edge`` objects. Adjacency as for ``_peel``; ``eids[k]``
    is the graph's id of the edge that enters ``heads[k]``."""
    left = set(range(graph.num_nodes))
    left.difference_update(order)  # in place: one hash table, not two
    core_nodes = _cyclic_core(offsets, heads, left)
    start = min(core_nodes)
    path = [start]
    path_edges = []
    seen = {start: 0}
    node = start
    while True:
        k = next(
            k for k in range(offsets[node], offsets[node + 1])
            if heads[k] in core_nodes
        )
        node = heads[k]
        path_edges.append(eids[k])
        if node in seen:
            k = seen[node]
            return tuple(graph.edges[e] for e in path_edges[k:])
        seen[node] = len(path)
        path.append(node)


def is_fip(graph: BetterReplyGraph) -> FipResult:
    """Whether every improvement path is finite."""
    order = _peel(graph.num_nodes, graph.offsets, graph.dst)
    if len(order) == graph.num_nodes:
        return FipResult(True, order=array("i", order))
    return FipResult(
        False,
        _extract_cycle(graph, graph.offsets, graph.dst, range(graph.num_edges), order),
    )


@dataclass(frozen=True)
class WeakFipResult:
    """Reach-a-sink verdict.

    When it holds, ``route[node]`` is an edge id stepping toward a sink
    (None at sinks), a memoryless scheduler witnessing convergence; it is a
    read-only sequence over one array (``_RouteView``). When it
    fails, ``unreachable`` lists the nodes from which no sink is reachable.
    """

    holds: bool
    route: Optional[Sequence] = None
    unreachable: tuple = ()


class _RouteView(_TupleView):
    """``WeakFipResult.route``: node -> the edge id that settled it in the
    attractor's ``settled_by`` array, or None where that holds -1 (sinks)."""

    __slots__ = ("_settled_by",)

    def __init__(self, settled_by):
        self._settled_by = settled_by

    def __len__(self):
        return len(self._settled_by)

    def _item(self, node):
        e = self._settled_by[node]
        return None if e == -1 else e

    def __iter__(self):
        # dict.get(e, e): None for -1, e itself otherwise
        return map({-1: None}.get, self._settled_by, self._settled_by)


def _attractor(num_nodes: int, heads, slot, slot_node, pending, seeds) -> tuple:
    """The attractor S of ``seeds`` in a reachability game on slots.

    Edge k leads into ``heads[k]`` and belongs to slot ``slot[k]``, a slot
    of node ``slot_node[slot[k]]``. A slot is settled by its first edge
    into S, and a node joins S once ``pending[node]`` of its slots are
    settled (``pending`` is counted down in place). Returns ``(order,
    settled_by)``: S in the order it grew, a FIFO queue seeded with
    ``seeds``, and per slot the edge that settled it (-1 if none). Every
    settling edge leads to a node that joined S before its own node.
    """
    # a counting sort of the edges on their heads, stable, so the edges
    # entering node i are by_head[first[i]:first[i + 1]], ascending
    count = [0] * (num_nodes + 1)
    for d in heads:
        count[d + 1] += 1
    first = array("i", itertools.accumulate(count))
    fill = first[:num_nodes]
    by_head = array("i", [0]) * len(heads)
    for k, d in enumerate(heads):
        by_head[fill[d]] = k
        fill[d] += 1
    settled_by = array("i", [-1]) * len(slot_node)
    order = list(seeds)
    # the loop visits the nodes it appends, so ``order`` is also the queue
    for i in order:
        for k in by_head[first[i] : first[i + 1]]:
            s = slot[k]
            if settled_by[s] == -1:
                settled_by[s] = k
                node = slot_node[s]
                pending[node] -= 1
                if pending[node] == 0:
                    order.append(node)
    return order, settled_by


def is_weak_fip(graph: BetterReplyGraph) -> WeakFipResult:
    """Whether a sink is reachable from every node: the attractor of the
    sinks when each node is one slot holding all its edges, so the edge
    that settled it routes toward a sink."""
    n = graph.num_nodes
    order, route = _attractor(n, graph.dst, graph.src, range(n), [1] * n, sinks(graph))
    if len(order) < n:
        return WeakFipResult(False, None, tuple(sorted(set(range(n)).difference(order))))
    return WeakFipResult(True, _RouteView(route))


# restricted acyclicity ------------------------------------------------------


@dataclass(frozen=True)
class RestrictedFipResult:
    """Existence of a per-(state, voter) action restriction with no cycles.

    ``selection`` maps every (node, voter) slot to its chosen edge id when
    the answer is yes, as a read-only mapping over one array
    (``_SelectionView``). Otherwise ``trap`` lists, ascending, the states
    outside the slot attractor (see ``is_restricted_fip``): at each of
    them some voter's every allowed move stays inside the trap, so every
    restriction leaves a cycle reachable from each trap state. When some
    cycle consists of forced moves (slots with a single allowed action,
    hence contained in EVERY restriction), ``forced_cycle`` holds one and
    is the printed certificate. ``branches`` is always 0: no search runs.
    """

    holds: bool
    selection: Optional[Mapping] = None
    forced_cycle: Optional[tuple] = None
    trap: Optional[tuple] = None
    branches: int = 0

    def certificate(self) -> str:
        if self.holds:
            k = len(self.selection) if self.selection else 0
            return f"restriction over {k} slots with an acyclic move graph"
        if self.forced_cycle is not None:
            states = len(self.forced_cycle)
            return (
                f"forced cycle of length {states}: every restriction keeps it "
                f"(each of its moves is the only allowed action of its slot)"
            )
        return (
            f"trap of {len(self.trap)} states: every restriction cycles from each "
            f"of them (at each, some voter's every allowed move stays in the trap)"
        )


class _SelectionView(Mapping):
    """``RestrictedFipResult.selection``: (node, voter) slot -> the id of
    its selected edge. It holds one ascending array of edge ids, one per
    slot; the key of edge e is ``(src[e], voter[e])``, so no key is stored,
    and keys ascend with the ids since a graph's edges are ordered by node
    and then by voter."""

    __slots__ = ("_src", "_voter", "_eids")

    def __init__(self, graph, eids):
        self._src = graph.src
        self._voter = graph.voter
        self._eids = eids

    def __len__(self):
        return len(self._eids)

    def __iter__(self):
        eids = self._eids
        return zip(
            map(self._src.__getitem__, eids), map(self._voter.__getitem__, eids)
        )

    def _key(self, eid):
        return (self._src[eid], self._voter[eid])

    def __getitem__(self, key):
        eids = self._eids
        try:
            k = bisect_left(eids, key, key=self._key)
        except TypeError:  # not a pair of ints: no slot has it
            raise KeyError(key) from None
        if k < len(eids) and self._key(eids[k]) == key:
            return eids[k]
        raise KeyError(key)

    def items(self):
        return _SelectionItems(self)

    def values(self):
        return _SelectionValues(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _SelectionItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._eids)


class _SelectionValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._eids)


def _scc_partition(num_nodes: int, successors) -> list:
    """Strongly connected components, iterative Tarjan, deterministic order."""
    index = [0] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    visited = [False] * num_nodes
    stack = []
    comps = []
    counter = 1
    for root in range(num_nodes):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                visited[node] = True
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            succ = successors(node)
            for k in range(pi, len(succ)):
                nxt = succ[k]
                if not visited[nxt]:
                    work[-1] = (node, k + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comps.append(frozenset(comp))
    return comps


def is_restricted_fip(graph: BetterReplyGraph) -> RestrictedFipResult:
    """Whether some restriction to one edge per (state, voter) slot leaves
    the reply graph acyclic.

    Let S be the least node set that holds every node each of whose slots
    has an edge into S (sinks have no slots, so they start it). The answer
    is yes iff S is every node: the edges that first settled each slot
    then form an acyclic selection, since each leads to a node that joined
    S earlier. Any node outside S has a slot whose every edge stays
    outside S, so every restriction can move forever in the complement,
    the trap (Kukushkin's restricted acyclicity as the attractor of a
    reachability game, computed in linear time).
    """
    acyclic = len(_peel(graph.num_nodes, graph.offsets, graph.dst)) == graph.num_nodes
    return _restriction(graph, acyclic)


def _slot_opens(graph: BetterReplyGraph):
    """Per edge, in id order, whether it opens a (node, voter) slot. A
    slot's edges are one run of ids, so an edge opens one iff its (src,
    voter) pair differs from the edge before's. The two 4-byte columns are
    laid side by side as one 8-byte key per edge, so one C-level pass
    compares them."""
    num_edges = graph.num_edges
    pairs = array("i", bytes(8 * num_edges))
    pairs[0::2] = graph.src
    pairs[1::2] = graph.voter
    keys = memoryview(pairs).cast("B").cast("q")
    return itertools.chain((True,) if num_edges else (), map(ne, keys[1:], keys))


def _slot_starts(graph: BetterReplyGraph) -> array:
    """The first edge id of every (node, voter) slot, ascending."""
    return array("i", itertools.compress(range(graph.num_edges), _slot_opens(graph)))


def _slot_attractor(graph: BetterReplyGraph, starts, seeds) -> tuple:
    """``_attractor`` on the (node, voter) slots of ``graph``, where slot k
    holds the edges from ``starts[k]`` (see ``_slot_starts``) to the next
    slot's start, and ``seeds`` are the sinks."""
    # edge e's slot is the number of slots opened up to e, less one
    slot = array("i", itertools.accumulate(_slot_opens(graph), initial=-1))
    del slot[0]
    slot_node = [*map(graph.src.__getitem__, starts)]
    pending = [0] * graph.num_nodes
    for i in slot_node:
        pending[i] += 1
    return _attractor(graph.num_nodes, graph.dst, slot, slot_node, pending, seeds)


def _restriction(graph: BetterReplyGraph, acyclic: bool) -> RestrictedFipResult:
    """``is_restricted_fip`` for a caller that already knows whether the
    whole graph is ``acyclic``."""
    first = _slot_starts(graph)
    if acyclic:
        # any selection of an acyclic graph is acyclic: each slot's first edge
        return RestrictedFipResult(True, _SelectionView(graph, first))
    n = graph.num_nodes
    order, settled_by = _slot_attractor(graph, first, sinks(graph))
    if len(order) == n:
        # each slot's settling edge: one per slot, so ascending with the slots
        return RestrictedFipResult(True, _SelectionView(graph, settled_by))
    trap = tuple(sorted(set(range(n)).difference(order)))
    # forced moves are in every restriction, so a cycle among them is the
    # plainer certificate; it lies in the trap, as its first node to join S
    # would have needed its one move to lead into S
    lengths = map(sub, itertools.chain(first[1:], (graph.num_edges,)), first)
    single = map(eq, lengths, itertools.repeat(1))
    forced = array("i", itertools.compress(first, single))
    del first  # one entry per slot: not kept alive through the peel
    # the forced moves as a subgraph: node i's are forced[starts[i]:starts[i + 1]]
    count = [0] * (n + 1)
    for eid in forced:
        count[graph.src[eid] + 1] += 1
    starts = array("i", itertools.accumulate(count))
    forced_heads = array("i", map(graph.dst.__getitem__, forced))
    peeled = _peel(n, starts, forced_heads)
    cycle = None
    if len(peeled) < n:
        cycle = _extract_cycle(graph, starts, forced_heads, forced, peeled)
    return RestrictedFipResult(False, forced_cycle=cycle, trap=trap)


# ---------------------------------------------------------------------------
# path-length and per-start analysis


def _longest_from(graph: BetterReplyGraph, order) -> array:
    """Longest path length (in steps) from every node, given ``order``, a
    topological order of all nodes, so one reverse sweep sees each node's
    successors first."""
    off, heads = graph.offsets, graph.dst
    length = array("i", [0]) * graph.num_nodes
    for i in reversed(order):
        lo, hi = off[i], off[i + 1]
        if lo != hi:
            length[i] = 1 + max(map(length.__getitem__, heads[lo:hi]))
    return length


def longest_convergence_path(graph: BetterReplyGraph) -> int:
    """Length of the longest improvement path; errors on cyclic graphs."""
    verdict = is_fip(graph)
    if not verdict.holds:
        raise UnsupportedOperationError(
            "longest path is undefined on a cyclic reply graph"
        )
    return max(_longest_from(graph, verdict.order), default=0)


def _reachable(graph: BetterReplyGraph, node: int) -> tuple:
    """The states play can reach from ``node``, as ``(nodes, sub)``:
    ``nodes`` lists them ascending, and ``sub`` is the reply graph on them,
    whose node k is ``nodes[k]`` and whose edges keep their order. Every
    edge of ``graph`` that leaves one of them is an edge of ``sub``. The
    start reaches every node of ``sub``, so its longest path is the
    longest one of ``sub``. ``sub.node_of`` does not apply."""
    off, heads = graph.offsets, graph.dst
    seen = {node}
    stack = [node]
    while stack:
        i = stack.pop()
        for dst in heads[off[i] : off[i + 1]]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    nodes = sorted(seen)
    renumber = dict(zip(nodes, itertools.count()))
    eids = array("i", _flatten(range(off[i], off[i + 1]) for i in nodes))
    degrees = [off[i + 1] - off[i] for i in nodes]
    sub = BetterReplyGraph(
        graph.game,
        graph.policy,
        graph.profiles.subset(nodes),
        tuple(map(graph.outcomes.__getitem__, nodes)),
        array("i", itertools.accumulate(degrees, initial=0)),
        array("i", _flatten(map(itertools.repeat, range(len(nodes)), degrees))),
        array("i", map(graph.voter.__getitem__, eids)),
        array("i", map(graph.action.__getitem__, eids)),
        array("i", map(renumber.__getitem__, map(heads.__getitem__, eids))),
    )
    return nodes, sub


def longest_path_from(graph: BetterReplyGraph, node: int) -> int:
    """Length of the longest improvement path from ``node``; errors when a
    cycle is reachable from it."""
    _, sub = _reachable(graph, node)
    verdict = is_fip(sub)
    if not verdict.holds:
        raise UnsupportedOperationError(
            "longest path is undefined on a cyclic reachable set"
        )
    return max(_longest_from(sub, verdict.order))


@dataclass(frozen=True)
class FromStateResult:
    """FIP / weak-FIP / restricted-FIP relative to one start state."""

    start: Profile
    reachable: int
    has_ne: bool
    fip: bool
    cycle: Optional[tuple]
    weak_fip: bool
    restricted_fip: bool
    longest: Optional[int]


def from_state(graph: BetterReplyGraph, start: Profile) -> FromStateResult:
    """Acyclicity of play starting at ``start`` only: the whole-graph
    analyses asked of the reply graph on the states reachable from it
    (``_reachable``), with a cycle given in ``graph``'s node ids.
    Restricted FIP holds from ``start`` iff it lies in the slot attractor
    (see ``is_restricted_fip``) of that graph."""
    return _from_state(graph, start, None)


def _from_state(graph: BetterReplyGraph, start: Profile, trap) -> FromStateResult:
    """``from_state`` for a caller that holds the whole graph's restricted
    ``trap`` (empty when restricted FIP holds), or None to compute it."""
    node = graph.node_of(tuple(start))
    nodes, sub = _reachable(graph, node)
    fip_verdict = is_fip(sub)
    weak = is_weak_fip(sub).holds
    cycle = longest = None
    if fip_verdict.holds:
        restricted = True
        longest = max(_longest_from(sub, fip_verdict.order))
    else:
        cycle = tuple(
            Edge(nodes[e.src], e.voter, e.action, nodes[e.dst])
            for e in fip_verdict.cycle
        )
        if trap is not None:
            restricted = node not in trap
        else:
            # the closure is closed under successors, so its trap is the
            # whole graph's trap restricted to it
            restricted = nodes.index(node) not in (_restriction(sub, False).trap or ())
    return FromStateResult(
        start=tuple(start),
        reachable=len(nodes),
        has_ne=bool(sinks(sub)),
        fip=fip_verdict.holds,
        cycle=cycle,
        weak_fip=weak,
        restricted_fip=restricted,
        longest=longest,
    )


# ---------------------------------------------------------------------------
# bundled classification

# the four properties every report answers, in the order reports print them
PROPERTIES = ("has_ne", "fip", "weak_fip", "restricted_fip")


def _violations(graph: BetterReplyGraph, props) -> dict:
    """The properties among ``props`` (names from ``PROPERTIES``) that
    ``graph`` fails, each mapped to its printed witness, in table order.

    An acyclic graph holds all four (FIP => restricted FIP => weak FIP =>
    an equilibrium exists, and every graph has a node), so one peel
    answers every property but has_ne there, and only a cyclic graph
    builds witnesses, and only those asked for.
    """
    out = {}
    if "has_ne" in props and not sinks(graph):
        out["has_ne"] = "no equilibrium profile"
    if all(p == "has_ne" for p in props):
        return out
    order = _peel(graph.num_nodes, graph.offsets, graph.dst)
    if len(order) == graph.num_nodes:
        return out
    form = graph.game.form

    def at(node):
        return format_profile(form, graph.profiles[node])

    if "fip" in props:
        cycle = _extract_cycle(
            graph, graph.offsets, graph.dst, range(graph.num_edges), order
        )
        out["fip"] = "cycle through " + ", ".join(at(e.src) for e in cycle)
    if "weak_fip" in props:
        weak = is_weak_fip(graph)
        if not weak.holds:
            out["weak_fip"] = "no path to a sink from " + at(weak.unreachable[0])
    if "restricted_fip" in props:
        restricted = _restriction(graph, False)
        if not restricted.holds:
            out["restricted_fip"] = restricted.certificate()
    return out


def hierarchy_holds(has_ne: bool, fip: bool, weak_fip: bool, restricted_fip: bool) -> bool:
    """fip => restricted-fip => weak-fip => an equilibrium exists."""
    if fip and not restricted_fip:
        return False
    if restricted_fip and not weak_fip:
        return False
    if weak_fip and not has_ne:
        return False
    return True


@dataclass(frozen=True)
class GameReport:
    """Full classification of one game under one policy."""

    game: Game
    policy: ReplyPolicy
    graph: BetterReplyGraph
    num_nodes: int
    num_edges: int
    equilibria: tuple
    has_ne: bool
    fip: FipResult
    weak_fip: WeakFipResult
    restricted_fip: RestrictedFipResult
    longest: Optional[int]
    from_starts: tuple
    hierarchy_ok: bool


def classify_game(
    game: Game,
    policy: ReplyPolicy,
    starts: Sequence[Profile] = (),
    node_limit: Optional[int] = None,
) -> GameReport:
    graph = build_graph(game, policy, node_limit)
    sink_ids = sinks(graph)
    fip_verdict = is_fip(graph)
    weak = is_weak_fip(graph)
    restricted = _restriction(graph, fip_verdict.holds)
    longest = None
    if fip_verdict.holds:
        longest = max(_longest_from(graph, fip_verdict.order), default=0)
    # one attractor answers every start: restricted FIP holds from a start
    # iff it is outside the trap
    trap = frozenset(restricted.trap or ())
    reports = tuple(_from_state(graph, s, trap) for s in starts)
    return GameReport(
        game=game,
        policy=policy,
        graph=graph,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        equilibria=graph.profiles.decode(sink_ids),
        has_ne=bool(sink_ids),
        fip=fip_verdict,
        weak_fip=weak,
        restricted_fip=restricted,
        longest=longest,
        from_starts=reports,
        hierarchy_ok=hierarchy_holds(
            bool(sink_ids), fip_verdict.holds, weak.holds, restricted.holds
        ),
    )


@dataclass(frozen=True)
class FormProperty:
    """A universally quantified property of a form with a counterexample."""

    holds: bool
    prefs: Optional[tuple] = None
    utilities: Optional[tuple] = None
    witness: str = ""


@dataclass(frozen=True)
class FormReport:
    form: object
    policy: ReplyPolicy
    scope: str
    # every profile the sweep passed (times its utility draws), whether or
    # not it was built; graphs_built counts the reply graphs it built
    games_checked: int
    graphs_built: int
    # how many graphs ran the reply filter (_reply_graph); the others were
    # assembled from per-voter edge blocks the sweep had already cut
    reply_passes: int
    has_ne: FormProperty
    fip: FormProperty
    weak_fip: FormProperty
    restricted_fip: FormProperty


def _eu_rank_key(sets, values) -> tuple:
    """Dense ranks of the mean utilities of ``sets`` under ``values``, so
    that the key orders any two sets as ``eu_compare`` does and two voters
    with equal keys prefer the same sets. Means are scaled by lcm(1..m) to
    stay exact integers (for integer utilities)."""
    scale = lcm(*range(1, len(values) + 1))
    means = [sum(values[c] for c in s) * (scale // len(s)) for s in sets]
    rank = {x: r for r, x in enumerate(sorted(set(means)))}
    return tuple(map(rank.__getitem__, means))


def _voter_classes(form, skel: _Skeleton) -> list:
    """Classes of two or more interchangeable voters, each ascending.

    Voters u < v are interchangeable when they have the same actions, each
    naming the same candidate, and swapping their actions never changes a
    node's outcome id. Swapping the preferences of two such voters then
    relabels every reply graph on the form into an isomorphic one. Being
    interchangeable is transitive, so each voter is tested against the
    first member of each class only.
    """
    ids = skel.outcome_ids
    positions = list(itertools.product(*map(range, skel.sizes)))

    def ballots(v):
        return [(a, form.action_candidate(v, a)) for a in form.actions(v)]

    def interchangeable(u, v):
        if ballots(u) != ballots(v):
            return False
        # swapping the actions of u and v moves node i by this many strides
        step = skel.strides[u] - skel.strides[v]
        return all(
            ids[i] == ids[i + (pos[v] - pos[u]) * step]
            for i, pos in enumerate(positions)
        )

    classes = []
    for v in range(form.n):
        for cls in classes:
            if interchangeable(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return [tuple(cls) for cls in classes if len(cls) > 1]


def _preference_profiles(m: int, n: int):
    """Every profile of ``n`` preference orders over ``m`` candidates, in
    the order of ``itertools.product(orders, repeat=n)`` over the m!
    orders in permutation order. Voter 1's orders are made one at a time,
    and the other voters share one tuple of them, so one voter holds no
    list of the m! orders."""

    def orders():
        return map(PreferenceOrder, itertools.permutations(range(m)))

    rest = (tuple(orders()),) * (n - 1) if n > 1 else ()
    return _flatten(itertools.product((first,), *rest) for first in orders())


def classify_game_form(
    form,
    policy: ReplyPolicy,
    sample: Optional[int] = None,
    utility_samples: int = 5,
    seed: int = 0,
    node_limit: Optional[int] = None,
) -> FormReport:
    """Quantify has-NE / FIP / weak-FIP / restricted-FIP over all preference
    profiles of a form (or ``sample`` random ones).

    Comparators that need utilities get ``utility_samples`` random consistent
    utility vectors per preference profile; each sampled game must satisfy
    the property for it to count as holding. An exhaustive sweep of more
    than ``_SWEEP_LIMIT`` games raises LimitError before it builds any.

    An exhaustive sweep with a comparator that needs no utilities builds
    one game per orbit of the profiles under swaps of interchangeable
    voters (``_voter_classes``), the lex-least: within each class the
    preference indices do not fall. Such a swap relabels the reply graph,
    so every verdict is the same across an orbit, the first profile failing
    a property is the lex-least of its orbit, and the report is the full
    sweep's; skipped profiles still count in ``games_checked``. Sampled
    sweeps and sampled utilities (drawn per profile, so not orbit-invariant)
    build every game.

    A voter's reply edges depend only on the form, the policy and the
    voter's preference over outcome sets (its ranking, or under expected
    utility ``_eu_rank_key``). The sweep cuts each voter's edges out of
    the first graph that needs them and assembles every game whose voters
    all have such a block; ``reply_passes`` counts the graphs the reply
    filter built.
    """
    if sample is not None and sample < 1:
        raise ConfigurationError(f"sample count must be a positive integer: {sample}")
    if utility_samples < 1:
        raise ConfigurationError(
            f"utility sample count must be a positive integer: {utility_samples}"
        )
    rng = random.Random(seed)
    m, n = form.m, form.n
    needs_utilities = policy.comparator is ComparatorMode.EXPECTED_UTILITY
    if sample is None:
        profiles = factorial(m) ** n
        if profiles * (utility_samples if needs_utilities else 1) > _SWEEP_LIMIT:
            draws = f" x {utility_samples} utility samples" if needs_utilities else ""
            raise LimitError(
                f"exhaustive sweep over {profiles} preference profiles{draws} "
                f"is above the limit of {_SWEEP_LIMIT} games"
            )
        pref_iter = _preference_profiles(m, n)
        scope = f"exhaustive over {profiles} preference profiles"
    else:
        pref_iter = (
            tuple(PreferenceOrder(rng.sample(range(m), m)) for _ in range(n))
            for _ in range(sample)
        )
        scope = f"{sample} sampled preference profiles (seed {seed})"
    state = dict.fromkeys(PROPERTIES, FormProperty(True))
    holding = PROPERTIES
    games_checked = graphs_built = reply_passes = 0
    skel = _Skeleton(form, node_limit)
    # (voter, key of the voter's preference over outcome sets) -> the
    # voter's edges; they depend on nothing else, see _voter_blocks
    blocks = {}

    def relation_keys(prefs, utilities):
        if needs_utilities:
            return [_eu_rank_key(skel.sets, u.values) for u in utilities]
        return [p.ranking for p in prefs]

    # consecutive members of each class; permutations() yields rankings in
    # lexicographic order, so rankings compare as the preference indices do
    chains = ()
    if sample is None and not needs_utilities:
        chains = [
            pair for cls in _voter_classes(form, skel) for pair in zip(cls, cls[1:])
        ]

    for prefs in pref_iter:
        if chains and any(prefs[u].ranking > prefs[v].ranking for u, v in chains):
            games_checked += 1  # the leader of its orbit came earlier
            continue
        # drawn one per game: nothing else draws from rng in between, so
        # the stream is the same as drawing them all up front
        variants = (
            (random_consistent_utilities(prefs, rng) for _ in range(utility_samples))
            if needs_utilities
            else (None,)
        )
        for utilities in variants:
            game = Game(form, prefs, utilities)
            keys = list(enumerate(relation_keys(prefs, utilities)))
            cached = list(map(blocks.get, keys))
            if None in cached:
                graph = _reply_graph(skel, game, policy)
                reply_passes += 1
                if len(blocks) * len(skel.outcomes) < _BLOCK_CACHE_ROWS:
                    for key, block in zip(keys, _voter_blocks(graph)):
                        blocks.setdefault(key, block)
            else:
                graph = _assemble(skel, game, policy, cached)
            games_checked += 1
            graphs_built += 1
            failed = _violations(graph, holding)
            if failed:
                for prop, witness in failed.items():
                    state[prop] = FormProperty(
                        False,
                        tuple(p.ranking for p in prefs),
                        tuple(u.values for u in utilities) if utilities else None,
                        witness,
                    )
                holding = tuple(p for p in holding if p not in failed)
        if not holding:
            break

    return FormReport(
        form=form,
        policy=policy,
        scope=scope,
        games_checked=games_checked,
        graphs_built=graphs_built,
        reply_passes=reply_passes,
        **state,
    )


# ---------------------------------------------------------------------------
# direct-move over-approximation


def direct_closure(form, start: Profile, node_limit: Optional[int] = None) -> tuple:
    """All profiles reachable from ``start`` by repeatedly letting any voter
    re-vote onto a candidate that wins after the change.

    Preference-free over-approximation of direct-reply reachability: every
    direct reply of every game on this form is such a move, so any property
    holding on this closure holds on all direct-reply paths of all games.
    """
    node_limit = _node_limit(node_limit)
    start = tuple(start)
    form.validate_profile(start)
    seen = {start}
    stack = [start]
    out = []
    while stack:
        p = stack.pop()
        out.append(p)
        # the rule sees only unseen moves that name a candidate; no other
        # move can be added, so its outcome is not computed
        moves = []
        for v in range(form.n):
            for a in form.actions(v):
                if a == p[v]:
                    continue
                c = form.action_candidate(v, a)
                if c is None:
                    continue
                q = p[:v] + (a,) + p[v + 1 :]
                if q not in seen:
                    moves.append((a, form.outcome(q), c, q))
        for _, _, _, q in select_replies(ReplyKind.DIRECT, moves, None):
            if len(seen) >= node_limit:
                raise LimitError(f"direct closure exceeded {node_limit} profiles")
            seen.add(q)
            stack.append(q)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# randomized scanning


@dataclass(frozen=True)
class ScanParams:
    """Sampling ranges for random weighted games."""

    max_candidates: int = 4
    max_voters: int = 5
    weight_bound: int = 5
    score_bound: int = 3
    min_voters: int = 2
    min_candidates: int = 2


@dataclass(frozen=True)
class ScanViolation:
    game: Game
    witness: str


@dataclass(frozen=True)
class ScanReport:
    params: ScanParams
    trials: int
    seed: int
    policy: ReplyPolicy
    prop: str
    checked: int
    violations: tuple


def conjecture_scan(
    params: ScanParams,
    trials: int,
    seed: int = 0,
    prop: str = "weak_fip",
    policy: Optional[ReplyPolicy] = None,
    node_limit: Optional[int] = None,
    max_violations: int = 10,
) -> ScanReport:
    """Random search for counterexamples on weighted plurality games.

    ``prop`` is one of ``PROPERTIES``, checked on the reply graph of each
    sampled game. A violation report is evidence, never a theorem; an
    empty one even less so.
    """
    if prop not in PROPERTIES:
        raise ConfigurationError(f"unknown property {prop!r}")
    if trials < 1:
        raise ConfigurationError(f"trial count must be a positive integer: {trials}")
    for what, lo, hi in (
        ("candidate", params.min_candidates, params.max_candidates),
        ("voter", params.min_voters, params.max_voters),
    ):
        if lo > hi:
            raise ConfigurationError(f"empty {what} range: {lo} to {hi}")
    if params.weight_bound < 1:
        raise ConfigurationError(
            f"weight bound must be a positive integer: {params.weight_bound}"
        )
    if params.score_bound < 0:
        raise ConfigurationError(
            f"score bound must be a non-negative integer: {params.score_bound}"
        )
    if policy is None:
        policy = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.LEX_SINGLETON)
    node_limit = _node_limit(node_limit)
    rng = random.Random(seed)
    violations = []
    checked = 0
    for _ in range(trials):
        m = rng.randint(params.min_candidates, params.max_candidates)
        n = rng.randint(params.min_voters, params.max_voters)
        game = random_plurality_game(
            m, n, params.weight_bound, params.score_bound, TieBreak.LEXICOGRAPHIC, rng
        )
        graph = build_graph(game, policy, node_limit)
        checked += 1
        witness = _violations(graph, (prop,)).get(prop)
        if witness is not None and len(violations) < max_violations:
            violations.append(ScanViolation(game, witness))
    return ScanReport(
        params=params,
        trials=trials,
        seed=seed,
        policy=policy,
        prop=prop,
        checked=checked,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# rendering


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_game_report(report: GameReport, max_listed: int = 24) -> str:
    form = report.game.form
    lines = [
        "classification report",
        f"form: {form!r}",
        f"policy: {report.policy.describe()}",
        f"states: {report.num_nodes}",
        f"moves: {report.num_edges}",
        f"equilibria: {len(report.equilibria)}",
    ]
    for p in report.equilibria[:max_listed]:
        lines.append(f"  {format_profile(form, p)}")
    if len(report.equilibria) > max_listed:
        lines.append(f"  ... {len(report.equilibria) - max_listed} more")
    lines.append(f"has_ne: {_yesno(report.has_ne)}")
    lines.append(f"fip: {_yesno(report.fip.holds)}")
    if report.fip.cycle:
        lines.append(f"  cycle length {len(report.fip.cycle)}:")
        for rec in _cycle_records(report.graph, report.fip.cycle):
            lines.append("  " + rec)
    if report.longest is not None:
        lines.append(f"longest_path: {report.longest}")
    lines.append(f"weak_fip: {_yesno(report.weak_fip.holds)}")
    if not report.weak_fip.holds:
        bad = report.weak_fip.unreachable[0]
        lines.append(
            f"  no sink reachable from {format_profile(form, report.graph.profiles[bad])}"
        )
    lines.append(f"restricted_fip: {_yesno(report.restricted_fip.holds)}")
    lines.append(f"  {report.restricted_fip.certificate()}")
    for fs in report.from_starts:
        lines.append(f"from {format_profile(form, fs.start)}:")
        lines.append(f"  reachable: {fs.reachable}")
        lines.append(f"  has_ne: {_yesno(fs.has_ne)}")
        lines.append(f"  fip: {_yesno(fs.fip)}")
        lines.append(f"  weak_fip: {_yesno(fs.weak_fip)}")
        lines.append(f"  restricted_fip: {_yesno(fs.restricted_fip)}")
        if fs.longest is not None:
            lines.append(f"  longest_path: {fs.longest}")
    lines.append(f"hierarchy_ok: {_yesno(report.hierarchy_ok)}")
    return "\n".join(lines)


def _cycle_records(graph: BetterReplyGraph, cycle) -> list:
    form = graph.game.form
    out = []
    for t, e in enumerate(cycle, 1):
        rec = classify_step(
            form,
            graph.profiles[e.src],
            graph.profiles[e.dst],
            graph.outcomes[e.src],
            graph.outcomes[e.dst],
            e.voter,
            step=t,
        )
        out.extend(format_trace(form, [rec]))
    return out


def render_form_report(report: FormReport) -> str:
    lines = [
        "form classification report",
        f"form: {report.form!r}",
        f"policy: {report.policy.describe()}",
        f"scope: {report.scope}",
        f"games checked: {report.games_checked}",
    ]
    for name in PROPERTIES:
        prop: FormProperty = getattr(report, name)
        lines.append(f"{name}: {_yesno(prop.holds)}")
        if not prop.holds:
            lines.append(f"  preferences: {prop.prefs}")
            if prop.utilities:
                lines.append(f"  utilities: {prop.utilities}")
            lines.append(f"  witness: {prop.witness}")
    return "\n".join(lines)


def render_scan_report(report: ScanReport) -> str:
    lines = [
        "conjecture scan",
        f"property: {report.prop}",
        f"policy: {report.policy.describe()}",
        f"trials: {report.trials} (seed {report.seed})",
        f"games checked: {report.checked}",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        form = v.game.form
        lines.append(
            f"  m={form.m} n={form.n} weights={form.weights} "
            f"scores={form.initial_scores}"
        )
        lines.append(f"  prefs={tuple(p.ranking for p in v.game.prefs)}")
        lines.append(f"  {v.witness}")
    if not report.violations:
        lines.append("no counterexample found (not a proof)")
    return "\n".join(lines)
