"""Acceptance suite: eleven checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every check is exact: traces are compared verbatim, bounds are
integer inequalities, and the enumerations are exhaustive where stated.
A check that trips collects its first few counterexamples into the
assertion message instead of stopping at the first one.
"""

import itertools
import random
import time
import traceback

from ivote.core import (
    Game,
    PluralityForm,
    PreferenceOrder,
    TieBreak,
    UtilityVector,
    default_names,
)
from ivote.comparators import (
    ComparatorMode,
    SetComparison,
    adversarial_utility,
    axiom_closure,
    eu_compare,
    ld_compare,
    match_dominates,
    sd_compare,
    single_vote_adjacent,
)
from ivote.dynamics import (
    ReplyKind,
    ReplyPolicy,
    classify_step,
    default_comparator,
    improvement_set,
)
from ivote.analysis import (
    _reachable,
    build_graph,
    classify_game,
    classify_game_form,
    direct_closure,
    from_state,
    hierarchy_holds,
    is_fip,
    is_restricted_fip,
    is_weak_fip,
    longest_convergence_path,
    longest_path_from,
    nash_equilibria,
    sinks,
)
from ivote.constructions import (
    ESCAPE_MOVES,
    GameParams,
    catalog,
    catalog_entry,
    hamming_acyclic_form,
    profile_from_names,
    random_game,
    replay_entry,
    restricted_action_form,
    separability_certificate,
    verify_entry,
)

BETTER_LEX = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.LEX_SINGLETON)
DIRECT_LEX = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.LEX_SINGLETON)
BEST_EU = ReplyPolicy(ReplyKind.BEST, ComparatorMode.EXPECTED_UTILITY)
DIRECT_EU = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.EXPECTED_UTILITY)

SB = SetComparison.STRICTLY_BETTER
SW = SetComparison.STRICTLY_WORSE

MAX_REPORTED = 5


def _report(label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"{label}: {status}")
    assert not problems, f"{label} failed:\n" + "\n".join(problems[:12])


def _run(label, body):
    problems = []
    try:
        body(problems)
    except Exception:
        problems.append("unexpected error:\n" + traceback.format_exc())
    _report(label, problems)


def _all_orders(m):
    return tuple(PreferenceOrder(p) for p in itertools.permutations(range(m)))


def _consistent_utility(order, rng):
    # strictly decreasing integer utilities consistent with the ranking
    values = sorted(rng.sample(range(1, 100), order.m), reverse=True)
    u = [0] * order.m
    for r, c in enumerate(order.ranking):
        u[c] = values[r]
    return UtilityVector(tuple(u))


def _nonempty_subsets(m):
    return tuple(
        frozenset(c for c in range(m) if mask >> c & 1)
        for mask in range(1, 1 << m)
    )


# 1. every reference entry replays to its recorded trace, scores, winners,
#    and side facts, quickly


def _acc01(problems):
    t0 = time.perf_counter()
    for entry in catalog():
        for issue in verify_entry(entry):
            problems.append(f"{entry.name}: {issue}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"replay took {elapsed:.2f}s, budget is 1s")


def test_acc01_catalog_replay():
    _run("ACC-01 catalog replay", _acc01)


# 2. unweighted lex plurality: direct-reply graphs are acyclic, the longest
#    improvement path is at most (m*n)^2, and from truth at most m*n


def _check_direct_bounds(game, m, n, tag, problems):
    graph = build_graph(game, DIRECT_LEX)
    verdict = is_fip(graph)
    if not verdict.holds:
        problems.append(f"{tag}: direct graph has a cycle")
        return
    longest = longest_convergence_path(graph)
    if longest > m * m * n * n:
        problems.append(f"{tag}: longest path {longest} > {m * m * n * n}")
    node = graph.node_of(game.truthful_profile())
    from_truth = longest_path_from(graph, node)
    if from_truth > m * n:
        problems.append(f"{tag}: from-truth path {from_truth} > {m * n}")


def _acc02(problems):
    m = 3
    orders = _all_orders(m)
    for n in (2, 3):
        for shat in itertools.product((0, 1), repeat=m):
            form = PluralityForm(default_names(m), (1,) * n, shat)
            for prefs in itertools.product(orders, repeat=n):
                if len(problems) >= MAX_REPORTED:
                    return
                game = Game(form, prefs)
                _check_direct_bounds(game, m, n, f"exhaustive {shat} {prefs}", problems)
    rng = random.Random(20260802)
    for trial in range(10_000):
        if len(problems) >= MAX_REPORTED:
            return
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        seed = rng.randrange(2**30)
        game = random_game(
            GameParams(candidates=m, voters=n, weight_bound=1, score_bound=3),
            seed=seed,
        )
        _check_direct_bounds(game, m, n, f"trial {trial} seed {seed}", problems)


def test_acc02_direct_convergence_bounds():
    _run("ACC-02 direct convergence bounds", _acc02)


# 3. two weighted voters under lexicographic tie-breaking: every direct
#    graph is acyclic, no direct path from the truthful profile is longer
#    than 2m (m*n for n = 2, the from-truth bound of check 2), and better
#    replies never cycle from truth. The 2m bound does not hold from every
#    state: a four-candidate game has a nine-step direct path, which is
#    replayed move by move, so the check fails if the program stops finding
#    that path or finds a longer one


# the counterexample to a global 2m bound: unweighted, no initial scores,
# preferences c>a>b>d and d>b>a>c, truthful profile (c, d); ballots are
# written voter 1 then voter 2
ACC03_PREFS = ("cabd", "dbac")
ACC03_PATH = ("dc", "da", "db", "dd", "bd", "ad", "cd", "ca", "cb", "ab")


def _acc03_counterexample(problems):
    names = default_names(4)
    form = PluralityForm(names, (1, 1), (0, 0, 0, 0))
    prefs = tuple(
        PreferenceOrder(tuple(names.index(c) for c in q)) for q in ACC03_PREFS
    )
    game = Game(form, prefs)
    states = [profile_from_names(form, s) for s in ACC03_PATH]
    for step, (old, new) in enumerate(zip(states, states[1:]), start=1):
        record = classify_step(form, old, new)
        allowed = improvement_set(game, old, record.voter, DIRECT_LEX)
        if new[record.voter] not in allowed or not record.direct:
            problems.append(
                f"counterexample step {step} {ACC03_PATH[step - 1]}->"
                f"{ACC03_PATH[step]} is not a direct better reply"
            )
    graph = build_graph(game, DIRECT_LEX)
    longest = longest_convergence_path(graph)
    if longest != len(ACC03_PATH) - 1:
        problems.append(
            f"counterexample: longest direct path {longest}, expected "
            f"{len(ACC03_PATH) - 1} > 2m = 8"
        )
    from_truth = longest_path_from(graph, graph.node_of(game.truthful_profile()))
    if from_truth != 3:
        problems.append(f"counterexample: from-truth path {from_truth}, expected 3")


def _acc03(problems):
    _acc03_counterexample(problems)
    rng = random.Random(20260803)
    for trial in range(10_000):
        if len(problems) >= MAX_REPORTED:
            return
        m = rng.randint(2, 4)
        seed = rng.randrange(2**30)
        game = random_game(
            GameParams(candidates=m, voters=2, weight_bound=5, score_bound=3),
            seed=seed,
        )
        tag = f"trial {trial} seed {seed} m={m}"
        graph = build_graph(game, DIRECT_LEX)
        if not is_fip(graph).holds:
            problems.append(f"{tag}: direct graph has a cycle")
            continue
        longest = longest_convergence_path(graph)
        from_truth = longest_path_from(graph, graph.node_of(game.truthful_profile()))
        if from_truth > 2 * m:
            problems.append(
                f"{tag}: from-truth direct path {from_truth} > {2 * m} "
                f"(longest from any state {longest})"
            )
        better = build_graph(game, BETTER_LEX)
        if not from_state(better, game.truthful_profile()).fip:
            problems.append(f"{tag}: better replies cycle from truth")


def test_acc03_two_voter_weighted_bounds():
    _run("ACC-03 two-voter weighted bounds", _acc03)


# 4. the weighted reference game admits no terminating restriction: the
#    verdict certifies the failure with a trap, states where some voter's
#    every move stays inside, so every restriction can cycle there


def _acc04(problems):
    game = catalog_entry("weighted_direct_cycle").game
    graph = build_graph(game, DIRECT_LEX)
    if graph.num_nodes != 64:
        problems.append(f"expected 64 states, built {graph.num_nodes}")
    verdict = is_restricted_fip(graph)
    if verdict.holds:
        problems.append("restriction unexpectedly found a selection")
        return
    trap = set(verdict.trap or ())
    if not trap:
        problems.append("verdict carries no trap")
    for node in sorted(trap):
        edges = range(graph.offsets[node], graph.offsets[node + 1])
        if not edges:
            problems.append(f"trap state {node} is a sink")
        stuck = {graph.voter[e] for e in edges} - {
            graph.voter[e] for e in edges if graph.dst[e] not in trap
        }
        if not stuck:
            problems.append(f"every voter can leave the trap at state {node}")
    expected = (
        f"trap of {len(trap)} states: every restriction cycles from each of "
        f"them (at each, some voter's every allowed move stays in the trap)"
    )
    if verdict.certificate() != expected:
        problems.append(f"unexpected certificate: {verdict.certificate()}")


def test_acc04_weighted_restriction_exhaustion():
    _run("ACC-04 weighted restriction trap", _acc04)


# 5. randomized tie-breaking with cardinal utilities: from truth, best
#    replies always terminate within n*m steps and every step is a
#    compromise (the mover ranks the new vote below the old one)


def _acc05(problems):
    rng = random.Random(20260805)
    for trial in range(1_000):
        if len(problems) >= MAX_REPORTED:
            return
        m = rng.randint(2, 4)
        n = rng.randint(2, 3)
        seed = rng.randrange(2**30)
        game = random_game(
            GameParams(
                candidates=m,
                voters=n,
                weight_bound=1,
                score_bound=2,
                tiebreak=TieBreak.RANDOMIZED,
            ),
            seed=seed,
        )
        tag = f"trial {trial} seed {seed}"
        graph = build_graph(game, BEST_EU)
        node = graph.node_of(game.truthful_profile())
        reach, sub = _reachable(graph, node)
        if not is_fip(sub).holds:
            problems.append(f"{tag}: best replies cycle from truth")
            continue
        if longest_path_from(graph, node) > n * m:
            problems.append(f"{tag}: a from-truth path exceeds {n * m} steps")
        for i in reach:
            for eid in graph.out_edges[i]:
                edge = graph.edges[eid]
                old = graph.profiles[edge.src][edge.voter]
                if not game.prefs[edge.voter].prefers(old, edge.action):
                    problems.append(
                        f"{tag}: non-compromise step {old}->{edge.action} "
                        f"by voter {edge.voter + 1}"
                    )


def test_acc05_best_reply_compromise_from_truth():
    _run("ACC-05 best-reply compromise from truth", _acc05)


# 6. randomized tie-breaking, direct replies judged by expected utility:
#    the sinks of the direct graph are exactly the equilibria and every
#    state reaches one (checked exhaustively on small games, then on the
#    larger randomized reference games)


def _check_direct_reaches_ne(game, policy, tag, problems):
    graph = build_graph(game, policy)
    ne = set(nash_equilibria(game, policy.comparator))
    sink_profiles = {graph.profiles[i] for i in sinks(graph)}
    if sink_profiles != ne:
        problems.append(f"{tag}: direct sinks differ from the equilibria")
        return
    if not ne:
        problems.append(f"{tag}: no equilibrium exists")
        return
    if not is_weak_fip(graph).holds:
        problems.append(f"{tag}: some state cannot reach an equilibrium")


def _acc06(problems):
    rng = random.Random(20260806)
    for m in (2, 3):
        names = default_names(m)
        orders = _all_orders(m)
        for n in (2, 3):
            for shat in itertools.product((0, 1, 2), repeat=m):
                form = PluralityForm(names, (1,) * n, shat, TieBreak.RANDOMIZED)
                for prefs in itertools.product(orders, repeat=n):
                    for draw in range(5):
                        if len(problems) >= MAX_REPORTED:
                            return
                        utils = tuple(_consistent_utility(q, rng) for q in prefs)
                        game = Game(form, prefs, utils)
                        tag = f"m={m} n={n} shat={shat} draw={draw}"
                        _check_direct_reaches_ne(game, DIRECT_EU, tag, problems)
    for name in (
        "random_tie_better_cycle",
        "random_tie_cycle_from_truth",
        "random_tie_unique_reply_cycle",
        "random_tie_direct_cycle_from_truth",
    ):
        game = catalog_entry(name).game
        policy = ReplyPolicy(ReplyKind.DIRECT, default_comparator(game))
        _check_direct_reaches_ne(game, policy, name, problems)


def test_acc06_randomized_direct_weak_convergence():
    _run("ACC-06 randomized direct weak convergence", _acc06)


# 7. two-vote protection: when two other candidates lead a* by two or more
#    votes, no chain of direct replies (of any game on the form) ever makes
#    a* a winner; checked on the preference-free reachable closure


def _acc07(problems):
    for m in (2, 3, 4):
        names = default_names(m)
        for n in (1, 2, 3):
            for shat in itertools.product(range(4), repeat=m):
                form = PluralityForm(names, (1,) * n, shat, TieBreak.RANDOMIZED)
                for start in itertools.product(range(m), repeat=n):
                    scores = form.score_vector(start)
                    protected = []
                    for a in range(m):
                        others = sorted(
                            (scores[c] for c in range(m) if c != a), reverse=True
                        )
                        if len(others) >= 2 and others[1] >= scores[a] + 2:
                            protected.append(a)
                    if not protected:
                        continue
                    for profile in direct_closure(form, start):
                        winners = form.outcome(profile)
                        for a in protected:
                            if a in winners:
                                problems.append(
                                    f"shat={shat} start={start}: protected "
                                    f"candidate {names[a]} wins at {profile}"
                                )
                                if len(problems) >= MAX_REPORTED:
                                    return


def test_acc07_two_vote_gap_protection():
    _run("ACC-07 two-vote gap protection", _acc07)


# 8. the restricted-ballot form: exhaustive classification finds weak
#    convergence but no terminating restriction, the reference preferences
#    exhibit the forced six-step cycle, and each tabulated escape move is a
#    better-reply edge onto an equilibrium whenever its conditions hold


def _acc08(problems):
    t0 = time.perf_counter()
    form = restricted_action_form()
    report = classify_game_form(form, BETTER_LEX)
    if report.scope != "exhaustive over 13824 preference profiles":
        problems.append(f"unexpected scope: {report.scope}")
    if not report.weak_fip.holds:
        problems.append("weak convergence fails somewhere")
    if report.restricted_fip.holds:
        problems.append("restriction verdict should fail")
    elif "forced cycle of length 6" not in report.restricted_fip.witness:
        problems.append(f"unexpected witness: {report.restricted_fip.witness}")

    entry = catalog_entry("restricted_action_cycle")
    graph = build_graph(entry.game, BETTER_LEX)
    verdict = is_restricted_fip(graph)
    if verdict.holds or verdict.forced_cycle is None:
        problems.append("reference preferences lost their forced cycle")
    else:
        found = {graph.profiles[e.src] for e in verdict.forced_cycle}
        replay = replay_entry(entry)
        expected = set(replay.states[replay.cycle_start:-1])
        if found != expected:
            problems.append("forced cycle states differ from the replayed cycle")

    names = form.names
    q1, q2 = entry.game.prefs[0], entry.game.prefs[1]
    for move in ESCAPE_MOVES:
        applying = 0
        for perm in itertools.permutations(range(form.m)):
            q3 = PreferenceOrder(perm)
            if not move.applies(q3, names):
                continue
            applying += 1
            game = Game(form, (q1, q2, q3))
            g = build_graph(game, BETTER_LEX)
            src = g.node_of(profile_from_names(form, move.state))
            dst = g.node_of(profile_from_names(form, move.landing))
            edge_ok = any(
                g.edges[eid].dst == dst
                and g.edges[eid].voter == move.voter
                and form.action_name(move.voter, g.edges[eid].action) == move.action
                for eid in g.out_edges[src]
            )
            if not edge_ok:
                problems.append(f"escape from {move.state} is not an edge under {perm}")
            if g.out_edges[dst]:
                problems.append(f"escape landing {move.landing} not a sink under {perm}")
        if applying == 0:
            problems.append(f"escape from {move.state} never applies")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")


def test_acc08_restricted_ballot_classification():
    _run("ACC-08 restricted-ballot classification", _acc08)


# 9. the distance-three code form: outcome range 15 beats the action budget
#    14 (so no per-voter scoring can express it), near-miss profiles always
#    fall back to the default winner, and better replies never cycle


def _acc09(problems):
    t0 = time.perf_counter()
    form = hamming_acyclic_form()
    cert = separability_certificate(form)
    if (cert.range_size, cert.action_budget, cert.min_distance) != (15, 14, 3):
        problems.append(
            f"certificate ({cert.range_size}, {cert.action_budget}, "
            f"{cert.min_distance}) != (15, 14, 3)"
        )
    if not cert.non_separable:
        problems.append("certificate fails to exclude separable scoring")

    z = form.names.index("z")
    profiles = list(itertools.product((0, 1), repeat=form.n))
    winner = {}
    for p in profiles:
        (w,) = form.outcome(p)
        winner[p] = w
    coded = [p for p in profiles if winner[p] != z]
    for p, q in itertools.combinations(coded, 2):
        if sum(a != b for a, b in zip(p, q)) <= 2:
            problems.append(f"near profiles {p} and {q} both elect codewords")

    rng = random.Random(20260809)
    for trial in range(200):
        if len(problems) >= MAX_REPORTED:
            return
        prefs = tuple(
            PreferenceOrder(tuple(rng.sample(range(form.m), form.m)))
            for _ in range(form.n)
        )
        game = Game(form, prefs)
        if not is_fip(build_graph(game, BETTER_LEX)).holds:
            problems.append(f"trial {trial}: better replies cycle")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")


def test_acc09_distance_three_code_form():
    _run("ACC-09 distance-three code form", _acc09)


# 10. winner-set comparators: the block-matching test agrees with
#     stochastic dominance on every pair a single vote can produce, the
#     axiom closures collapse to the dominance notions on that family,
#     dominance verdicts bind every consistent utility, and the 0/1
#     threshold utility refutes every non-dominated pair


def _acc10(problems):
    rng = random.Random(20260810)
    for m in (2, 3, 4, 5):
        perms = list(itertools.permutations(range(m)))
        if len(perms) > 24:
            perms = rng.sample(perms, 100)
        subsets = _nonempty_subsets(m)
        adjacent = [
            (X, Y)
            for X in subsets
            for Y in subsets
            if X != Y and single_vote_adjacent(X, Y)
        ]
        for perm in perms:
            order = PreferenceOrder(perm)
            for X, Y in adjacent:
                if match_dominates(order, X, Y) != (sd_compare(order, X, Y) is SB):
                    problems.append(f"m={m} {perm}: match vs dominance on {X} {Y}")
                    if len(problems) >= MAX_REPORTED:
                        return

    for m in (2, 3, 4):
        subsets = _nonempty_subsets(m)
        pairs = [(X, Y) for X in subsets for Y in subsets if X != Y]
        adjacent = [(X, Y) for X, Y in pairs if single_vote_adjacent(X, Y)]
        for perm in itertools.permutations(range(m)):
            order = PreferenceOrder(perm)
            kgr = axiom_closure(order, "KGR")
            kg = axiom_closure(order, "KG")
            for X, Y in adjacent:
                if kgr.holds(X, Y) != (sd_compare(order, X, Y) is SB):
                    problems.append(f"m={m} {perm}: KGR vs dominance on {X} {Y}")
                if kg.holds(X, Y) != (ld_compare(order, X, Y) is SB):
                    problems.append(f"m={m} {perm}: KG vs local dominance on {X} {Y}")
                if len(problems) >= MAX_REPORTED:
                    return
            for X, Y in pairs:
                if ld_compare(order, X, Y) is SB and sd_compare(order, X, Y) is not SB:
                    problems.append(f"m={m} {perm}: local dominance beyond dominance")
                verdict = sd_compare(order, X, Y)
                if verdict is not SB and eu_compare(
                    adversarial_utility(order, X, Y), X, Y
                ) is not SW:
                    problems.append(f"m={m} {perm}: {X} vs {Y} not refuted")
                if len(problems) >= MAX_REPORTED:
                    return

    for trial in range(1_000):
        m = rng.randint(2, 4)
        order = PreferenceOrder(tuple(rng.sample(range(m), m)))
        utility = _consistent_utility(order, rng)
        subsets = _nonempty_subsets(m)
        for X in subsets:
            for Y in subsets:
                if X == Y:
                    continue
                verdict = sd_compare(order, X, Y)
                if verdict is SB and eu_compare(utility, X, Y) is not SB:
                    problems.append(f"trial {trial}: utility ignores {X} > {Y}")
                if verdict is SW and eu_compare(utility, X, Y) is not SW:
                    problems.append(f"trial {trial}: utility ignores {X} < {Y}")
                if len(problems) >= MAX_REPORTED:
                    return

    # six-candidate regression: dominance holds on a pair no single vote
    # can produce, and the axioms alone never derive it
    order = PreferenceOrder(tuple(range(6)))
    X, Y = frozenset({0, 3}), frozenset({1, 2, 4, 5})
    if not match_dominates(order, X, Y):
        problems.append("regression: block matching fails on the far pair")
    if sd_compare(order, X, Y) is not SB:
        problems.append("regression: dominance fails on the far pair")
    if axiom_closure(order, "KGR").holds(X, Y):
        problems.append("regression: axioms derive the far pair")
    if single_vote_adjacent(X, Y):
        problems.append("regression: far pair counted as adjacent")


def test_acc10_set_extension_comparators():
    _run("ACC-10 set-extension comparators", _acc10)


# 11. the property ladder (acyclic -> restriction -> weak -> equilibrium)
#     holds on every game the suite analyzes, reference and random alike


def _acc11(problems):
    kinds = (ReplyKind.BETTER, ReplyKind.BEST, ReplyKind.DIRECT, ReplyKind.DIRECT_BEST)
    reports = []
    for entry in catalog():
        reports.append((entry.name, classify_game(
            entry.game, entry.policy, starts=(entry.game.truthful_profile(),)
        )))
    rng = random.Random(20260811)
    for trial in range(250):
        m = rng.randint(2, 4)
        n = rng.randint(2, 3)
        tiebreak = rng.choice((TieBreak.LEXICOGRAPHIC, TieBreak.RANDOMIZED))
        game = random_game(
            GameParams(
                candidates=m,
                voters=n,
                weight_bound=rng.randint(1, 5),
                score_bound=rng.randint(0, 3),
                tiebreak=tiebreak,
            ),
            seed=rng.randrange(2**30),
        )
        policy = ReplyPolicy(rng.choice(kinds), default_comparator(game))
        reports.append((f"trial {trial}", classify_game(
            game, policy, starts=(game.truthful_profile(),)
        )))
    for tag, report in reports:
        if len(problems) >= MAX_REPORTED:
            return
        if not report.hierarchy_ok:
            problems.append(f"{tag}: hierarchy violated")
        for fs in report.from_starts:
            if not hierarchy_holds(fs.has_ne, fs.fip, fs.weak_fip, fs.restricted_fip):
                problems.append(f"{tag}: hierarchy violated from {fs.start}")


def test_acc11_property_hierarchy():
    _run("ACC-11 property hierarchy", _acc11)
