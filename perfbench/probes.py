"""Per-layer probes: direct timings of single layers through public calls.

Every probe calls only names exported by ``ivote``, so it keeps working
when the internals behind them are rewritten. Times are medians over
batches sized to take about ``TARGET_S`` each.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time

TARGET_S = 0.02
BATCHES = 5


def per_call_s(fn, target: float = TARGET_S, batches: int = BATCHES) -> float:
    """Median seconds per ``fn()`` call over ``batches`` timed batches."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    calls = max(1, int(target / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _subsets(m: int) -> list:
    return [
        frozenset(c)
        for k in range(1, m + 1)
        for c in itertools.combinations(range(m), k)
    ]


def core_outcome_ns(form) -> float:
    profiles = list(itertools.product(*(form.actions(v) for v in range(form.n))))
    outcome = form.outcome

    def sweep():
        for p in profiles:
            outcome(p)

    return per_call_s(sweep) / len(profiles) * 1e9


def comparator_ns(iv, inputs) -> dict:
    """Per ``OutcomeComparator.compare`` call over every winner-set pair and
    voter: lex on the 4,096-state game, expected utility (EU) on the
    16,384-state game, fresh (cold) and warmed."""
    lex_game = inputs.lex4096
    singles = [frozenset((c,)) for c in range(lex_game.m)]
    lex_calls = [
        (v, x, y) for v in range(lex_game.n) for x in singles for y in singles
    ]
    eu_game = inputs.eu16k
    sets = _subsets(eu_game.m)
    eu_calls = [(v, x, y) for v in range(eu_game.n) for x in sets for y in sets]

    def run(comp, calls):
        compare = comp.compare
        for v, x, y in calls:
            compare(v, x, y)

    lex = iv.OutcomeComparator(lex_game, iv.ComparatorMode.LEX_SINGLETON)
    warm = iv.OutcomeComparator(eu_game, iv.ComparatorMode.EXPECTED_UTILITY)
    run(warm, eu_calls)
    cold = per_call_s(
        lambda: run(
            iv.OutcomeComparator(eu_game, iv.ComparatorMode.EXPECTED_UTILITY), eu_calls
        )
    )
    return {
        "comparators.lex.ns": per_call_s(lambda: run(lex, lex_calls)) / len(lex_calls) * 1e9,
        "comparators.eu.cold_ns": cold / len(eu_calls) * 1e9,
        "comparators.eu.warm_ns": per_call_s(lambda: run(warm, eu_calls))
        / len(eu_calls)
        * 1e9,
    }


def dynamics_probes(iv, game, policy, seed: int) -> dict:
    rng = random.Random(seed)
    acts = [game.form.actions(v) for v in range(game.n)]
    profiles = [tuple(rng.choice(row) for row in acts) for _ in range(32)]
    comp = iv.OutcomeComparator(game, policy.comparator)

    def replies():
        for p in profiles:
            for v in range(game.n):
                iv.improvement_set(game, p, v, policy, comp)

    start = game.truthful_profile()
    return {
        "dynamics.improvement_set.us": per_call_s(replies)
        / (len(profiles) * game.n)
        * 1e6,
        "dynamics.run_path.ms": per_call_s(
            lambda: iv.run_path(game, start, policy, max_steps=1000)
        )
        * 1e3,
    }


def gamefile_probes(iv, game) -> dict:
    text = iv.dumps(game)
    return {
        "gamefile.dumps.us": per_call_s(lambda: iv.dumps(game)) * 1e6,
        "gamefile.loads.us": per_call_s(lambda: iv.loads(text)) * 1e6,
    }


def verify_catalog_ms(iv) -> float:
    return per_call_s(iv.verify_catalog, target=0.1, batches=3) * 1e3


def process_ms(argv, env, runs: int = 5) -> float:
    """Median wall time of a short child process, in ms."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def cli_main_ms(iv_cli, calls) -> dict:
    """In-process ``ivote.cli.main(argv)`` with stdout captured, in ms."""
    out = {}
    for sub, argv in calls:

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                iv_cli.main(argv)

        out[f"cli.main_ms.{sub}"] = per_call_s(call, target=0.05, batches=3) * 1e3
    return out


def rss_probe(iv, game, policy) -> None:
    """Print the ru_maxrss growth of one graph build per edge, as JSON.

    Meant for a fresh process, so the growth is the build's own."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    graph = iv.build_graph(game, policy)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"bytes_per_edge": (after - before) * 1024 / graph.num_edges}))
    sys.stdout.flush()
