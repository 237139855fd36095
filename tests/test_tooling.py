"""The benchmark's tracer reads library names and result fields.

``perfbench/spans.py`` wraps the functions named in ``TRACED`` and, under
``--trace 1``, applies each ``COUNTERS`` lambda to the result of the
function it names. Renaming such a function or dropping a field it reads
should fail here, not halfway through a benchmark run. The library's
public names are pinned here too, so that no change to them goes unseen.
"""

import importlib.util
from pathlib import Path

import ivote
from ivote import (
    ComparatorMode,
    GameParams,
    PluralityForm,
    ReplyKind,
    ReplyPolicy,
    ScanParams,
    build_graph,
    catalog_entry,
    classify_game_form,
    conjecture_scan,
    is_restricted_fip,
    random_game,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
DIRECT_LEX = ReplyPolicy(ReplyKind.DIRECT, ComparatorMode.LEX_SINGLETON)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = load_spans()
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"ivote.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_counters_read_their_results():
    spans = load_spans()
    entry = catalog_entry("weighted_direct_cycle")
    cyclic = build_graph(entry.game, entry.policy)
    results = {
        "analysis.build_graph": lambda: build_graph(
            random_game(GameParams(3, 3), 0), DIRECT_LEX
        ),
        "analysis.is_restricted_fip": lambda: is_restricted_fip(cyclic),
        "analysis.classify_game_form": lambda: classify_game_form(
            PluralityForm(("a", "b", "c"), (1, 1)), DIRECT_LEX
        ),
        "analysis.conjecture_scan": lambda: conjecture_scan(ScanParams(), 2),
    }
    assert set(spans.COUNTERS) <= set(results)
    for name, counter in spans.COUNTERS.items():
        counts = counter(results[name]())
        assert counts and all(isinstance(v, int) for v in counts.values()), name


# ``ivote.__all__``: a change here is a change to the library's interface
PUBLIC_NAMES = [
    "BetterReplyGraph",
    "CatalogEntry",
    "CatalogFact",
    "ComparatorMode",
    "ConfigurationError",
    "ESCAPE_MOVES",
    "EscapeMove",
    "FipResult",
    "FixedPriority",
    "FormReport",
    "FromStateResult",
    "Game",
    "GameFileError",
    "GameParams",
    "GameReport",
    "GameSpecError",
    "IvoteError",
    "LimitError",
    "MostPreferredAction",
    "OutcomeComparator",
    "PathResult",
    "PathStatus",
    "PluralityForm",
    "PreferenceOrder",
    "Profile",
    "RandomActions",
    "RandomAgents",
    "ReplyKind",
    "ReplyPolicy",
    "RestrictedFipResult",
    "RoundRobin",
    "ScanParams",
    "ScanReport",
    "ScheduleError",
    "SchedulerSpec",
    "ScriptedActions",
    "ScriptedAgents",
    "SeparabilityCertificate",
    "SetComparison",
    "SetDominance",
    "StepRecord",
    "TabularForm",
    "TieBreak",
    "UniqueAction",
    "UnsupportedOperationError",
    "UtilityVector",
    "WeakFipResult",
    "adversarial_utility",
    "analysis",
    "axiom_closure",
    "build_graph",
    "catalog",
    "catalog_entry",
    "classify_game",
    "classify_game_form",
    "classify_step",
    "comparators",
    "compare",
    "conjecture_scan",
    "constructions",
    "core",
    "default_comparator",
    "default_names",
    "default_node_limit",
    "default_policy",
    "dictatorship_form",
    "direct_closure",
    "dump",
    "dumps",
    "dynamics",
    "eu_compare",
    "expected_utility",
    "format_candidate_set",
    "format_profile",
    "format_trace",
    "from_state",
    "gamefile",
    "hamming_acyclic_form",
    "hierarchy_holds",
    "improvement_set",
    "is_fip",
    "is_restricted_fip",
    "is_weak_fip",
    "k_compare",
    "ld_compare",
    "load",
    "load_game",
    "loads",
    "longest_convergence_path",
    "match_dominates",
    "nash_equilibria",
    "outcome",
    "outcome_names",
    "profile_from_names",
    "profile_names",
    "random_consistent_utilities",
    "random_game",
    "render_form_report",
    "render_game_report",
    "render_scan_report",
    "replay_entry",
    "restricted_action_defining_plurality",
    "restricted_action_form",
    "run_path",
    "score_vector",
    "sd_compare",
    "separability_certificate",
    "single_vote_adjacent",
    "sinks",
    "truthful_profile",
    "verify_catalog",
    "verify_entry",
]


def test_public_names_are_pinned():
    assert sorted(ivote.__all__) == PUBLIC_NAMES
