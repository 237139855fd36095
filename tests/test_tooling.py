"""The benchmark's tracer reads library names and result fields.

``perfbench/spans.py`` wraps the functions named in ``TRACED`` and, under
``--trace 1``, applies each ``COUNTERS`` lambda to the result of the
function it names. Renaming such a function or dropping a field it reads
should fail here, not halfway through a benchmark run.
"""

import importlib.util
from pathlib import Path

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
