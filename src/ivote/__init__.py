"""Iterative plurality voting games.

Better/best/direct reply dynamics on finite game forms, exact decision of
acyclicity classes (finite improvement properties, their weak and
restricted variants, and from-a-start variants), outcome-set comparators
for randomized tie-breaking, a verified catalog of reference games, and
counterexample constructions. See the module docstrings for the pieces:

* :mod:`ivote.core` - forms, games, preferences, utilities.
* :mod:`ivote.comparators` - how voters compare sets of possible winners.
* :mod:`ivote.dynamics` - reply policies, schedulers, play paths.
* :mod:`ivote.analysis` - reply graphs, acyclicity verdicts, reports.
* :mod:`ivote.constructions` - reference games and special forms.
* :mod:`ivote.gamefile` - plain-text game files.
* :mod:`ivote.cli` - the ``ivote`` command.
"""

from .core import (
    ConfigurationError,
    Game,
    GameSpecError,
    IvoteError,
    LimitError,
    PluralityForm,
    PreferenceOrder,
    Profile,
    ScheduleError,
    TabularForm,
    TieBreak,
    UnsupportedOperationError,
    UtilityVector,
    default_names,
    format_candidate_set,
    format_profile,
    outcome,
    random_consistent_utilities,
    score_vector,
    truthful_profile,
)
from .comparators import (
    ComparatorMode,
    OutcomeComparator,
    SetComparison,
    SetDominance,
    adversarial_utility,
    axiom_closure,
    compare,
    eu_compare,
    expected_utility,
    k_compare,
    ld_compare,
    match_dominates,
    sd_compare,
    single_vote_adjacent,
)
from .dynamics import (
    FixedPriority,
    MostPreferredAction,
    PathResult,
    PathStatus,
    RandomActions,
    RandomAgents,
    ReplyKind,
    ReplyPolicy,
    RoundRobin,
    SchedulerSpec,
    ScriptedActions,
    ScriptedAgents,
    StepRecord,
    UniqueAction,
    classify_step,
    default_comparator,
    default_policy,
    format_trace,
    improvement_set,
    run_path,
)
from .analysis import (
    BetterReplyGraph,
    FipResult,
    FormReport,
    FromStateResult,
    GameReport,
    RestrictedFipResult,
    ScanParams,
    ScanReport,
    WeakFipResult,
    build_graph,
    classify_game,
    classify_game_form,
    conjecture_scan,
    default_node_limit,
    direct_closure,
    from_state,
    hierarchy_holds,
    is_fip,
    is_restricted_fip,
    is_weak_fip,
    longest_convergence_path,
    nash_equilibria,
    render_form_report,
    render_game_report,
    render_scan_report,
    sinks,
)
from .constructions import (
    CatalogEntry,
    CatalogFact,
    EscapeMove,
    ESCAPE_MOVES,
    GameParams,
    SeparabilityCertificate,
    catalog,
    catalog_entry,
    dictatorship_form,
    hamming_acyclic_form,
    outcome_names,
    profile_from_names,
    profile_names,
    random_game,
    replay_entry,
    restricted_action_defining_plurality,
    restricted_action_form,
    separability_certificate,
    verify_catalog,
    verify_entry,
)
from .gamefile import GameFileError, dump, dumps, load, load_game, loads

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
