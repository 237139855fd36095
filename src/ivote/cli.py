"""Command line front end.

Subcommands:

* ``simulate`` - run reply dynamics on a game file and print the trace.
* ``classify`` - decide acyclicity properties of a game (or, for a file
  without prefs, of the form quantified over preference profiles).
* ``graph`` - emit the reply graph in DOT format.
* ``catalog`` - list, replay, verify, or export the built-in reference games.
* ``construct`` - write a built-in form (restricted-action, hamming,
  dictatorship) as a game file, or print its separability certificate.
* ``scan`` - random search for counterexamples on weighted games.

Exit codes: 0 when the run converged / the property holds / nothing was
found; 1 when a cycle, violation, or failed property was found (a witness
is printed); 2 on usage or input errors; 3 when a resource limit was hit
(see the IVOTE_NODE_LIMIT environment variable); 4 on an internal error.
Voters are 1-based on the command line and in all output. Output for a
fixed command line and input is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core import (
    ConfigurationError,
    Game,
    IvoteError,
    LimitError,
    format_candidate_set,
    format_profile,
)
from .comparators import ComparatorMode
from .dynamics import (
    FixedPriority,
    MostPreferredAction,
    PathStatus,
    RandomActions,
    RandomAgents,
    ReplyKind,
    ReplyPolicy,
    RoundRobin,
    SchedulerSpec,
    ScriptedActions,
    ScriptedAgents,
    UniqueAction,
    default_comparator,
    format_trace,
    run_path,
)
from .analysis import (
    ScanParams,
    _scc_partition,
    build_graph,
    classify_game,
    classify_game_form,
    conjecture_scan,
    render_form_report,
    render_game_report,
    render_scan_report,
    sinks,
)
from .constructions import (
    catalog,
    catalog_entry,
    dictatorship_form,
    hamming_acyclic_form,
    replay_entry,
    restricted_action_form,
    separability_certificate,
    verify_entry,
)
from .gamefile import GameFileError, dump, dumps, load

_PROPS = ("ne", "fip", "weak-fip", "restricted-fip")
_PROP_KEYS = {
    "ne": "has_ne",
    "fip": "fip",
    "weak-fip": "weak_fip",
    "restricted-fip": "restricted_fip",
}


def _policy_args(sub, default_kind: str = "better") -> None:
    sub.add_argument(
        "--policy",
        choices=[k.value for k in ReplyKind],
        default=default_kind,
        help=f"reply kind (default {default_kind})",
    )
    sub.add_argument(
        "--comparator",
        choices=["auto"] + [c.value for c in ComparatorMode],
        default="auto",
        help="how outcome sets are compared (default auto: lex for "
        "deterministic forms, else eu with utilities, else sd)",
    )


def _policy_for(args, loaded) -> ReplyPolicy:
    if args.comparator != "auto":
        mode = ComparatorMode(args.comparator)
    elif isinstance(loaded, Game):
        mode = default_comparator(loaded)
    elif loaded.deterministic:  # a bare form has no utilities
        mode = ComparatorMode.LEX_SINGLETON
    else:
        mode = ComparatorMode.STOCHASTIC_DOMINANCE
    return ReplyPolicy(ReplyKind(args.policy), mode)


def _resolve_profile(form, text: str) -> tuple:
    names = [s.strip() for s in text.split(",")]
    if len(names) != form.n:
        raise ConfigurationError(
            f"profile {text!r} names {len(names)} actions for {form.n} voters"
        )
    return tuple(_action_named(form, voter, name) for voter, name in enumerate(names))


def _action_named(form, voter: int, name: str) -> int:
    for action in form.actions(voter):
        if form.action_name(voter, action) == name:
            return action
    raise ConfigurationError(f"voter {voter + 1} has no action named {name!r}")


def _int_suffix(spec: str, prefix: str) -> int:
    try:
        return int(spec[len(prefix):])
    except ValueError:
        raise ConfigurationError(f"bad scheduler spec {spec!r}") from None


def _agents_rule(spec: str, n: int):
    if spec == "round-robin":
        return RoundRobin()
    if spec.startswith("round-robin:"):
        start = _int_suffix(spec, "round-robin:")
        if not 1 <= start <= n:
            raise ConfigurationError(f"round-robin start {start} out of range")
        return RoundRobin(start - 1)
    if spec.startswith("priority:"):
        order = _voter_list(spec[len("priority:"):], n)
        return FixedPriority(order)
    if spec.startswith("random:"):
        return RandomAgents(_int_suffix(spec, "random:"))
    if spec == "random":
        return RandomAgents()
    if spec.startswith("script:"):
        return ScriptedAgents(_voter_list(spec[len("script:"):], n))
    raise ConfigurationError(f"unknown agents rule {spec!r}")


def _voter_list(text: str, n: int) -> tuple:
    out = []
    for part in text.split(","):
        try:
            v = int(part)
        except ValueError:
            raise ConfigurationError(f"bad voter {part!r}") from None
        if not 1 <= v <= n:
            raise ConfigurationError(f"voter {v} out of range 1..{n}")
        out.append(v - 1)
    return tuple(out)


def _actions_rule(spec: str, form, agents):
    if spec == "preferred":
        return MostPreferredAction()
    if spec == "unique":
        return UniqueAction()
    if spec == "random":
        return RandomActions()
    if spec.startswith("random:"):
        return RandomActions(_int_suffix(spec, "random:"))
    if spec.startswith("script:"):
        if not isinstance(agents, ScriptedAgents):
            raise ConfigurationError(
                "--actions script:... requires --agents script:..."
            )
        names = spec[len("script:"):].split(",")
        if len(names) != len(agents.voters):
            raise ConfigurationError(
                "scripted actions and scripted agents differ in length"
            )
        return ScriptedActions(
            tuple(_action_named(form, v, name) for v, name in zip(agents.voters, names))
        )
    raise ConfigurationError(f"unknown actions rule {spec!r}")


def _require_game(loaded, path: str) -> Game:
    if not isinstance(loaded, Game):
        raise GameFileError(f"{path}: needs preference orders for this command")
    return loaded


def _print_path(game, start, result) -> None:
    form = game.form
    print(f"start {format_profile(form, start)} "
          f"{format_candidate_set(form, form.outcome(start))}")
    for line in format_trace(form, result.steps):
        print(line)
    if result.status is PathStatus.CONVERGED:
        final = result.final_state
        print(
            f"status: converged after {len(result.steps)} steps at "
            f"{format_profile(form, final)} "
            f"{format_candidate_set(form, form.outcome(final))}"
        )
    elif result.status is PathStatus.CYCLE:
        print(
            f"status: cycle of length {result.cycle_length} "
            f"(state {result.cycle_start} revisited after "
            f"{len(result.steps)} steps)"
        )
    else:
        print(f"status: truncated after {len(result.steps)} steps")


def _cmd_simulate(args) -> int:
    game = _require_game(load(args.game), args.game)
    form = game.form
    policy = _policy_for(args, game)
    start = (
        _resolve_profile(form, args.start)
        if args.start
        else game.truthful_profile()
    )
    agents = _agents_rule(args.agents, form.n)
    actions = _actions_rule(args.actions, form, agents)
    result = run_path(
        game, start, policy, SchedulerSpec(agents, actions), args.max_steps
    )
    _print_path(game, start, result)
    return 1 if result.status is PathStatus.CYCLE else 0


def _property_verdict(args, report, from_start) -> Optional[bool]:
    if args.prop is None:
        return None
    key = _PROP_KEYS[args.prop]
    if from_start is not None:
        return bool(getattr(from_start, key))
    value = getattr(report, key)
    return value.holds if hasattr(value, "holds") else bool(value)


def _cmd_classify(args) -> int:
    loaded = load(args.game)
    policy = _policy_for(args, loaded)
    if isinstance(loaded, Game):
        starts = ()
        if args.start is not None:
            starts = (_resolve_profile(loaded.form, args.start),)
        elif args.from_truthful:
            starts = (loaded.truthful_profile(),)
        report = classify_game(
            loaded, policy, starts, node_limit=args.node_limit
        )
        print(render_game_report(report))
        from_start = report.from_starts[0] if starts else None
        verdict = _property_verdict(args, report, from_start)
    else:
        if args.start is not None or args.from_truthful:
            raise ConfigurationError("start profiles apply to games, not forms")
        report = classify_game_form(
            loaded,
            policy,
            sample=args.sample,
            utility_samples=args.utility_samples,
            seed=args.seed,
            node_limit=args.node_limit,
        )
        print(render_form_report(report))
        verdict = None
        if args.prop is not None:
            verdict = getattr(report, _PROP_KEYS[args.prop]).holds
    if verdict is None:
        return 0
    return 0 if verdict else 1


def _cmd_graph(args) -> int:
    game = _require_game(load(args.game), args.game)
    policy = _policy_for(args, game)
    graph = build_graph(game, policy, node_limit=args.node_limit)
    form = game.form
    sink_set = set(sinks(graph))
    cyclic = {}  # node -> index of its strongly connected component, if not trivial
    if args.highlight_cycles:
        for k, comp in enumerate(_scc_partition(graph.num_nodes, graph.successors)):
            if len(comp) > 1:
                cyclic.update(dict.fromkeys(comp, k))
    lines = ["digraph replies {", "  rankdir=LR;", '  node [shape=box];']
    for i in range(graph.num_nodes):
        label = (
            f"{format_profile(form, graph.profiles[i])} | "
            f"{format_candidate_set(form, graph.outcomes[i])}"
        )
        extra = ", peripheries=2" if i in sink_set else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    for e in graph.edges:
        attrs = f'label="{e.voter + 1}:{form.action_name(e.voter, e.action)}"'
        if e.src in cyclic and cyclic[e.src] == cyclic.get(e.dst):
            attrs += ", penwidth=2"
        lines.append(f"  n{e.src} -> n{e.dst} [{attrs}];")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_catalog(args) -> int:
    if args.verify:
        failures = 0
        for entry in catalog():
            problems = verify_entry(entry)
            if problems:
                failures += 1
                print(f"{entry.name}: FAIL")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"{entry.name}: ok")
        return 1 if failures else 0
    if args.name is None:
        if args.export:
            raise ConfigurationError("--export needs a catalog entry name")
        for entry in catalog():
            print(f"{entry.name}: {entry.description}")
        return 0
    entry = catalog_entry(args.name)
    if args.export:
        dump(entry.game, args.export)
        print(f"wrote {args.export}")
        return 0
    print(f"{entry.name}: {entry.description}")
    print(f"policy: {entry.policy.describe()}")
    result = replay_entry(entry)
    start = result.states[0]
    _print_path(entry.game, start, result)
    problems = verify_entry(entry)
    if problems:
        print("verify: FAIL")
        for p in problems:
            print(f"  {p}")
        return 1
    print("verify: ok")
    return 0


def _cmd_construct(args) -> int:
    if args.target in ("restricted-action", "f-star"):
        form = restricted_action_form()
    elif args.target == "hamming":
        form = hamming_acyclic_form()
    elif args.target == "dictatorship":
        form = dictatorship_form(
            args.candidates, args.voters, args.dictator - 1
        )
    else:  # argparse choices prevent this
        raise ConfigurationError(f"unknown target {args.target!r}")
    if args.certify:
        cert = separability_certificate(form)
        print(f"outcome range: {cert.range_size}")
        print(f"action budget: {cert.action_budget}")
        if cert.min_distance is not None:
            print(f"min profile distance: {cert.min_distance}")
        verdict = "impossible" if cert.non_separable else "not excluded"
        print(f"separable scoring: {verdict}")
        return 0 if cert.non_separable else 1
    text = dumps(form)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_scan(args) -> int:
    params = ScanParams(
        max_candidates=args.max_candidates,
        max_voters=args.max_voters,
        weight_bound=args.weight_bound,
        score_bound=args.score_bound,
        min_voters=args.min_voters,
        min_candidates=args.min_candidates,
    )
    policy = None
    if args.comparator != "auto" or args.policy != "direct":
        mode = (
            ComparatorMode.LEX_SINGLETON
            if args.comparator == "auto"
            else ComparatorMode(args.comparator)
        )
        policy = ReplyPolicy(ReplyKind(args.policy), mode)
    report = conjecture_scan(
        params,
        args.trials,
        seed=args.seed,
        prop=_PROP_KEYS[args.prop],
        policy=policy,
        node_limit=args.node_limit,
    )
    print(render_scan_report(report))
    return 1 if report.violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivote",
        description="iterative plurality voting: dynamics, acyclicity, forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run reply dynamics on a game file")
    p.add_argument("game", help="game file (see the gamefile module docs)")
    _policy_args(p)
    p.add_argument(
        "--start",
        help="comma-separated action names, one per voter "
        "(default: the truthful profile)",
    )
    p.add_argument(
        "--agents",
        default="round-robin",
        help="round-robin[:START] | priority:V,V,... | random[:SEED] | "
        "script:V,V,... (voters 1-based; default round-robin)",
    )
    p.add_argument(
        "--actions",
        default="preferred",
        help="preferred | unique | random[:SEED] | script:NAME,NAME,... "
        "(default preferred)",
    )
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "classify", help="decide acyclicity classes of a game or form"
    )
    p.add_argument("game", help="game file; without prefs the form is "
                   "classified over all preference profiles")
    _policy_args(p)
    p.add_argument(
        "--property",
        dest="prop",
        choices=_PROPS,
        help="exit 0/1 according to this property's verdict",
    )
    p.add_argument(
        "--start",
        help="also analyze play restricted to states reachable from this "
        "profile (with --property, the verdict is taken there)",
    )
    p.add_argument(
        "--from-truthful",
        action="store_true",
        help="like --start with the truthful profile",
    )
    p.add_argument(
        "--sample",
        type=int,
        help="forms only: check this many sampled preference profiles "
        "instead of all of them",
    )
    p.add_argument("--utility-samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-limit", type=int, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("graph", help="emit the reply graph as DOT")
    p.add_argument("game")
    _policy_args(p)
    p.add_argument("-o", "--output", help="write DOT here instead of stdout")
    p.add_argument(
        "--highlight-cycles",
        action="store_true",
        help="bold the edges inside strongly connected components",
    )
    p.add_argument("--node-limit", type=int, default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "catalog", help="list, replay, verify, or export reference games"
    )
    p.add_argument("name", nargs="?", help="entry to replay (default: list)")
    p.add_argument(
        "--verify", action="store_true", help="replay and check every entry"
    )
    p.add_argument("--export", help="write the entry's game file here")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("construct", help="write a built-in form as a game file")
    p.add_argument(
        "target",
        choices=["restricted-action", "f-star", "hamming", "dictatorship"],
    )
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.add_argument("--candidates", type=int, default=3, help="dictatorship only")
    p.add_argument("--voters", type=int, default=3, help="dictatorship only")
    p.add_argument(
        "--dictator", type=int, default=1, help="dictatorship only (1-based)"
    )
    p.add_argument(
        "--certify",
        action="store_true",
        help="print the separability certificate instead of the form",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser(
        "scan", help="random counterexample search on weighted games"
    )
    _policy_args(p, default_kind="direct")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--prop",
        choices=_PROPS,
        default="weak-fip",
        help="property to attack (default weak-fip)",
    )
    p.add_argument("--max-candidates", type=int, default=4)
    p.add_argument("--min-candidates", type=int, default=2)
    p.add_argument("--max-voters", type=int, default=5)
    p.add_argument("--min-voters", type=int, default=2)
    p.add_argument("--weight-bound", type=int, default=5)
    p.add_argument("--score-bound", type=int, default=3)
    p.add_argument("--node-limit", type=int, default=None)
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IvoteError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        # the analysis ran out of stack or memory: a resource limit, no verdict
        detail = str(e) or "out of memory"
        print(f"error: {type(e).__name__}: {detail}", file=sys.stderr)
        return 3
    except Exception as e:
        # a bug, not a verdict: never exit 1, which --property reads as "fails"
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
