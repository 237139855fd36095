"""End-to-end tests for the command line interface.

Every test drives ivote.cli.main() directly and checks stdout, stderr,
and the exit code. Long outputs are pinned verbatim: the CLI promises
byte-identical output for a fixed command line and input.
"""

import math
import shutil
import subprocess
import sys
import time
from unittest import mock

import pytest

from ivote import analysis
from ivote.analysis import classify_game_form, render_form_report
from ivote.cli import main
from ivote.comparators import ComparatorMode
from ivote.constructions import (
    GameParams,
    catalog,
    catalog_entry,
    dictatorship_form,
    random_game,
    restricted_action_form,
)
from ivote.core import (
    ConfigurationError,
    Game,
    GameSpecError,
    LimitError,
    PluralityForm,
    PreferenceOrder,
    ScheduleError,
    TabularForm,
    TieBreak,
    UnsupportedOperationError,
)
from ivote.dynamics import ReplyKind, ReplyPolicy
from ivote.gamefile import GameFileError, dump, dumps, load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lbc(tmp_path):
    # two unweighted voters, initial scores (1,0,0), best replies cycle
    path = tmp_path / "lbc.game"
    dump(catalog_entry("lex_best_cycle").game, str(path))
    return str(path)


@pytest.fixture()
def tiny_form(tmp_path):
    path = tmp_path / "tiny.form"
    path.write_text("form plurality\ncandidates a b\nvoter\nvoter\n")
    return str(path)


@pytest.fixture()
def ring_form(tmp_path):
    # 3x3 tabular form with a forced better-reply ring and one far corner
    table = {
        (0, 0): {1}, (1, 0): {0}, (1, 1): {1}, (0, 1): {0},
        (2, 0): {2}, (2, 1): {2}, (0, 2): {2}, (1, 2): {2},
        (2, 2): {0},
    }
    form = TabularForm(("a", "b", "c"), (("p0", "p1", "p2"), ("q0", "q1", "q2")), table)
    path = tmp_path / "ring.form"
    dump(form, str(path))
    return str(path)


# --- simulate ---


def test_simulate_truthful_start_already_stable(capsys, lbc):
    code, out, err = run(capsys, "simulate", lbc)
    assert code == 0
    assert err == ""
    assert out == (
        "start (a,c) {a}\n"
        "status: converged after 0 steps at (a,c) {a}\n"
    )


def test_simulate_scripted_cycle(capsys, lbc):
    code, out, _ = run(
        capsys, "simulate", lbc, "--policy", "best", "--start", "b,c",
        "--agents", "script:2,1,2,1", "--actions", "script:b,c,c,b",
    )
    assert code == 1
    assert out == (
        "start (b,c) {a}\n"
        "1 2 c b {a} {b} 1 true\n"
        "2 1 b c {b} {a} 3 false\n"
        "3 2 b c {a} {c} 1 true\n"
        "4 1 c b {c} {a} 3 false\n"
        "status: cycle of length 4 (state 0 revisited after 4 steps)\n"
    )


def test_simulate_round_robin_escapes_the_cycle(capsys, lbc):
    # under round-robin with most-preferred tie-breaking the same start
    # converges: voter 1 jumps to its top candidate instead of cycling
    code, out, _ = run(
        capsys, "simulate", lbc, "--policy", "best", "--start", "b,c"
    )
    assert code == 0
    assert out == (
        "start (b,c) {a}\n"
        "1 2 c b {a} {b} 1 true\n"
        "2 1 b a {b} {a} 2 true\n"
        "status: converged after 2 steps at (a,b) {a}\n"
    )


def test_simulate_max_steps_truncates(capsys, lbc):
    code, out, _ = run(
        capsys, "simulate", lbc, "--policy", "best", "--start", "b,c",
        "--agents", "script:2,1,2,1", "--actions", "script:b,c,c,b",
        "--max-steps", "3",
    )
    assert code == 0
    assert out.endswith("status: truncated after 3 steps\n")


def test_simulate_negative_max_steps_is_a_usage_error(capsys, lbc):
    argv = ("simulate", lbc, "--start", "b,c", "--max-steps")
    code, out, err = run(capsys, *argv, "-3")
    assert code == 2
    assert out == ""
    assert err == "error: step bound must be a non-negative integer: -3\n"
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0
    assert out == "start (b,c) {a}\nstatus: truncated after 0 steps\n"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("--start", "a"), "names 1 actions for 2 voters"),
        (("--start", "a,z"), "voter 2 has no action named 'z'"),
        (("--agents", "bogus"), "unknown agents rule"),
        (("--agents", "round-robin:3"), "out of range"),
        (("--agents", "priority:1,9"), "voter 9 out of range"),
        (("--actions", "script:b"), "requires --agents script:"),
        (("--actions", "nope"), "unknown actions rule"),
    ],
)
def test_simulate_usage_errors(capsys, lbc, argv, needle):
    code, out, err = run(capsys, "simulate", lbc, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err


def test_simulate_missing_file(capsys):
    code, _, err = run(capsys, "simulate", "/no/such/file.game")
    assert code == 2
    assert err.startswith("error: ")


def test_simulate_scheduler_stall_is_an_error(capsys, lbc):
    # at (b,c) only voter 2 can move, so scheduling voter 1 is a stall
    code, _, err = run(
        capsys, "simulate", lbc, "--start", "b,c",
        "--agents", "script:1", "--actions", "script:a",
    )
    assert code == 2
    assert "error: " in err


# --- classify ---

GAME_REPORT = """\
classification report
form: PluralityForm(m=3, n=2, weights=(1, 1), initial_scores=(1, 0, 0), tiebreak=lex)
policy: best/lex
states: 9
moves: 8
equilibria: 3
  (a,a)
  (a,b)
  (a,c)
has_ne: yes
fip: no
  cycle length 4:
  1 1 b c {b} {a} 3 false
  2 2 b c {a} {c} 1 true
  3 1 c b {c} {a} 3 false
  4 2 c b {a} {b} 1 true
weak_fip: yes
restricted_fip: yes
  restriction over 6 slots with an acyclic move graph
hierarchy_ok: yes
"""


def test_classify_game_report(capsys, lbc):
    code, out, err = run(capsys, "classify", lbc, "--policy", "best")
    assert code == 0
    assert err == ""
    assert out == GAME_REPORT


@pytest.mark.parametrize(
    "prop, expected",
    [("ne", 0), ("fip", 1), ("weak-fip", 0), ("restricted-fip", 0)],
)
def test_classify_property_exit_codes(capsys, lbc, prop, expected):
    code, _, _ = run(
        capsys, "classify", lbc, "--policy", "best", "--property", prop
    )
    assert code == expected


def test_classify_from_truthful_scopes_the_verdict(capsys, lbc):
    # the cycle is unreachable from truth, so fip holds there
    code, out, _ = run(
        capsys, "classify", lbc, "--policy", "best",
        "--from-truthful", "--property", "fip",
    )
    assert code == 0
    assert "from (a,c):" in out


def test_classify_start_scopes_the_verdict(capsys, lbc):
    code, out, _ = run(
        capsys, "classify", lbc, "--policy", "best",
        "--start", "b,c", "--property", "fip",
    )
    assert code == 1
    assert "from (b,c):" in out
    assert "  reachable: 6" in out
    assert "  fip: no" in out


FORM_REPORT = """\
form classification report
form: PluralityForm(m=2, n=2, weights=(1, 1), initial_scores=(0, 0), tiebreak=lex)
policy: better/lex
scope: exhaustive over 4 preference profiles
games checked: 4
has_ne: yes
fip: yes
weak_fip: yes
restricted_fip: yes
"""


def test_classify_bare_form_exhaustive(capsys, tiny_form):
    code, out, err = run(capsys, "classify", tiny_form)
    assert code == 0
    assert err == ""
    assert out == FORM_REPORT


def test_classify_form_prints_the_full_sweep(capsys, tmp_path):
    # the sweep builds one game per orbit of the three interchangeable
    # voters; it must print what a sweep that builds every game prints
    form = PluralityForm(("a", "b", "c"), (1, 1, 1))
    path = tmp_path / "three.form"
    dump(form, str(path))
    policy = ReplyPolicy(ReplyKind.BETTER, ComparatorMode.LEX_SINGLETON)
    with mock.patch.object(analysis, "_voter_classes", lambda form, skel: []):
        full = classify_game_form(form, policy)
    reduced = classify_game_form(form, policy)
    assert reduced.graphs_built < reduced.games_checked == full.graphs_built
    assert not full.fip.holds
    code, out, err = run(capsys, "classify", str(path), "--property", "fip")
    assert (code, out, err) == (1, render_form_report(full) + "\n", "")


def test_classify_form_rejects_start(capsys, tiny_form):
    code, _, err = run(capsys, "classify", tiny_form, "--start", "a,b")
    assert code == 2
    assert "start profiles apply to games, not forms" in err


def test_classify_form_sample_scope(capsys, tiny_form):
    code, out, _ = run(
        capsys, "classify", tiny_form, "--sample", "3", "--seed", "4"
    )
    assert code == 0
    assert "scope: 3 sampled preference profiles (seed 4)" in out
    assert "games checked: 3" in out


def test_classify_form_counterexamples(capsys, ring_form):
    code, out, _ = run(capsys, "classify", ring_form, "--property", "weak-fip")
    assert code == 1
    assert "scope: exhaustive over 36 preference profiles" in out
    # all four properties fail by the fourth profile, so checking stops there
    assert "games checked: 4" in out
    assert "has_ne: no" in out
    assert "  witness: no equilibrium profile" in out
    assert "weak_fip: no" in out
    assert "  witness: no path to a sink from (p0,q0)" in out
    assert "forced cycle of length 4" in out


def test_classify_node_limit_exit_code(capsys, lbc):
    code, _, err = run(capsys, "classify", lbc, "--node-limit", "8")
    assert code == 3
    assert "above the limit" in err


def test_classify_edge_limit_exit_code(capsys, tmp_path):
    # 2,500 states and 80,850 moves: above 16 moves per state of the limit
    m = 50
    form = PluralityForm(tuple(f"c{i}" for i in range(m)), (1, 1))
    ranking = tuple(range(m))
    path = str(tmp_path / "opposite.game")
    dump(Game(form, (PreferenceOrder(ranking), PreferenceOrder(ranking[::-1]))), path)
    code, out, err = run(capsys, "classify", path, "--node-limit", "2500")
    assert (code, out) == (3, "")
    assert err.startswith("error: reply graph reached ")
    assert err.endswith(
        " edges, above the limit of 40000 (16 x the node limit of 2500)\n"
    )
    assert err.count("\n") == 1


def test_classify_hamming_form_exceeds_the_sweep_limit(capsys, tmp_path):
    # (15!)^n preference profiles: the sweep refuses before building any
    # of the 15! orders, which would exhaust memory
    path = str(tmp_path / "h.game")
    assert run(capsys, "construct", "hamming", "-o", path)[0] == 0
    profiles = math.factorial(15) ** load(path).n
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", path)
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == (
        f"error: exhaustive sweep over {profiles} preference profiles "
        f"is above the limit of {analysis._SWEEP_LIMIT} games\n"
    )


@pytest.mark.parametrize("limit", ["0", "-3"])
@pytest.mark.parametrize("sub", ["classify", "graph", "scan"])
def test_node_limit_below_one_is_a_usage_error(capsys, lbc, sub, limit):
    argv = [sub] + ([] if sub == "scan" else [lbc]) + ["--node-limit", limit]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: node limit must be a positive integer: {limit}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["classify", "FORM", "--policy", "better", "--comparator", "eu",
             "--utility-samples", "0"],
            "utility sample count must be a positive integer: 0",
        ),
        (
            ["classify", "FORM", "--sample", "-3"],
            "sample count must be a positive integer: -3",
        ),
        (
            ["classify", "FORM", "--sample", "0"],
            "sample count must be a positive integer: 0",
        ),
        (["scan", "--trials", "0"], "trial count must be a positive integer: 0"),
    ],
)
def test_count_below_one_is_a_usage_error(capsys, tmp_path, argv, message):
    # zero games checked must not read as "every property holds"
    path = tmp_path / "random.game"
    path.write_text(
        dumps(PluralityForm(("a", "b", "c"), (1, 1, 1), tiebreak=TieBreak.RANDOMIZED))
    )
    code, out, err = run(capsys, *[str(path) if a == "FORM" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (GameFileError, 2),
        (GameSpecError, 2),
        (ConfigurationError, 2),
        (ScheduleError, 2),
        (UnsupportedOperationError, 2),
        (LimitError, 3),
        (KeyError, 4),
    ],
)
def test_errors_exit_with_one_line(capsys, monkeypatch, lbc, error, code):
    # usage errors exit 2, resource limits 3 and internal errors 4; none of
    # them may exit 1, which --property reads as "the property fails"
    def broken(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr("ivote.cli.classify_game", broken)
    assert run(capsys, "classify", lbc, "--property", "fip") == (
        code,
        "",
        "error: internal error: KeyError: 'boom'\n" if code == 4 else "error: boom\n",
    )


def test_classify_reports_stack_exhaustion_as_a_resource_limit(
    capsys, monkeypatch, lbc
):
    # an analysis that recurses past the stack gives no verdict: exit 3
    # with a one-line error, not exit 1 and not a traceback
    def bottomless(*args, **kwargs):
        return bottomless(*args, **kwargs)

    monkeypatch.setattr("ivote.cli.classify_game", bottomless)
    code, out, err = run(capsys, "classify", lbc)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: RecursionError:")
    assert err.count("\n") == 1


def test_classify_decides_the_4096_state_game(tmp_path):
    # its largest cyclic component has 2,247 nodes; the restriction verdict
    # does not recurse, so depth is no limit and the verdict is final
    path = tmp_path / "lex4096.game"
    dump(random_game(GameParams(4, 6), 7), str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "ivote.cli", "classify", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    for line in ("fip: no", "weak_fip: yes", "restricted_fip: yes"):
        assert line in lines
    assert "  restriction over 8070 slots with an acyclic move graph" in lines


def test_classify_gives_the_256_state_eu_game_a_trap(capsys, tmp_path):
    # every restriction of this game's better/EU graph cycles; the verdict
    # is a 37-state trap, not a resource limit (exit 3)
    path = tmp_path / "eu256.game"
    path.write_text(
        "form plurality\n"
        "candidates a b c d\n"
        "tiebreak random\n"
        "initial_scores 0 0 0 1\n"
        "voter w=3 actions=* prefs = a > b > d > c\n"
        "utilities = 394 244 88 188\n"
        "voter w=2 actions=* prefs = c > d > a > b\n"
        "utilities = 205 185 343 259\n"
        "voter w=1 actions=* prefs = c > a > b > d\n"
        "utilities = 218 178 230 143\n"
        "voter w=2 actions=* prefs = d > b > c > a\n"
        "utilities = 75 198 142 201\n"
    )
    trap_line = (
        "  trap of 37 states: every restriction cycles from each of them "
        "(at each, some voter's every allowed move stays in the trap)"
    )
    code, out, err = run(capsys, "classify", str(path), "--comparator", "eu")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "policy: better/eu" in lines
    assert lines[lines.index("restricted_fip: no") + 1] == trap_line
    code, prop_out, err = run(
        capsys, "classify", str(path), "--comparator", "eu",
        "--property", "restricted-fip",
    )
    assert (code, prop_out, err) == (1, out, "")


# --- graph ---

GRAPH_DOT = """\
digraph replies {
  rankdir=LR;
  node [shape=box];
  n0 [label="(a,a) | {a}", peripheries=2];
  n1 [label="(a,b) | {a}", peripheries=2];
  n2 [label="(a,c) | {a}", peripheries=2];
  n3 [label="(b,a) | {a}"];
  n4 [label="(b,b) | {b}"];
  n5 [label="(b,c) | {a}"];
  n6 [label="(c,a) | {a}"];
  n7 [label="(c,b) | {a}"];
  n8 [label="(c,c) | {c}"];
  n3 -> n4 [label="2:b"];
  n4 -> n1 [label="1:a"];
  n4 -> n7 [label="1:c", penwidth=2];
  n5 -> n4 [label="2:b", penwidth=2];
  n6 -> n8 [label="2:c"];
  n7 -> n8 [label="2:c", penwidth=2];
  n8 -> n2 [label="1:a"];
  n8 -> n5 [label="1:b", penwidth=2];
}
"""


def test_graph_dot_with_cycle_highlighting(capsys, lbc):
    code, out, err = run(
        capsys, "graph", lbc, "--policy", "best", "--highlight-cycles"
    )
    assert code == 0
    assert err == ""
    assert out == GRAPH_DOT


def test_graph_without_highlighting_has_no_penwidth(capsys, lbc):
    code, out, _ = run(capsys, "graph", lbc, "--policy", "best")
    assert code == 0
    assert "penwidth" not in out
    assert out.replace(", penwidth=2", "") == GRAPH_DOT.replace(", penwidth=2", "")


def test_graph_highlights_only_edges_inside_one_component(capsys, tmp_path):
    # five cyclic components, with 28 edges that join two different ones
    game = random_game(GameParams(3, 4, tiebreak=TieBreak.RANDOMIZED), 0)
    path = tmp_path / "random.game"
    dump(game, str(path))
    code, out, _ = run(capsys, "graph", str(path), "--highlight-cycles")
    assert code == 0
    graph = analysis.build_graph(game, ReplyPolicy(ReplyKind.BETTER, ComparatorMode.EXPECTED_UTILITY))
    comps = analysis._scc_partition(graph.num_nodes, graph.successors)
    comp_of = {i: k for k, comp in enumerate(comps) if len(comp) > 1 for i in comp}
    assert len(set(comp_of.values())) == 5
    lines = [ln for ln in out.splitlines() if " -> " in ln]
    assert len(lines) == graph.num_edges
    bold = across = 0
    for e, line in zip(graph.edges, lines):
        assert line.startswith(f"  n{e.src} -> n{e.dst} [")
        inside = e.src in comp_of and comp_of[e.src] == comp_of.get(e.dst)
        across += e.src in comp_of and e.dst in comp_of and not inside
        bold += inside
        assert ("penwidth=2" in line) == inside, line
    assert (bold, across) == (46, 28)


def test_graph_output_file_matches_stdout(capsys, lbc, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run(
        capsys, "graph", lbc, "--policy", "best", "--highlight-cycles",
        "-o", str(target),
    )
    assert code == 0
    assert out == f"wrote {target}\n"
    assert target.read_text(encoding="utf-8") == GRAPH_DOT


# --- catalog ---


def test_catalog_lists_every_entry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [e.name for e in catalog()]
    assert all(": " in ln for ln in lines)


def test_catalog_replay_entry(capsys):
    code, out, _ = run(capsys, "catalog", "lex_best_cycle")
    assert code == 0
    assert out.startswith("lex_best_cycle: ")
    assert "policy: best/lex\n" in out
    assert "start (b,c) {a}\n" in out
    assert "status: cycle of length 4 (state 0 revisited after 4 steps)\n" in out
    assert out.endswith("verify: ok\n")


def test_catalog_verify_all(capsys):
    code, out, _ = run(capsys, "catalog", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(catalog())
    assert all(ln.endswith(": ok") for ln in lines)


def test_catalog_export_round_trips(capsys, tmp_path):
    target = tmp_path / "wdc.game"
    code, out, _ = run(
        capsys, "catalog", "weighted_direct_cycle", "--export", str(target)
    )
    assert code == 0
    assert out == f"wrote {target}\n"
    assert load(str(target)) == catalog_entry("weighted_direct_cycle").game


def test_catalog_export_needs_a_name(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "--export", str(tmp_path / "x.game"))
    assert code == 2
    assert "--export needs a catalog entry name" in err


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "nope")
    assert code == 2
    assert "no catalog entry named 'nope'" in err


# --- construct ---


def test_construct_writes_the_restricted_form(capsys):
    code, out, _ = run(capsys, "construct", "restricted-action")
    assert code == 0
    assert out == dumps(restricted_action_form())


def test_construct_f_star_is_an_alias(capsys):
    _, direct, _ = run(capsys, "construct", "restricted-action")
    code, alias, _ = run(capsys, "construct", "f-star")
    assert code == 0
    assert alias == direct


def test_construct_hamming_certificate(capsys):
    code, out, _ = run(capsys, "construct", "hamming", "--certify")
    assert code == 0
    assert out == (
        "outcome range: 15\n"
        "action budget: 14\n"
        "min profile distance: 3\n"
        "separable scoring: impossible\n"
    )


def test_construct_dictatorship_certificate_not_excluded(capsys):
    code, out, _ = run(
        capsys, "construct", "dictatorship", "--certify",
        "--candidates", "2", "--voters", "4",
    )
    assert code == 1
    assert out == (
        "outcome range: 2\n"
        "action budget: 8\n"
        "separable scoring: not excluded\n"
    )


def test_construct_dictatorship_file_round_trips(capsys, tmp_path):
    target = tmp_path / "dict.form"
    code, out, _ = run(
        capsys, "construct", "dictatorship", "--candidates", "3",
        "--voters", "2", "--dictator", "2", "-o", str(target),
    )
    assert code == 0
    assert out == f"wrote {target}\n"
    assert load(str(target)) == dictatorship_form(3, 2, dictator=1)


def test_construct_dictatorship_above_the_node_limit(capsys):
    # 10^8 profiles would take tens of GB as a table: refused up front
    code, out, err = run(
        capsys, "construct", "dictatorship", "--candidates", "10", "--voters", "8"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: a dictatorship table of 10^8 profiles is above the node "
        "limit of 1000000\n"
    )


def test_construct_dictator_out_of_range(capsys):
    code, _, err = run(capsys, "construct", "dictatorship", "--dictator", "5")
    assert code == 2
    assert "dictator 4 out of range" in err


# --- scan ---


def test_scan_clean_run(capsys):
    code, out, _ = run(
        capsys, "scan", "--trials", "6", "--seed", "1",
        "--max-candidates", "3", "--max-voters", "3", "--score-bound", "2",
    )
    assert code == 0
    assert out == (
        "conjecture scan\n"
        "property: weak_fip\n"
        "policy: direct/lex\n"
        "trials: 6 (seed 1)\n"
        "games checked: 6\n"
        "violations: 0\n"
        "no counterexample found (not a proof)\n"
    )


def test_scan_finds_better_reply_cycles(capsys):
    argv = (
        "scan", "--prop", "fip", "--policy", "better",
        "--trials", "25", "--seed", "2",
        "--max-candidates", "3", "--max-voters", "3", "--score-bound", "2",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "violations: 2" in out
    assert "cycle through" in out
    # identical command line, identical bytes
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 1
    assert out2 == out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-candidates", "1"], "empty candidate range: 2 to 1"),
        (["--min-voters", "5", "--max-voters", "2"], "empty voter range: 5 to 2"),
        (["--weight-bound", "0"], "weight bound must be a positive integer: 0"),
        (["--score-bound", "-1"], "score bound must be a non-negative integer: -1"),
    ],
)
def test_scan_bad_ranges_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "scan", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# --- plumbing ---


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classify_reruns_are_byte_identical(capsys, lbc):
    _, first, _ = run(capsys, "classify", lbc, "--policy", "best")
    _, second, _ = run(capsys, "classify", lbc, "--policy", "best")
    assert first == second


@pytest.mark.skipif(shutil.which("ivote") is None, reason="ivote not on PATH")
def test_console_script_matches_main(capsys):
    proc = subprocess.run(
        [shutil.which("ivote"), "catalog"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert proc.stdout == out


def test_module_entry_point(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "ivote.cli", "construct", "hamming", "--certify"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "separable scoring: impossible" in proc.stdout
