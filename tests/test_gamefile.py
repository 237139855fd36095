"""The plain-text game format: parsing, errors, and round-trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ivote import (
    Game,
    GameFileError,
    GameParams,
    PluralityForm,
    TabularForm,
    TieBreak,
    catalog,
    dictatorship_form,
    dump,
    dumps,
    hamming_acyclic_form,
    load,
    load_game,
    loads,
    random_game,
    restricted_action_defining_plurality,
    restricted_action_form,
)

PLURALITY_TEXT = """\
# two voters over three candidates
form plurality
candidates a b c

tiebreak lex
initial_scores 1 0 0
voter w=1 actions=* prefs = a > b > c   # truthteller
voter w=2 actions=a,c prefs = c > b > a
"""


def test_loads_plurality_game():
    game = loads(PLURALITY_TEXT)
    assert isinstance(game, Game)
    form = game.form
    assert form.names == ("a", "b", "c")
    assert form.weights == (1, 2)
    assert form.initial_scores == (1, 0, 0)
    assert form.tiebreak is TieBreak.LEXICOGRAPHIC
    assert form.action_sets == ((0, 1, 2), (0, 2))
    assert game.prefs[0].ranking == (0, 1, 2)
    assert game.prefs[1].ranking == (2, 1, 0)


def test_defaults_and_glued_prefs():
    game = loads("candidates a b\nvoter prefs=b>a\nvoter prefs =a> b\n")
    form = game.form
    assert isinstance(form, PluralityForm)
    assert form.weights == (1, 1)
    assert form.initial_scores == (0, 0)
    assert form.tiebreak is TieBreak.LEXICOGRAPHIC
    assert game.prefs[0].ranking == (1, 0)
    assert game.prefs[1].ranking == (0, 1)


def test_bare_form_without_prefs():
    form = loads("candidates a b c\nvoter w=3 actions=*\nvoter\n")
    assert isinstance(form, PluralityForm)
    assert form.weights == (3, 1)


def test_tabular_inferred_from_map_lines():
    text = (
        "candidates a b\n"
        "voter actions=x,y\n"
        "map x -> a\n"
        "map y -> a,b\n"
    )
    form = loads(text)
    assert isinstance(form, TabularForm)
    assert form.table[(0,)] == frozenset({0})
    assert form.table[(1,)] == frozenset({0, 1})


def test_utilities_parse_exactly():
    text = (
        "candidates a b c\n"
        "voter prefs = a > b > c\n"
        "utilities = 3/2 1.25 0\n"
        "voter prefs = c > b > a\n"
        "utilities 0 1 2\n"
    )
    game = loads(text)
    assert game.utilities[0].values == (Fraction(3, 2), Fraction(5, 4), 0)
    assert game.utilities[1].values == (0, 1, 2)
    # decimal and fraction spellings of the same value are the same game
    again = loads(text.replace("3/2", "1.5"))
    assert again == game


@pytest.mark.parametrize(
    "text, lineno, needle",
    [
        ("candidates a b\nvoter prefs = a > b\nbogus x\n", 3, "unknown directive"),
        ("candidates a b\ncandidates a b\nvoter\n", 2, "duplicate"),
        ("form ranked\ncandidates a b\nvoter\n", 1, "unknown form kind"),
        ("candidates a b\ntiebreak coin\nvoter\n", 2, "unknown tiebreak"),
        ("candidates a b\ninitial_scores 1 x\nvoter\n", 2, "must be integers"),
        ("candidates a b\nvoter w=1 color=red prefs = a > b\n", 2, "unknown voter option"),
        ("candidates a b\nvoter w=fat\n", 2, "bad weight"),
        ("candidates a b\nvoter actions=\n", 2, "empty action list"),
        ("candidates a b\nvoter prefs\n", 2, "expected '='"),
        ("candidates a b\nvoter prefs = a > > b\n", 2, "empty name"),
        ("candidates a b\nutilities = 1 2\nvoter\n", 2, "before any voter"),
        (
            "candidates a b\nvoter prefs = a > b\nutilities = 1 2\nutilities = 1 2\n",
            4,
            "already has utilities",
        ),
        ("candidates a b\nvoter prefs = a > b\nutilities =\n", 3, "empty utilities"),
        ("candidates a b\nvoter prefs = a > b\nutilities = one 2\n", 3, "bad number"),
        ("candidates a b\nvoter actions=x\nmap x a\n", 3, "needs '->'"),
        ("candidates a b\nvoter actions=x\nmap x y -> a\n", 3, "one action per voter"),
        ("candidates a b\nvoter actions=x\nmap y -> a\n", 3, "no action 'y'"),
        ("candidates a b\nvoter actions=x\nmap x -> q\n", 3, "unknown candidate"),
        (
            "candidates a b\nvoter actions=x,y\nmap x -> a\nmap x -> b\nmap y -> a\n",
            4,
            "duplicate map line",
        ),
        (
            "form plurality\ncandidates a b\nvoter\nmap x -> a\n",
            4,
            "require 'form tabular'",
        ),
        ("form tabular\ncandidates a b\nvoter w=2 actions=x\nmap x -> a\n", 3, "no weight"),
        (
            "form tabular\ncandidates a b\nvoter\nmap x -> a\n",
            3,
            "explicit actions= list",
        ),
        ("candidates a b\nvoter prefs = a > q\n", 2, "unknown candidate"),
        ("candidates a b\nvoter prefs = a > a\n", 2, None),
        (
            "candidates a b\nvoter prefs = a > b\nvoter\n",
            3,
            "every voter has prefs or none",
        ),
        (
            "candidates a b\nvoter prefs = a > b\nutilities = 2 1\n"
            "voter prefs = b > a\n",
            4,
            "every voter has utilities or none",
        ),
        (
            "candidates a b\nvoter prefs = a > b\nutilities = 1 2 3\n"
            "voter prefs = b > a\nutilities = 2 1\n",
            2,
            "one utility value per candidate",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(GameFileError) as err:
        loads(text)
    assert f"line {lineno}:" in str(err.value)
    if needle is not None:
        assert needle in str(err.value)


def test_errors_without_a_single_line():
    with pytest.raises(GameFileError, match="missing 'candidates'"):
        loads("form plurality\n")
    with pytest.raises(GameFileError, match="no voter lines"):
        loads("candidates a b\n")
    with pytest.raises(GameFileError, match="plurality forms only"):
        loads("form tabular\ncandidates a b\ntiebreak lex\nvoter actions=x\nmap x -> a\n")
    # structural validation surfaces as a file error too
    with pytest.raises(GameFileError, match="misses profile"):
        loads("candidates a b\nvoter actions=x,y\nmap x -> a\n")
    with pytest.raises(GameFileError, match="disagree with their ranking"):
        loads(
            "candidates a b\nvoter prefs = a > b\nutilities = 1 2\n"
        )


def test_utilities_on_bare_form_rejected():
    with pytest.raises(GameFileError, match="utilities require preference orders"):
        loads("candidates a b\nvoter\nutilities = 2 1\n")


# ---------------------------------------------------------------------------
# round-trips


def test_catalog_games_round_trip():
    for entry in catalog():
        game = entry.game
        assert loads(dumps(game)) == game


def test_constructed_forms_round_trip():
    for form in (
        restricted_action_form(),
        restricted_action_defining_plurality(),
        hamming_acyclic_form(),
        dictatorship_form(3, 2),
    ):
        assert loads(dumps(form)) == form


def test_dump_and_load_files(tmp_path):
    entry = catalog()[0]
    path = tmp_path / "game.txt"
    dump(entry.game, str(path))
    assert load(str(path)) == entry.game
    assert load_game(str(path)) == entry.game

    form_path = tmp_path / "form.txt"
    dump(restricted_action_form(), str(form_path))
    with pytest.raises(GameFileError) as err:
        load_game(str(form_path))
    assert str(form_path) in str(err.value)
    assert "bare form" in str(err.value)


def test_load_prefixes_path_on_parse_errors(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("candidates a b\nvoter prefs = a > q\n")
    with pytest.raises(GameFileError) as err:
        load(str(path))
    assert str(path) in str(err.value)
    assert "line 2:" in str(err.value)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(str(tmp_path / "absent.txt"))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.sampled_from(sorted(TieBreak, key=lambda t: t.value)),
)
def test_random_games_round_trip(m, n, seed, tiebreak):
    params = GameParams(
        candidates=m, voters=n, weight_bound=3, score_bound=4, tiebreak=tiebreak
    )
    game = random_game(params, seed)
    text = dumps(game)
    assert loads(text) == game
    assert dumps(loads(text)) == text


# ---------------------------------------------------------------------------
# malformed input

FUZZ_SOURCES = (
    *(dumps(entry.game) for entry in catalog()),
    dumps(restricted_action_form()),
    dumps(random_game(GameParams(3, 3, 3, 2, TieBreak.RANDOMIZED), 5)),
    PLURALITY_TEXT,
)
FUZZ_TOKENS = (
    "\n", "=", ">", "->", "*", ",", "#", "-1", "0", "7", "3/0", "1.5", "x",
    "a,a", "w=0", "actions=", "prefs", "utilities", "map", "voter", "form",
    "tabular", "candidates", "tiebreak", "initial_scores",
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FUZZ_SOURCES),
    st.lists(
        st.tuples(
            st.sampled_from(("delete", "duplicate", "replace", "insert")),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_files_parse_or_raise_game_file_error(source, edits):
    # whitespace runs stay as separators; the odd-numbered pieces are tokens
    pieces = re.split(r"(\S+)", source)
    pool = FUZZ_TOKENS + tuple(pieces[1::2])
    for op, where, what in edits:
        i = 2 * (where % (len(pieces) // 2)) + 1
        token = pool[what % len(pool)]
        if op == "delete":
            pieces[i] = ""
        elif op == "duplicate":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        elif op == "replace":
            pieces[i] = token
        else:
            pieces[i] = f"{token} {pieces[i]}"
    try:
        loads("".join(pieces))
    except GameFileError:
        pass
