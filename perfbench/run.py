"""Seeded benchmark for ivote.

Run from the repository root:

    python3 perfbench/run.py --workload big_game --seed 0 --seconds 20 --trace 0

Workloads (closed loop, one client, one process, no threads):

* ``big_game`` - ``classify_game`` on a 65,536-state lex game, direct replies.
* ``cyclic_game`` - ``classify_game`` on a 16,384-state expected-utility
  game and on the 4,096-state better/lex game.
* ``form_sweep`` - exhaustive ``classify_game_form`` over two bare forms.
* ``cli`` - ``python -m ivote.cli`` subprocesses, one at a time.

One pass over a workload's ops is a round. Rounds repeat for about
``--seconds``; every op's result is checked against recorded values.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
are for people. Spans of a traced run go to ``.perfbench/``.

End-to-end metrics: ``wall_s`` is the median round time (time to every
verdict of the round); ``setup_s`` the median over this run and ten fresh
processes of importing ivote and building the inputs; ``games_per_s``
the games decided by successful ops per second of rounds; ``peak_rss_mb``
this process's ru_maxrss, or the largest CLI child's; ``op_p50_ms`` and
``op_tail_ms`` the median and tail latency of one op, where an op is a
CLI process in ``cli`` and a round elsewhere. Seed 0 is the default and
seed 1 the held-out seed (see workloads.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 10
# The cli tail is the 11th slowest call; with at least this many rounds it
# falls among the calls of the slowest command rather than between two.
CLI_MIN_ROUNDS = 11
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def tail(samples: list) -> tuple:
    """(label, value): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return f"p100 of {n}", ordered[-1]
    return f"p{100 * (n - 10) / n:.1f} of {n}", ordered[n - 11]


def setup(workload: str, seed: int):
    """Import ivote and build the inputs; returns (inputs, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    inputs = workloads.Inputs(workload, seed, WORKDIR / f"{workload}-{seed}")
    return inputs, time.perf_counter() - start


def setup_samples(workload: str, seed: int, first: float) -> list:
    """Set-up times: the run's own plus SETUP_SAMPLES fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


class Check:
    """Counts ops and compares each result with its recorded value."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.games = 0

    def record(self, name: str, ok: bool, detail: str = "", games: int = 0) -> None:
        self.attempted += 1
        if ok:
            self.games += games
            return
        self.failed += 1
        if name not in workloads.KNOWN_FAILURES:
            self.wrong.append(f"{name}: {detail}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def run_op(op, check: Check, tracer=None) -> None:
    if tracer is not None:
        tracer.op_id = f"{tracer.round}.{op.name}"
    try:
        summary, games = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        check.record(op.name, False, f"raised {type(exc).__name__}: {exc}"[:300])
        return
    if op.expected is not None and summary != op.expected:
        check.record(op.name, False, f"expected {op.expected}, got {summary}")
    else:
        check.record(op.name, True, games=games)


def run_child(argv: list, env: dict) -> tuple:
    """Run one CLI process; returns (exit code, output bytes, seconds, maxrss KB).

    stderr is merged into stdout. The peak RSS is the child's ru_maxrss
    from ``os.wait4``; on Linux it is at least the RSS this process had
    when it spawned the child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    chunks = []
    deadline = start + CHILD_TIMEOUT_S
    fd = proc.stdout.fileno()
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            proc.kill()
            break
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks), time.perf_counter() - start, usage.ru_maxrss


class CliRound:
    """One round of the cli workload: every call as its own process."""

    def __init__(self, inputs, check: Check):
        self.calls = inputs.cli_calls()
        self.env = child_env()
        self.latencies = []
        self.max_rss_kb = 0
        self.expected = dict(workloads.EXPECTED_CLI)
        # The scan's games depend on the seed: its reference is an
        # in-process run of the same command, recorded at the default seed.
        from ivote import cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(dict(self.calls)["cli_scan"])
        reference = (code, workloads.digest(buffer.getvalue().encode()))
        if inputs.seed == workloads.DEFAULT_SEED and reference != self.expected["cli_scan"]:
            check.wrong.append(f"cli_scan: in-process exit {code}, digest {reference[1][:12]}")
        self.expected["cli_scan"] = reference

    def run(self, check: Check, tracer=None) -> None:
        for name, argv in self.calls:
            if tracer is not None:
                tracer.op_id = f"{tracer.round}.{name}"
                span = tracer.begin(f"cli.process.{argv[0]}")
            code, out, seconds, rss = run_child(
                [sys.executable, "-m", "ivote.cli", *argv], self.env
            )
            if tracer is not None:
                tracer.end(span)
            self.latencies.append(seconds)
            self.max_rss_kb = max(self.max_rss_kb, rss)
            ok, detail = self.judge(name, code, out)
            check.record(name, ok, detail, workloads.cli_games(name) if ok else 0)

    def judge(self, name: str, code: int, out: bytes) -> tuple:
        if b"Traceback (most recent call last)" in out:
            return False, "printed a traceback"
        if code not in (0, 1, 2, 3):
            return False, f"undocumented exit code {code}"
        expected = self.expected.get(name)
        if expected is not None and (code, workloads.digest(out)) != expected:
            return False, f"exit {code}, digest {workloads.digest(out)[:12]}"
        return True, ""


class Runner:
    """Repeats a workload's rounds and keeps the checks and timings."""

    def __init__(self, inputs):
        self.check = Check()
        self.ops = inputs.ops()
        self.cli = CliRound(inputs, self.check) if inputs.workload == "cli" else None

    def rounds(self, seconds: float, tracer=None, min_rounds: int = 1) -> list:
        """Rounds until about ``seconds`` have passed; returns their times."""
        times = []
        start = time.perf_counter()
        while True:
            # every round starts from a collected heap, like a fresh call
            gc.collect()
            if tracer is not None:
                tracer.round = len(times)
            t0 = time.perf_counter()
            if self.cli is not None:
                self.cli.run(self.check, tracer)
            for op in self.ops:
                run_op(op, self.check, tracer)
            times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(times) >= min_rounds and elapsed + statistics.median(times) / 2 >= seconds:
                return times


def end_to_end(args, inputs, first_setup: float) -> tuple:
    runner = Runner(inputs)
    min_rounds = CLI_MIN_ROUNDS if runner.cli is not None else 1
    rounds = runner.rounds(args.seconds, min_rounds=min_rounds)
    if runner.cli is not None:
        op_samples = runner.cli.latencies
        rss_mb = runner.cli.max_rss_kb / 1024
    else:
        op_samples = rounds
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(args.workload, args.seed, first_setup)
    label, tail_s = tail(op_samples)
    check = runner.check
    print(f"rounds: {len(rounds)}; op samples: {len(op_samples)}; op_tail_ms is {label}; "
          f"setup samples: {len(setups)}")
    print(f"failed_share: {check.failed / check.attempted:.4f} "
          f"({check.failed} of {check.attempted} ops)")
    return check, {
        "wall_s": statistics.median(rounds),
        "setup_s": statistics.median(setups),
        "games_per_s": check.games / sum(rounds),
        "peak_rss_mb": rss_mb,
        "op_p50_ms": statistics.median(op_samples) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }


def per_layer(args, inputs) -> tuple:
    """Traced run: one untraced round, traced rounds, then the probes."""
    import ivote
    from ivote import cli

    import probes
    from spans import Tracer

    # First, while this process is small: a child's ru_maxrss starts from
    # the RSS of the process that spawned it.
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--rss-probe"],
        check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    bytes_per_edge = json.loads(out.stdout.splitlines()[-1])["bytes_per_edge"]
    runner = Runner(inputs)
    untraced = runner.rounds(0)
    if not hasattr(inputs, "files"):
        inputs.export_cli_files(WORKDIR / f"probe-{args.seed}")
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.rounds(max(args.seconds - untraced[0], 0), tracer=tracer)
        # one call into each analysis function, for the layers a workload's
        # own rounds do not call; traced as round -1
        tracer.round = -1
        tracer.op_id = "tour"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["classify", inputs.files["a"], "--from-truthful"])
        tour = ivote.random_game(ivote.GameParams(3, 4), args.seed)
        ivote.longest_convergence_path(ivote.build_graph(tour, inputs.direct_lex))
        ivote.classify_game_form(ivote.PluralityForm(("a", "b", "c"), (1, 1)),
                                 inputs.direct_lex)
        ivote.conjecture_scan(ivote.ScanParams(), 20, seed=args.seed)
    finally:
        tracer.uninstall()

    metrics = span_metrics(tracer, len(traced))
    metrics["trace.overhead_s"] = statistics.median(traced) - untraced[0]
    metrics["trace.spans"] = len(tracer.spans)
    metrics["analysis.build_graph.bytes_per_edge"] = bytes_per_edge
    metrics.update(probes.cli_main_ms(cli, [
        ("catalog", ["catalog", "--verify"]),
        ("classify", ["classify", inputs.files["a"]]),
        ("simulate", ["simulate", inputs.files["a"]]),
        ("graph", ["graph", inputs.files["a"]]),
        ("scan", ["scan", "--trials", "20", "--seed", str(args.seed)]),
    ]))
    game, policy = inputs.probe_game
    metrics["core.outcome.ns"] = probes.core_outcome_ns(inputs.probe_form)
    metrics.update(probes.comparator_ns(ivote, inputs))
    metrics.update(probes.dynamics_probes(ivote, game, policy, args.seed))
    metrics.update(probes.gamefile_probes(ivote, game))
    metrics["constructions.verify_catalog.ms"] = probes.verify_catalog_ms(ivote)
    env = child_env()
    metrics["cli.interp_ms"] = probes.process_ms([sys.executable, "-c", "pass"], env)
    metrics["cli.import_ms"] = probes.process_ms(
        [sys.executable, "-c", "import ivote.cli"], env) - metrics["cli.interp_ms"]

    path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"traced rounds: {len(traced)}; spans: {len(tracer.spans)} written to {path}")
    return runner.check, metrics


def span_metrics(tracer, traced_rounds: int) -> dict:
    """Per-layer numbers from spans: the median over traced rounds of each
    round's total, or the tour's total for a layer the workload's rounds
    never call. Garbage collection likewise, from rounds that collected."""
    rounds = tracer.per_round()
    probe = rounds.get(-1, {})

    def value(name, fn):
        per = [fn(rounds[r][name]) for r in range(traced_rounds) if name in rounds[r]]
        if per:
            return statistics.median(per)
        return fn(probe[name]) if name in probe else 0.0

    out = {}
    for fn_name in ("build_graph", "is_fip", "is_weak_fip", "longest_convergence_path",
                    "from_state", "is_restricted_fip", "classify_game_form",
                    "conjecture_scan", "classify_game"):
        name = f"analysis.{fn_name}"
        out[f"{name}.s"] = value(name, lambda a: a["self_s"])
    bg = "analysis.build_graph"
    out[f"{bg}.nodes"] = value(bg, lambda a: a["nodes"])
    out[f"{bg}.edges"] = value(bg, lambda a: a["edges"])
    out[f"{bg}.ns_per_node"] = value(bg, lambda a: a["self_s"] / a["nodes"] * 1e9)
    out[f"{bg}.ns_per_edge"] = value(bg, lambda a: a["self_s"] / max(a["edges"], 1) * 1e9)
    rf = "analysis.is_restricted_fip"
    out[f"{rf}.branches"] = value(rf, lambda a: a["branches"])
    out[f"{rf}.failed"] = value(rf, lambda a: a["errors"])
    for sweep in ("analysis.classify_game_form", "analysis.conjecture_scan"):
        out[f"{sweep}.games"] = value(sweep, lambda a: a["games"])
        out[f"{sweep}.us_per_game"] = value(
            sweep, lambda a: a["self_s"] / max(a["games"], 1) * 1e6)
    gc_rounds = [r for r in range(traced_rounds) if tracer.gc_n[r]] or [-1]
    out["runtime.gc_s"] = statistics.median(tracer.gc_s[r] for r in gc_rounds)
    out["runtime.gc_collections"] = statistics.median(tracer.gc_n[r] for r in gc_rounds)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ivote" / "__init__.py").is_file():
        print(f"error: no ivote sources under {SRC}", file=sys.stderr)
        return 2
    inputs, first_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    if args.rss_probe:
        import probes

        probes.rss_probe(inputs.ivote, *inputs.probe_game)
        return 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        check, values = per_layer(args, inputs)
    else:
        check, values = end_to_end(args, inputs, first_setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for problem in check.wrong:
        print(f"WRONG {problem}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
