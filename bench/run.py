"""Benchmark of rot4: four workloads, timed end to end or, with --trace 1,
per function of each rot4 module.

    python3 bench/run.py --workload compose --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; rot4 is imported from its src
directory.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Times are in reference
seconds: every operation is followed by some fixed reference work, and its
wall time is scaled by the speed of that work around it, so that the host's
changes of speed cancel (reference.py).  bench/README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: OpenBLAS starts one
# thread per core at import, which doubles the CPU time of `import rot4` and
# never helps 4x4 matrices.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "rot4" / "__init__.py").is_file():
    sys.exit(f"error: no rot4 sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np

import rot4
import checks
import inputs
import reference
from tracing import Tracer

CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
LAUNCH = [sys.executable, str(BENCH / "launch.py")]
SETUP_STARTS = 9
# one reference start on either side of each timed start
SETUP_PACE = reference.start_pace(window=2)
# operations a tally holds before it reduces them
CHUNK = 1024
POOL_ROUNDS = 64
# Latency percentiles are taken over consecutive blocks of this many completed
# operations, in reference seconds, and averaged over the blocks.  The tail is
# the highest percentile that keeps ten samples above it in a block.  A run
# completes at least one block.
BLOCKS = {"in_process": (1000, 99), "cli": (50, 80)}
# The seed of the rounded-factor simplicity pairs.  It is fixed, apart from
# --seed, so that the operations failing on the NotSimple fault are the same
# in every run.
ROUNDED_SEED = 1504_03717
ROUNDED_PAIRS = 10

# Per-layer metrics reported by a traced run, grouped by the end-to-end
# metric and workload they should move (bench/README.md).
LAYERS = (
    "quat.mul",
    "quat.polar",
    "rotation.Rotation4",
    "compose.compose",
    "compose.compose_gibbs",
    "compose.GibbsPair.from_rotation",
    "rotation.classify",
    "rotation.invariant_planes",
    "rotation.plane_rotation_angle",
    "plane.plane_from_span",
    "oracle.planes_from_matrix",
    "oracle.symmetric_eigen4",
    "rotation.to_matrix",
    "cli.build_verify_report",
    "rotation.simple_to_reflections",
    "linalg4.nullspace",
    "linalg4.rank",
    "compose.is_composition_simple",
    "cli.parse_doc",
    "cli.main",
)
COUNTED_LAYERS = ("quat._finite",)

clock = time.perf_counter


class Item(NamedTuple):
    """One operation: run(*args) is timed; check(output) is not."""

    run: Callable
    args: tuple
    check: Callable
    may_fail: bool = False


# --- reports in the CLI's JSON shape ----------------------------------------


def _plane(p) -> dict:
    return {"u": list(p.u.components()), "w": list(p.w.components())}


def kind_report(kind) -> dict:
    if isinstance(kind, rot4.Identity):
        return {"kind": "identity", "angles": [], "planes": []}
    if isinstance(kind, (rot4.LeftIsoclinic, rot4.RightIsoclinic)):
        side = "left" if isinstance(kind, rot4.LeftIsoclinic) else "right"
        return {"kind": f"{side}-isoclinic", "angles": [kind.angle], "planes": []}
    if isinstance(kind, rot4.Simple):
        return {
            "kind": "simple",
            "angles": [kind.angle],
            "planes": [
                {"role": "fixed", "angle": 0.0, "plane": _plane(kind.fixed_plane)},
                {"role": "rotation", "angle": kind.angle, "plane": _plane(kind.rotation_plane)},
            ],
        }
    return {
        "kind": "double",
        "angles": [kind.angle1, kind.angle2],
        "planes": [
            {"role": "plane1", "angle": kind.angle1, "plane": _plane(kind.plane1)},
            {"role": "plane2", "angle": kind.angle2, "plane": _plane(kind.plane2)},
        ],
    }


def gibbs_report(gp) -> dict:
    if gp is None:
        return {"singular": "GibbsSingular"}
    return {
        "p_tilde": list(gp.p_tilde.components()),
        "q_tilde": list(gp.q_tilde.components()),
        "cos_alpha": gp.cos_alpha,
        "cos_beta": gp.cos_beta,
    }


def simplicity_report(rep) -> dict:
    return {
        "s_condition": rep.s_condition,
        "det_normals": rep.det_normals,
        "intersection_dim": rep.intersection_dim,
        "is_simple": rep.is_simple,
    }


# --- in-process operations ----------------------------------------------------


def _rotation(a, b):
    return rot4.Rotation4(rot4.Quaternion.of(*a), rot4.Quaternion.of(*b))


def op_compose(fa, fb, ga, gb):
    f = _rotation(fa, fb)
    g = _rotation(ga, gb)
    h = rot4.compose(g, f)
    try:
        gibbs = rot4.compose_gibbs(rot4.GibbsPair.from_rotation(f), rot4.GibbsPair.from_rotation(g))
    except rot4.GibbsSingular:
        gibbs = None
    return h, gibbs, rot4.classify(h)


def op_verify(a, b):
    return rot4.cli.build_verify_report(_rotation(a, b))


def op_simplicity(fa, fb, ga, gb):
    return rot4.is_composition_simple(_rotation(fa, fb), _rotation(ga, gb))


def _matrix(rot) -> np.ndarray:
    return checks.rotation_matrix(*rot)


def compose_item(f, g) -> Item:
    def check(out):
        h, gibbs, kind = out
        m_h = checks.rotation_matrix(h.a.components(), h.b.components())
        checks.check_product(m_h, _matrix(g), _matrix(f), "compose")
        checks.check_gibbs(m_h, gibbs_report(gibbs), (*f, *g), "compose_gibbs")
        checks.check_classification(m_h, kind_report(kind), "classify(h)")

    return Item(op_compose, (*f, *g), check)


def verify_item(r) -> Item:
    return Item(op_verify, r, lambda out: checks.check_verify_report(_matrix(r), out))


def simplicity_item(f, g, expected: bool, may_fail: bool = False) -> Item:
    m_h = _matrix(inputs.composed(f, g))

    def check(out):
        checks.check_simplicity(m_h, simplicity_report(out), expected)

    return Item(op_simplicity, (*f, *g), check, may_fail)


# --- workloads: rounds of items built from the seed ---------------------------

COMPOSE_MIX = (
    (inputs.generic, inputs.generic),
    (inputs.simple, inputs.simple),
    (inputs.left_isoclinic, inputs.generic),
    (inputs.generic, inputs.right_isoclinic),
    (inputs.gibbs_regular, inputs.gibbs_regular),
    (inputs.simple, inputs.gibbs_regular),
    (inputs.left_isoclinic, inputs.left_isoclinic),
    (inputs.quarter_turn_left, inputs.simple),
)

VERIFY_MIX = (
    inputs.generic,
    inputs.simple,
    inputs.left_isoclinic,
    inputs.right_isoclinic,
    lambda rng: inputs.axis_double(rng, 1.0),
    lambda rng: inputs.axis_double(rng, -1.0),
)


def compose_rounds(rng) -> list[list[Item]]:
    return [
        [compose_item(*inputs.compose_pair(rng, mf, mg)) for mf, mg in COMPOSE_MIX]
        for _ in range(POOL_ROUNDS)
    ]


def verify_rounds(rng) -> list[list[Item]]:
    return [[verify_item(make(rng)) for make in VERIFY_MIX] for _ in range(POOL_ROUNDS)]


def rounded_pairs() -> list[tuple]:
    """Pairs (f, g) of simple rotations, not composing to a simple one, with
    f written at 8 decimals and kept only if rot4 still classifies it Simple.
    They do not depend on --seed."""
    rng = np.random.default_rng(ROUNDED_SEED)
    pairs = []
    while len(pairs) < ROUNDED_PAIRS:
        f, g = inputs.simple_pair_generic(rng)
        f = inputs.round_to_8_decimals(f)
        if isinstance(rot4.classify(_rotation(*f)), rot4.Simple):
            pairs.append((f, g))
    return pairs


def simplicity_rounds(rng) -> list[list[Item]]:
    """A round is 100 operations: the ten rounded pairs, each followed by
    nine seeded pairs, generic and shared-vector in turn, 45 of each."""
    rounded = rounded_pairs()
    rounds = []
    for _ in range(POOL_ROUNDS // 8):
        items = []
        for k, (f, g) in enumerate(rounded):
            items.append(simplicity_item(f, g, expected=False, may_fail=True))
            for j in range(9):
                if (j + k) % 2 == 0:
                    items.append(simplicity_item(*inputs.simple_pair_generic(rng), False))
                else:
                    items.append(simplicity_item(*inputs.simple_pair_shared(rng), True))
        rounds.append(items)
    return rounds


def _raised_in(exc: BaseException, function: str) -> bool:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name == function


def run_round(items: list[Item], tally: "Tally", tracer: Tracer | None) -> None:
    """Time each item of one round, each followed by the tally's reference
    work, then check the outputs."""
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                out = item.run(*item.args)
            except rot4.NotSimple as exc:
                if not (item.may_fail and _raised_in(exc, "simple_to_reflections")):
                    raise
                out = None
            elapsed = clock() - t0
            tally.add(elapsed, tally.pace.seconds(), out is not None)
            outputs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for item, out in zip(items, outputs):
        if out is not None:
            item.check(out)


# --- the cli workload ----------------------------------------------------------


def _write_doc(path: Path, rot) -> str:
    path.write_text(json.dumps({"a": list(rot[0]), "b": list(rot[1])}))
    return str(path)


def cli_rounds(rng) -> list[list[tuple]]:
    """A round is four rot4 processes: classify --json, compose --gibbs
    --check-simple, verify --json and reflections.  Each entry is
    (argv, check(stdout)); the documents are written here, before timing."""
    docs = OUT / "cli-docs"
    docs.mkdir(parents=True, exist_ok=True)
    rounds = []
    for k in range(POOL_ROUNDS // 4):
        shown = VERIFY_MIX[k % len(VERIFY_MIX)](rng)
        checked = VERIFY_MIX[(k + 1) % len(VERIFY_MIX)](rng)
        shared = k % 2 == 1
        f, g = (inputs.simple_pair_shared if shared else inputs.simple_pair_generic)(rng)
        split = inputs.simple(rng)
        m_f, m_g = _matrix(f), _matrix(g)

        def check_compose(out, f=f, g=g, m_f=m_f, m_g=m_g, shared=shared):
            m_h = checks.rotation_matrix(out["a"], out["b"])
            checks.check_product(m_h, m_g, m_f, "rot4 compose")
            checks.check_gibbs(m_h, out["gibbs"], (*f, *g), "rot4 compose --gibbs")
            checks.check_simplicity(m_g @ m_f, out["simplicity"], shared, "rot4 compose --check-simple")

        rounds.append(
            [
                (
                    ["classify", "--json", _write_doc(docs / f"{k}-classify.json", shown)],
                    lambda out, m=_matrix(shown): checks.check_classification(m, out, "rot4 classify"),
                ),
                (
                    [
                        "compose",
                        "--gibbs",
                        "--check-simple",
                        _write_doc(docs / f"{k}-f.json", f),
                        _write_doc(docs / f"{k}-g.json", g),
                    ],
                    check_compose,
                ),
                (
                    ["verify", "--json", _write_doc(docs / f"{k}-verify.json", checked)],
                    lambda out, m=_matrix(checked): checks.check_verify_report(m, out, "rot4 verify"),
                ),
                (
                    ["reflections", _write_doc(docs / f"{k}-reflections.json", split)],
                    lambda out, m=_matrix(split): checks.check_reflections(m, out, "rot4 reflections"),
                ),
            ]
        )
    return rounds


def run_cli_round(commands, tally: "Tally", tracer: Tracer | None) -> None:
    """Run one rot4 process per command, in sequence, each followed by the
    tally's reference work; with a tracer, each through the traced launcher,
    merging what it wrote."""
    trace_file = OUT / f"child-trace-{os.getpid()}.json"
    outputs = []
    for argv, _ in commands:
        cmd = LAUNCH + (["--trace", str(trace_file)] if tracer is not None else []) + argv
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT)
        elapsed = clock() - t0
        checks.require(
            proc.returncode == 0,
            f"rot4 {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}",
        )
        tally.add(elapsed, tally.pace.seconds(), True)
        outputs.append(proc.stdout)
        if tracer is not None:
            tracer.op += 1
            child = json.loads(trace_file.read_text())
            tracer.merge(child["totals"], child["spans"], tracer.op)
    if tracer is not None:
        trace_file.unlink()
    for (_, check), stdout in zip(commands, outputs):
        check(json.loads(stdout))


# --- measurement ------------------------------------------------------------------


def cold_start(module: str, traced: bool) -> float:
    """A fresh interpreter importing `module`.  Untraced: wall seconds of
    the whole process.  Traced: seconds spent in the import statement."""
    if traced:
        cmd = LAUNCH + ["--import-time", module]
    else:
        cmd = [sys.executable, "-c", f"import {module}"]
    t0 = clock()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT)
    elapsed = clock() - t0
    checks.require(proc.returncode == 0, f"import {module} failed: {proc.stderr.strip()}")
    return float(proc.stdout) if traced else elapsed


def paced_start(start_up) -> float:
    """start_up() in reference seconds, scaled by the reference work of
    SETUP_PACE timed on either side of it."""
    before = SETUP_PACE.seconds()
    elapsed = start_up()
    after = SETUP_PACE.seconds()
    return elapsed * SETUP_PACE.scale(2, before + after)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tally:
    """Operations of one kind of round (traced or not).  Each comes with its
    wall time and the wall time of the reference work that followed it, and is
    reduced, CHUNK operations at a time, to reference seconds, so that the
    memory the tally holds does not grow with the number of operations."""

    def __init__(self, pace: reference.Pace, block: int, tail_q: float):
        self.pace = pace
        self.block = block
        self.tail_q = tail_q
        self.pending: list[tuple[float, float, bool]] = []
        self.latencies: list[float] = []  # completed, scaled, not yet in a block
        self.p50s: list[float] = []  # per whole block of completed operations
        self.tails: list[float] = []
        self.seconds = 0.0  # reference seconds of the operations reduced
        self.wall_s = 0.0  # and their wall seconds
        self.pace_s = 0.0  # wall seconds of the reference work after them
        self.attempted = 0
        self.failed = 0

    def add(self, elapsed: float, pace: float, completed: bool) -> None:
        self.pending.append((elapsed, pace, completed))
        self.attempted += 1
        self.failed += not completed
        if len(self.pending) == CHUNK:
            self.flush()

    def flush(self) -> None:
        """Scale each pending operation's time by the reference work after
        the pace's window of pending operations around it, then fold whole
        blocks of completed ones into their percentiles."""
        if not self.pending:
            return
        elapsed, paces, completed = (np.array(column) for column in zip(*self.pending))
        self.pending.clear()
        n = len(paces)
        cum = np.concatenate(([0.0], np.cumsum(paces)))
        window = self.pace.window
        lo = np.clip(np.arange(n) - window // 2, 0, max(0, n - window))
        hi = np.minimum(lo + window, n)
        scaled = elapsed * self.pace.scale(hi - lo, cum[hi] - cum[lo])
        self.seconds += float(scaled.sum())
        self.wall_s += float(elapsed.sum())
        self.pace_s += float(cum[-1])
        self.latencies.extend(scaled[completed].tolist())
        while len(self.latencies) >= self.block:
            block = self.latencies[: self.block]
            del self.latencies[: self.block]
            self.p50s.append(percentile(block, 50))
            self.tails.append(percentile(block, self.tail_q))

    def scale(self) -> float:
        """Reference seconds per wall second, over the operations reduced."""
        return self.pace.scale(self.attempted - len(self.pending), self.pace_s)

    def ops_per_s(self) -> float:
        """Completed operations per reference second of all operations."""
        return (self.attempted - self.failed) / self.seconds

    def p50_s(self) -> float:
        """Median latency per block, averaged over the blocks."""
        return statistics.fmean(self.p50s)

    def tail_s(self) -> float:
        """Tail latency per block, averaged over the blocks."""
        return statistics.fmean(self.tails)


def measure(
    rounds, run_one, pace: reference.Pace, seconds: float, block: int, tail_q: float, start_up, tracer: Tracer | None
):
    """Run whole rounds, cycling through the pool, until `seconds` have
    passed and at least one block of `block` operations completed.  Each
    operation is followed by the reference work of `pace`.  With a tracer,
    rounds alternate between untraced and traced.

    start_up() is timed SETUP_STARTS times, spread evenly over the run
    between rounds, so that the set-up median samples the same stretch of
    machine time as the operations; a first call that fills the bytecode and
    file caches is not counted."""
    plain, traced = Tally(pace, block, tail_q), Tally(pace, block, tail_q)
    setup: list[float] = []
    start_up()
    pace.seconds()
    start = clock()
    k = 0
    while clock() < start + seconds or plain.attempted - plain.failed + traced.attempted - traced.failed < block:
        if len(setup) < SETUP_STARTS and clock() >= start + len(setup) * seconds / SETUP_STARTS:
            setup.append(paced_start(start_up))
        items = rounds[k % len(rounds)]
        tally = traced if tracer is not None and k % 2 == 1 else plain
        run_one(items, tally, tracer if tally is traced else None)
        k += 1
    while len(setup) < SETUP_STARTS:
        setup.append(paced_start(start_up))
    plain.flush()
    traced.flush()
    return setup, plain, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup: list[float], rss_who: int) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(tally.ops_per_s(), "1/s"),
        "op_p50_us": _metric(tally.p50_s() * 1e6, "us"),
        "op_tail_us": _metric(tally.tail_s() * 1e6, "us"),
        "peak_rss_mb": _metric(resource.getrusage(rss_who).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer: Tracer, import_s: list[float], plain: Tally, traced: Tally) -> dict:
    ops = traced.attempted
    metrics = {}
    for name in COUNTED_LAYERS:
        calls = tracer.totals.get(name, [0, 0.0])[0]
        metrics[f"{name}.calls_per_op"] = _metric(calls / ops, "count")
    for name in LAYERS:
        calls, self_s = tracer.totals.get(name, [0, 0.0])
        metrics[f"{name}.calls_per_op"] = _metric(calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = _metric(self_s * 1e6 / ops, "us")
    metrics["cli.import_s"] = _metric(statistics.median(import_s), "s")
    metrics["trace.ops_per_s"] = _metric(traced.ops_per_s(), "1/s")
    metrics["trace.slowdown"] = _metric(plain.ops_per_s() / traced.ops_per_s(), "x")
    return metrics


# The pool of rounds, the runner of a round, and the reference work after
# each operation: kernel runs taking about a fifth of an operation's time,
# scaled over some 64 runs, or one reference start after each rot4 process,
# scaled over three.
WORKLOADS = {
    "compose": (compose_rounds, run_round, reference.kernel_pace(runs=1, window=64)),
    "verify": (verify_rounds, run_round, reference.kernel_pace(runs=3, window=21)),
    "simplicity": (simplicity_rounds, run_round, reference.kernel_pace(runs=5, window=13)),
    "cli": (cli_rounds, run_cli_round, reference.start_pace(window=3)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Stay on one CPU, children included, so that runs do not differ in how
    # often the scheduler moves them between CPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    is_cli = args.workload == "cli"
    if not is_cli:
        importlib.import_module("rot4.cli")  # op_verify calls into it
    make_rounds, run_one, pace = WORKLOADS[args.workload]
    rounds = make_rounds(np.random.default_rng(args.seed))
    block, tail_q = BLOCKS["cli" if is_cli else "in_process"]

    tracer = Tracer() if args.trace else None
    setup_module = "rot4.cli" if is_cli else "rot4"
    try:
        setup, plain, traced = measure(
            rounds,
            run_one,
            pace,
            args.seconds,
            block,
            tail_q,
            lambda: cold_start(setup_module, traced=tracer is not None),
            tracer,
        )
    except (checks.CheckFailed, rot4.Rot4Error, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    print(
        f"host: reference work at {plain.scale():.3f} of its nominal rate; untraced operations ran at "
        f"{(plain.attempted - plain.failed) / plain.wall_s:.1f} per wall second",
        file=sys.stderr,
    )
    if tracer is None:
        rss_who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        metrics = end_to_end(plain, setup, rss_who)
    else:
        metrics = per_layer(tracer, setup, plain, traced)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    result = {
        "correct": True,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
