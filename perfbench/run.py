"""End-to-end and per-layer benchmark of the ``wmsdspace`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload bulk-table --seed 1 --seconds 20 --trace 0

The benchmark drives the CLI as a user does: one fresh interpreter per
command with ``PYTHONPATH=<checkout>/src``, one client, commands run one
after another (closed loop, concurrency 1).  Each command process runs
``LAUNCH``, which does what ``python -m wmsdspace.cli`` does and also
stamps the moment ``import wmsdspace.cli`` returns, so every command is
also a set-up sample.
Inputs are generated from ``--seed`` into a scratch directory inside the
checkout, which is removed at the end.

Before anything is timed, one untimed interpreter imports the package
(compiling its bytecode) and every input file is read once (filling the
file cache).  ``--trace 0`` then runs timed passes over the command list
until ``--seconds`` of commands have been measured (at least one pass).
``setup_s`` is the median, over every command of every pass, of the time
from spawning the process until ``import wmsdspace.cli`` returns, so it
samples the same stretch of time as ``session_s``.  The first output of
each command gets the full output check; every later one must reproduce
its bytes.

The CPU speed of a shared host can drift by a third and more over a few
minutes, which would swamp any change to the program.  So while each
command runs, a thread of this process times a fixed pure-Python loop
(the reference) every ``REF_PERIOD_S`` in CPU time, and the command's
times are divided by the median reference time over ``REF_NOMINAL_S``.
The timed metrics (``session_s``, ``setup_s``, ``cli_<kind>_s``,
``rank_rows_per_s``) are therefore in seconds at reference speed: what
they would read on a machine where the reference loop takes
``REF_NOMINAL_S``.  The report also prints the raw wall-clock
``wall.session_s`` and ``wall.setup_s`` and the reference's time ratio.

``--trace 1`` runs each command in-process under ``perfbench/tracer.py``
twice, traced and untraced, and reports per-layer self times and counts.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report of every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import COUNTERS, LAYERS, MAXIMA

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
DEADLINE_S = 170.0

# The reference: a fixed pure-Python loop that a thread of this process
# runs every REF_PERIOD_S while a command runs.  The median of its times
# measures the machine's CPU speed during the command; REF_NOMINAL_S is
# the time it is scaled to (see ``_with_reference``).
REF_LOOP = 50_000
REF_PERIOD_S = 0.1
REF_NOMINAL_S = 0.004

# Run as ``python -c LAUNCH STAMP_FILE CLI_ARGS...``: the CLI's own
# entry point, plus a stamp of when the interpreter, numpy and the
# package were ready (monotonic ns, comparable across processes).
LAUNCH = """\
import sys, time
t1 = time.monotonic_ns()
import numpy
t2 = time.monotonic_ns()
import wmsdspace.cli as cli
t3 = time.monotonic_ns()
with open(sys.argv[1], "w") as f:
    f.write(f"{t1} {t2} {t3} {cli.__file__}")
sys.exit(cli.main(sys.argv[2:]))
"""

# The metrics of the final JSON line, one list for every workload.  A
# time that is zero by design on some workload (geometry and render on
# bulk-table, aggregate on geometry-plot) never varies there, so it could
# not be told from a constant; such times appear only in the printed
# report.  Counts are meant to repeat exactly and are all kept.
END_TO_END = ("session_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "setup.interpreter_s", "setup.numpy_import_s", "setup.package_import_s",
    "cli.parse_config_s", "cli.read_matrix_s", "cli.format_s",
    "model.from_rows_s", "spaces.matrix_to_utility_s",
    "spaces.to_weighted_s", "wmsd.wmsd_point_s",
    "cli.self_s", "model.self_s", "spaces.self_s", "wmsd.self_s",
    "aggregate.self_s", "trace.main_s", "trace.overhead_s",
    "model.rows", "model.criteria", "model.n_p", "spaces.to_weighted_calls",
    "wmsd.wmsd_point_calls", "aggregate.agg_weighted_calls",
    "aggregate.reversals", "geometry.vertex_rows",
    "geometry.envelope_wsd_calls", "geometry.is_attainable_calls",
    "render.field_cells", "render.svg_bytes", "cli.output_bytes",
    "trace.spans",
)

# Per-layer time metrics: the sum of self times of these functions.
SELF_TIMES = {
    "cli.parse_config_s": ["cli.parse_config"],
    "cli.read_matrix_s": ["cli.read_matrix"],
    "model.from_rows_s": ["model.DecisionMatrix.from_rows"],
    "spaces.matrix_to_utility_s": ["spaces.matrix_to_utility",
                                   "spaces.to_utility"],
    "spaces.to_weighted_s": ["spaces.to_weighted"],
    "wmsd.wmsd_point_s": ["wmsd.wmsd_point", "wmsd.project"],
    "wmsd.msd_s": ["wmsd.msd"],
    "aggregate.agg_weighted_s": ["aggregate.agg_weighted"],
    "aggregate.agg_unweighted_s": ["aggregate.agg_unweighted"],
    "aggregate.rank_s": ["aggregate.rank"],
    "aggregate.compare_rankings_s": ["aggregate.compare_rankings"],
    "geometry.vertex_images_s": ["geometry.vertex_images"],
    "geometry.boundary_s": ["geometry.boundary"],
    "geometry.envelope_wsd_s": ["geometry.envelope_wsd"],
    "geometry.isoline_s": ["geometry.isoline"],
    "render.field_cells_s": ["render.field_cells", "render.color_hex",
                             "render.color_rgb"],
    "render.svg_s": ["render.render_wmsd_plot", "render.render_panel_grid",
                     "render.render_overlay"],
}
# cli.format_s is the cli layer's self time outside these functions:
# the command bodies and main, i.e. formatting plus writing.
NOT_FORMAT = ["cli.parse_config", "cli.read_matrix", "cli.build_parser"]
CALLS = {
    "spaces.to_weighted_calls": "spaces.to_weighted",
    "wmsd.wmsd_point_calls": "wmsd.wmsd_point",
    "aggregate.agg_weighted_calls": "aggregate.agg_weighted",
    "geometry.envelope_wsd_calls": "geometry.envelope_wsd",
    "geometry.is_attainable_calls": "geometry.is_attainable",
}
# Counters the tracer keeps; those in MAXIMA are largest values, not sums.
SUMMED = list(dict.fromkeys(k for fns in COUNTERS.values() for k in fns))
LARGEST = list(dict.fromkeys(k for fns in MAXIMA.values() for k in fns))


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


class Harness:
    """Spawns children one at a time under a whole-run deadline."""

    def __init__(self, root: Path, tmp: Path):
        self.tmp = tmp
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, argv: list[str], stdout: Path, stderr: Path):
        """Run one child; return (start ns, wall s, exit code, peak MB)."""
        limit = self.remaining()
        if limit <= 0:
            raise Fatal("deadline reached")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.tmp)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = (time.monotonic_ns() - t0) / 1e9
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, wall, proc.returncode, usage.ru_maxrss / 1024.0

    def launch(self, cli_args: list[str], stdout: Path, stderr: Path):
        """One CLI process; return (wall s, exit code, peak MB, set-up).

        The set-up is (total, interpreter, numpy import, package import)
        in s, or ``None`` when the process never imported the package.
        """
        stamp = stdout.with_suffix(".stamp")
        stamp.unlink(missing_ok=True)
        t0, wall, code, peak = self.spawn(
            [sys.executable, "-c", LAUNCH, str(stamp), *cli_args],
            stdout, stderr)
        if not stamp.is_file():
            return wall, code, peak, None
        t1, t2, t3, path = stamp.read_text(encoding="utf-8").split()
        if not Path(path).resolve().is_relative_to(self.src.resolve()):
            raise Fatal(f"wmsdspace imported from {path}, not the checkout")
        t1, t2, t3 = int(t1), int(t2), int(t3)
        return wall, code, peak, ((t3 - t0) / 1e9, (t1 - t0) / 1e9,
                                  (t2 - t1) / 1e9, (t3 - t2) / 1e9)

    def setup_probe(self) -> tuple:
        """Set-up of one ``--help`` call, which imports and exits."""
        out, err = self.tmp / "probe.out", self.tmp / "probe.err"
        _, code, _, setup = self.launch(["--help"], out, err)
        if code != 0 or setup is None:
            raise Fatal("cannot run wmsdspace.cli: "
                        + err.read_text(errors="replace")[-500:])
        return setup

    def warm_up(self, cmds) -> None:
        """Compile the package's bytecode and read every input once."""
        self.setup_probe()
        for cmd in cmds:
            for arg in cmd.argv:
                if Path(arg).is_file():
                    Path(arg).read_bytes()

    def verify(self, i: int, cmd, code: int, stdout: Path, stderr: Path,
               reference: dict) -> None:
        """Check one command's result and count it as attempted.

        The first result of each command gets the full output check and
        leaves its digest in ``reference``; later results must reproduce
        those bytes.
        """
        self.attempted += 1
        target = self.tmp / cmd.out if cmd.out else stdout
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        elif _error_record(stderr):
            reason = "error record on stderr"
        elif not target.is_file():
            reason = "no output written"
        if reason is None:
            digest = hashlib.sha256(target.read_bytes()).hexdigest()
            if i not in reference:
                try:
                    getattr(checks, cmd.check)(target, **cmd.params)
                    reference[i] = digest
                except Exception as e:  # any malformed output is a failure
                    reason = f"check failed: {type(e).__name__}: {e}"
            elif reference[i] != digest:
                reason = "output differs from the checked pass"
        if reason is not None:
            self.failures.append(f"{cmd.kind} #{i}: {reason}")


def _error_record(stderr: Path) -> bool:
    for line in stderr.read_text(encoding="utf-8", errors="replace") \
            .splitlines():
        try:
            if "error" in json.loads(line):
                return True
        except (ValueError, TypeError):
            continue
    return False


def _reference_s() -> float:
    """CPU time of one run of the reference loop.

    CPU time, not wall time, so that time the thread waits for a CPU
    (say, behind a command that runs threads of its own) does not count
    as a slower machine.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.thread_time() - t0


def _with_reference(call):
    """Run ``call()`` while a thread times the reference loop.

    Returns its result and the median reference time over the call as a
    share of ``REF_NOMINAL_S``.  The thread keeps one CPU busy about a
    twentieth of the time.
    """
    times: list[float] = []
    stop = threading.Event()

    def sample():
        times.append(_reference_s())
        while not stop.wait(REF_PERIOD_S):
            times.append(_reference_s())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        result = call()
    finally:
        stop.set()
        sampler.join()
    return result, statistics.median(times) / REF_NOMINAL_S


def _cli_pass(h: Harness, cmds, reference: dict) -> dict:
    """One closed-loop pass: each command in a fresh interpreter.

    Besides raw wall times, every command's times are also given at
    reference speed: divided by the reference loop's time during the
    command as a share of ``REF_NOMINAL_S``.
    """
    walls, rss, setups, rank_rows, rank_wall = [], [], [], 0, 0.0
    ratios = []
    for i, cmd in enumerate(cmds):
        out, err = h.tmp / f"{i}.out", h.tmp / f"{i}.err"
        (wall, code, peak, setup), ratio = _with_reference(
            lambda: h.launch(cmd.argv, out, err))
        ratios.append(ratio)
        walls.append((cmd.kind, wall, wall / ratio))
        rss.append(peak)
        if setup is not None:
            setups.append((*setup, setup[0] / ratio))
        h.verify(i, cmd, code, out, err, reference)
        if cmd.kind == "rank":
            rank_rows += max(out.read_bytes().count(b"\n") - 1, 0)
            rank_wall += wall / ratio
    return {"walls": walls, "session": sum(w[1] for w in walls),
            "session_ref": sum(w[2] for w in walls), "ratios": ratios,
            "setups": setups, "peak_rss_mb": max(rss),
            "rank_rows_per_s": rank_rows / rank_wall if rank_wall else None}


def timed_run(h: Harness, cmds, seconds: float):
    h.warm_up(cmds)
    # Hand the GIL back from the reference thread within 0.5 ms, so that
    # it does not delay the spawn or the wait of a command.
    sys.setswitchinterval(0.0005)
    reference: dict = {}
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(_cli_pass(h, cmds, reference))
        measured += passes[-1]["session"]
    setups = [s for p in passes for s in p["setups"]]
    if not setups:
        raise Fatal("no command imported wmsdspace.cli")
    samples = {"setup_s": ([s[4] for s in setups], "s"),
               "session_s": ([p["session_ref"] for p in passes], "s"),
               "wall.setup_s": ([s[0] for s in setups], "s"),
               "wall.session_s": ([p["session"] for p in passes], "s"),
               "ref.time_ratio": ([r for p in passes for r in p["ratios"]],
                                  "ratio")}
    for kind in dict.fromkeys(w[0] for w in passes[0]["walls"]):
        samples[f"cli_{kind}_s"] = (
            [w[2] for p in passes for w in p["walls"] if w[0] == kind], "s")
    if passes[0]["rank_rows_per_s"] is not None:
        samples["rank_rows_per_s"] = (
            [p["rank_rows_per_s"] for p in passes], "1/s")
    samples["peak_rss_mb"] = ([p["peak_rss_mb"] for p in passes], "MB")
    for j, name in enumerate(("interpreter", "numpy_import",
                              "package_import"), start=1):
        samples[f"setup.{name}_s"] = ([s[j] for s in setups], "s")
    report = [f"{len(passes)} timed pass(es), {len(cmds)} commands each"]
    report += _sample_table(samples)
    report.append(f"{'failed_frac':<24}{len(h.failures) / h.attempted:>12.4f}"
                  f"{'':>12}{h.attempted:>5}  ratio")
    metrics = {name: {"value": statistics.median(samples[name][0]),
                      "unit": samples[name][1]} for name in END_TO_END}
    return metrics, report


def _tail_percentile(vals: list[float]):
    """Highest whole percentile with at least ten samples above it."""
    n = len(vals)
    if n < 20:
        return None, None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(vals, n=100, method="inclusive")[p - 1]


def _sample_table(samples: dict) -> list[str]:
    lines = [f"{'metric':<24}{'median':>12}{'tail':>12}{'n':>5}  unit"]
    for name, (vals, unit) in samples.items():
        p, tail = _tail_percentile(vals)
        tail_txt = f"p{p}={tail:.4g}" if p else "-"
        lines.append(f"{name:<24}{statistics.median(vals):>12.6g}"
                     f"{tail_txt:>12}{len(vals):>5}  {unit}")
    return lines


def _num(x) -> str:
    return str(x) if isinstance(x, int) else f"{x:.6g}"


def _self_times(prefix: Path):
    """Per-function self seconds and call counts of one traced command.

    A span's self time is its duration minus its children's, less the
    wrapper's own cost measured by ``tracer.span_cost``: the outside part
    once per direct child, the inside part once for the span itself.
    Also checks the spans: exactly one root (``cli.main``), every span
    closed, children nested inside their parents and siblings disjoint.
    Returns the self seconds and calls by function, the root's seconds
    and the seconds of wrapper cost taken out.
    """
    meta = json.loads(Path(f"{prefix}.json").read_text())
    names = meta["names"]
    outside, inside = meta["span_cost_ns"]
    raw = np.fromfile(f"{prefix}.spans", dtype=np.int64)
    name, start, end, parent = raw.reshape(-1, 4).T
    if np.any(start <= 0) or np.any(end < start):
        raise checks.CheckFailed("a span was never closed")
    dur = end - start
    child = parent >= 0
    roots = np.flatnonzero(~child)
    if roots.size != 1 or names[name[roots[0]]] != "cli.main":
        raise checks.CheckFailed("trace must have one cli.main root")
    if np.any(start[child] < start[parent[child]]) \
            or np.any(end[child] > end[parent[child]]):
        raise checks.CheckFailed("a child span leaves its parent")
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    if np.any(start[order][1:][same] < end[order][:-1][same]):
        raise checks.CheckFailed("sibling spans overlap")
    covered = np.zeros(dur.size, dtype=np.int64)
    np.add.at(covered, parent[child], dur[child])
    kids = np.bincount(parent[child], minlength=dur.size)
    raw_self = dur - covered
    self_ns = np.maximum(raw_self - kids * outside - inside, 0)
    by_name = np.zeros(len(names), dtype=np.int64)
    np.add.at(by_name, name, self_ns)
    calls = np.bincount(name, minlength=len(names))
    return ({n: int(t) / 1e9 for n, t in zip(names, by_name)},
            {n: int(c) for n, c in zip(names, calls)}, dur[roots[0]] / 1e9,
            int(raw_self.sum() - self_ns.sum()) / 1e9)


def _by_layer(fn_self: dict[str, float]) -> dict[str, float]:
    """Self seconds summed per module (the part before the first dot)."""
    out: dict[str, float] = {}
    for fn, s in fn_self.items():
        layer = fn.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s
    return out


def _traced_pass(h: Harness, cmds, reference: dict) -> dict:
    """Each command once traced and once plain, in-process."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts = dict.fromkeys([*SUMMED, *LARGEST, "cli.output_bytes"], 0)
    main_s = overhead = removed = 0.0
    spans = 0
    per_command: list[str] = []
    for i, cmd in enumerate(cmds):
        runs = {}
        for mode in ("traced", "plain"):
            prefix = h.tmp / f"{i}-{mode}"
            out, err = h.tmp / f"{i}.out", h.tmp / f"{i}.err"
            _, _, code, _ = h.spawn(
                [sys.executable, str(HERE / "tracer.py"), str(prefix), mode,
                 "--", *cmd.argv], out, err)
            meta = json.loads(Path(f"{prefix}.json").read_text()) \
                if code == 0 else {"code": code}
            h.verify(i, cmd, meta["code"], out, err, reference)
            runs[mode] = meta
            if mode == "traced" and code == 0:
                target = h.tmp / cmd.out if cmd.out else out
                counts["cli.output_bytes"] += target.stat().st_size
                try:
                    fn_self, fn_calls, root_s, taken = _self_times(prefix)
                except checks.CheckFailed as e:
                    h.failures.append(f"{cmd.kind} #{i}: {e}")
                    continue
                spans += sum(fn_calls.values())
                main_s += root_s
                removed += taken
                layers = _by_layer(fn_self)
                per_command.append(
                    f"  {cmd.kind:<10}{root_s:>9.3f} s  " + "  ".join(
                        f"{k} {v:.3f}" for k, v in sorted(
                            layers.items(), key=lambda kv: -kv[1])
                        if v >= 0.0005))
                for k, v in fn_self.items():
                    self_s[k] = self_s.get(k, 0.0) + v
                for k, v in fn_calls.items():
                    calls[k] = calls.get(k, 0) + v
                for k, v in meta["counts"].items():
                    counts[k] = (max(counts.get(k, 0), v) if k in LARGEST
                                 else counts.get(k, 0) + v)
        if "main_ns" in runs["traced"] and "main_ns" in runs["plain"]:
            overhead += (runs["traced"]["main_ns"]
                         - runs["plain"]["main_ns"]) / 1e9
    absent = sorted({f"{m}" for m, fns in SELF_TIMES.items()
                     if not any(f in calls for f in fns)}
                    | {m for m, f in CALLS.items() if f not in calls})
    times = {m: sum(self_s.get(f, 0.0) for f in fns)
             for m, fns in SELF_TIMES.items()}
    layers = _by_layer(self_s)
    for layer in LAYERS:
        times[f"{layer}.self_s"] = layers.get(layer, 0.0)
    times["cli.format_s"] = times["cli.self_s"] - sum(
        self_s.get(f, 0.0) for f in NOT_FORMAT)
    times["trace.main_s"] = main_s
    times["trace.overhead_s"] = overhead
    times["trace.removed_s"] = removed
    counts.update({m: calls.get(f, 0) for m, f in CALLS.items()})
    counts["trace.spans"] = spans
    return {"times": times, "counts": counts, "absent": absent,
            "functions": self_s, "calls": calls, "per_command": per_command}


def traced_run(h: Harness, cmds, seconds: float):
    h.warm_up(cmds)
    probes = [h.setup_probe() for _ in range(SETUP_PROBES)]
    setup = {"setup.interpreter_s": [p[1] for p in probes],
             "setup.numpy_import_s": [p[2] for p in probes],
             "setup.package_import_s": [p[3] for p in probes]}
    reference: dict = {}
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(_traced_pass(h, cmds, reference))
        if passes[-1]["counts"] != passes[0]["counts"]:
            h.failures.append("counts differ between traced passes")
    metrics = {k: {"value": statistics.median(v), "unit": "s"}
               for k, v in setup.items()}
    for name in passes[0]["times"]:
        metrics[name] = {"value": statistics.median(
            p["times"][name] for p in passes), "unit": "s"}
    for name, value in passes[0]["counts"].items():
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = {"value": value, "unit": unit}
    report = [f"{len(passes)} traced pass(es), {len(cmds)} commands each; "
              f"self times in s, medians over passes"]
    report += [f"{name:<32}{_num(m['value']):>14}  {m['unit']}"
               + ("  (absent)" if name in passes[0]["absent"] else "")
               for name, m in metrics.items()]
    first = passes[0]
    report.append("per-command traced cli.main and self time by layer (s), "
                  "first pass:")
    report += first["per_command"]
    report.append("per-function self time, first pass:")
    report += [f"  {fn:<40}{first['functions'][fn]:>12.6f} s"
               f"{first['calls'][fn]:>10} calls"
               for fn in sorted(first["functions"],
                                key=lambda f: -first["functions"][f])
               if first["calls"][fn]]
    return {k: metrics[k] for k in PER_LAYER}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    fixtures = root / "fixtures"
    if not (root / "src" / "wmsdspace" / "cli.py").is_file() \
            or not fixtures.is_dir():
        print("run from the root of a wmsdspace checkout (src/wmsdspace "
              "and fixtures/ not found)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        cmds = workloads.build(args.workload, args.seed, fixtures, tmp)
        h = Harness(root, tmp)
        run = traced_run if args.trace else timed_run
        metrics, report = run(h, cmds, args.seconds)
    except Fatal as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for line in report + [f"FAILED {f}" for f in h.failures]:
        print(line)
    print(json.dumps({"correct": not h.failures, "attempted": h.attempted,
                      "failed": len(h.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
