"""fusionkit end-to-end benchmark.

    python3 bench/run.py --workload lazy-windows --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload is a fixed list of ``fusionkit`` commands on definition files
generated from the seed.  One client runs the commands one at a time, each
as a fresh process, in a closed loop, pass after pass, until the next pass
would end after ``--seconds`` (at least MIN_PASSES passes).  Every output is
checked against the oracles in ``oracles.py``.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
wall and CPU seconds per pass, and peak resident memory.  With
``--trace 1`` it sends the same commands through ``fusionkit.cli.main`` in
this process, alternating an untraced pass with a traced one, and reports
the per-layer metrics of the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
built from the checkout's own ``src``; without it the run exits with
code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_PASSES = 2
SETUP_SAMPLES = 3  # at least this many set-up samples ...
SETUP_MIN_S = 3.0  # ... and at least this much time spent on them
COMMAND_TIMEOUT_S = 120.0


class Tally:
    """Commands attempted and failed, and every check error seen.  A
    failed command's output is not checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.errors: List[str] = []

    def record(self, cmd: workloads.Command, code: int, stdout: str,
               workdir: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{cmd.name}: exit {code}")
            return
        try:
            doc = json.loads(stdout)
            problems = cmd.check(doc, workdir)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.errors.extend(f"{cmd.name}: {p}" for p in problems)

    def final(self, workload: workloads.Workload, workdir: str) -> None:
        if workload.final_check is not None:
            self.errors.extend(workload.final_check(workdir))


# --- fresh-process runs -------------------------------------------------------------


def _child_env(cache_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("FUSIONKIT_CACHE", None)
    if cache_dir is not None:
        env["FUSIONKIT_CACHE"] = cache_dir
    return env


def run_process(argv: List[str], workdir: str, env: Dict[str, str],
                stdout_path: str) -> Tuple[int, float, float, float]:
    """Run one process to its end: (exit code, wall s, CPU s, max RSS MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def measure_setup(workload: workloads.Workload, workdir: str,
                  env: Dict[str, str]) -> float:
    argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py")] + workload.probe_files
    out = os.path.join(workdir, "probe.out")
    walls: List[float] = []
    while len(walls) < SETUP_SAMPLES or sum(walls) < SETUP_MIN_S:
        code, wall, _, _ = run_process(argv, workdir, env, out)
        if code != 0:
            with open(out + ".err", encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up probe failed: {fh.read()[-500:]}")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(workload: workloads.Workload, workdir: str, seconds: float,
               tally: Tally) -> Dict[str, Tuple[float, str]]:
    cache = os.path.join(workdir, "cache") if workload.uses_cache else None
    env = _child_env(cache)
    # compile the sources once, so no sample pays for bytecode
    run_process([sys.executable, "-c", "import fusionkit.cli"], workdir, env,
                os.path.join(workdir, "warm.out"))
    setup = measure_setup(workload, workdir, env)
    walls, cpus, peak = [], [], 0.0
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - started + statistics.mean(walls) <= seconds):
        wall = cpu = 0.0
        outputs = []
        for index, cmd in enumerate(workload.commands):
            out = os.path.join(workdir, f"cmd{index}.out")
            code, w, c, rss = run_process(
                [sys.executable, "-m", "fusionkit.cli"] + cmd.argv + ["--json"],
                workdir, env, out)
            wall, cpu, peak = wall + w, cpu + c, max(peak, rss)
            outputs.append((cmd, code, out))
        walls.append(wall)
        cpus.append(cpu)
        for cmd, code, out in outputs:
            with open(out, encoding="utf-8") as fh:
                tally.record(cmd, code, fh.read(), workdir)
    tally.final(workload, workdir)
    return {
        "setup_s": (setup, "s"),
        "round_s": (statistics.median(walls), "s"),
        "round_cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


# --- traced in-process runs -----------------------------------------------------------


def in_process_pass(workload: workloads.Workload, workdir: str, tally: Tally,
                    tracer=None) -> float:
    """One pass through ``fusionkit.cli.main`` in this process, with a fresh
    product cache directory when the workload uses one."""
    from fusionkit import cli

    if workload.uses_cache:
        cache = os.path.join(workdir, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        os.environ["FUSIONKIT_CACHE"] = cache
    outputs = []
    wall = 0.0
    for index, cmd in enumerate(workload.commands):
        if tracer is not None:
            tracer.request = index
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(cmd.argv + ["--json"])
            except Exception:  # a traceback: exit 1 in a fresh process
                code = 1
        wall += time.perf_counter() - start
        outputs.append((cmd, code, buf.getvalue()))
    for cmd, code, text in outputs:
        tally.record(cmd, code, text, workdir)
    tally.final(workload, workdir)
    return wall


LAYER_TIMES = [
    "cli.main", "serialize.load", "serialize.emit", "serialize.cache",
    "rings.check_ring_axioms", "rings.check_dimension", "rings.window",
    "constructions.rep_ring", "constructions.character_table",
    "subrings.verify_subring", "subrings.coset_classes",
    "subrings.find_certificate", "subrings.verify_certificate",
    "induction.induce", "induction.restrict", "induction.standardize",
    "modules.check_module_axioms", "modules.find_intertwiner",
    "modules.is_torsion", "census.enumerate",
]
LAYER_CALLS = [
    "rings.check_ring_axioms", "subrings.verify_subring", "induction.induce",
    "modules.check_module_axioms",
]
LAYER_COUNTS = [
    "serialize.load.calls", "serialize.cache_records_read",
    "serialize.cache_records_written", "rings.assoc_triples",
    "rings.product.calls", "rings.tensor.calls", "elements.created",
    "modules.action_triples",
]


def _per_unit_us(seconds: float, count: int) -> float:
    return seconds * 1e6 / count if count else 0.0


def layer_metrics(tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = tracer.self_s.get(name, 0.0)
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
    for name in LAYER_COUNTS:
        out[name] = tracer.counters.get(name, 0)
    out["cyclotomic.mul.calls"] = tracer.calls.get("cyclotomic.mul", 0)
    out["cyclotomic.mul_us"] = _per_unit_us(tracer.self_s.get("cyclotomic.mul", 0.0),
                                            out["cyclotomic.mul.calls"])
    out["rings.assoc_triple_us"] = _per_unit_us(
        out["rings.check_ring_axioms_s"], out["rings.assoc_triples"])
    out["modules.action_triple_us"] = _per_unit_us(
        out["modules.check_module_axioms_s"], out["modules.action_triples"])
    return out


def traced(workload: workloads.Workload, workdir: str, seconds: float,
           tally: Tally, trace_path: str) -> Dict[str, Tuple[float, str]]:
    import tracing

    sys.path.insert(0, SRC)
    import fusionkit

    if not os.path.abspath(fusionkit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"fusionkit imported from {fusionkit.__file__}, not {SRC}")
    os.environ.pop("FUSIONKIT_CACHE", None)
    previous = os.getcwd()
    os.chdir(workdir)
    plain, traced_walls, layers, first = [], [], [], None
    started = time.perf_counter()
    try:
        while not plain or (time.perf_counter() - started
                            + statistics.mean(plain) + statistics.mean(traced_walls)
                            <= seconds):
            plain.append(in_process_pass(workload, workdir, tally))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls.append(in_process_pass(workload, workdir, tally, tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
            first = first or tracer
    finally:
        os.chdir(previous)
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
    if any(c != counts[0] for c in counts):
        tally.errors.append("traced passes disagree on their counts")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name,
                   "commands": [c.argv for c in workload.commands],
                   "span_fields": ["id", "name", "start", "end", "parent", "command"],
                   "spans": first.spans, "counters": dict(first.counters),
                   "self_s": dict(first.self_s), "calls": dict(first.calls)}, fh)
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, value in layers[0].items():
        if isinstance(value, int):
            metrics[name] = (value, "count")
        else:
            unit = "us" if name.endswith("_us") else "s"
            metrics[name] = (statistics.median(m[name] for m in layers), unit)
    metrics["trace.untraced_pass_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_pass_s"] = (statistics.median(traced_walls), "s")
    return metrics


# --- entry point -------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = workloads.build(name, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    try:
        workload.write(workdir)
        if trace:
            metrics = traced(workload, workdir, seconds, tally,
                             os.path.join(OUT_DIR, f"trace-{tag}.json"))
        else:
            metrics = end_to_end(workload, workdir, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in tally.failures[:10]:
        print(f"COMMAND FAILED [{name}] {failure}", file=sys.stderr)
    for error in tally.errors[:20]:
        print(f"CHECK FAILED [{name}] {error}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fusionkit", "cli.py")):
        print(f"error: no fusionkit sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
