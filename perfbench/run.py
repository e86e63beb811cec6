"""nefcert benchmark: cold `verify` and `search` commands, end to end.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client, one operation in flight: each
operation is a fresh `python -m nefcert.cli ...` process, timed from spawn
to exit.  The first pass visits every operation of the workload once, in an
order drawn from --seed; later passes revisit the repeating ones (not the
reject inputs), skipping those that would end past --seconds, until none
fits.  Every answer is checked against its known answer.

The benchmark and its commands run on one core, and a fixed job of the
benchmark's own, probe(), is timed before every command.  --trace 0 prints
the end-to-end metrics in reference seconds: wall seconds divided by how
much slower than 0.1 s the probes ran (see NOTES.md).  --trace 1 makes one
untraced pass, then the same pass traced through perfbench/traced_main.py,
runs the field-kernel microbenchmarks, and prints the per-layer metrics.
--workload all runs every workload in turn.  The last line of stdout is one
JSON object; the lines before it give every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from traced_main import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / str(os.getpid())  # per run, so concurrent runs cannot collide
SETUP_SAMPLES = 15  # at least this many fresh-interpreter imports in the first pass
PROBE_REF_S = 0.1  # probe time that defines the reference host; see NOTES.md
BUDGET_S = 170.0  # commands still running this long after a workload starts are killed
SEARCH = ("search",)
TRACEBACK = b"Traceback (most recent call last)"

# Workloads on which each traced function must record calls; a zero there
# means the tracer missed an alias.  certificate_build never runs under
# verify and certificate_verify never runs under search: the search outputs
# are verified outside the traced pass.  The jacobian sampler runs only in
# search, at the -retry points above all.
ALL = wl.WORKLOADS
EXPECTED_ON = {
    "obstruction.embed_bidegree_2_3": ALL,
    "obstruction.beta_functional": ALL,
    "obstruction.obstruction_scalar": ALL,
    "obstruction.choose_delta": SEARCH,
    "obstruction.certificate_build": SEARCH,
    "obstruction.certificate_verify": ("verify",),
    "curves.Curve.residue": ALL,
    "curves.Curve.valuation": ALL,
    "curves.Curve.divisor": ALL,
    "curves.Curve.places_above": ALL,
    "curves._frames": ALL,
    "series.poly_series": ALL,
    "series.rf_series": ALL,
    "jacobian.random_class": SEARCH,
    "jacobian.find_p_torsion": SEARCH,
    "jacobian.divisor_class_to_mumford": ALL,
    "jacobian.MumfordClass.__add__": ALL,
    "jacobian.class_order": ALL,
    "jacobian.frobenius_data": ALL,
    "cohomology.rr_space": ALL,
    "cohomology.h1_space": ALL,
    "cohomology.frobenius_h1": ALL,
    "cohomology.p_torsion_bundle": SEARCH,
    "fields.Polynomial.__mul__": ALL,
    "fields.Polynomial.__divmod__": ALL,
    "fields.poly_xgcd": ALL,
    "fields.is_irreducible": ALL,
    "linalg.rref": ALL,
    "serialize.parse_certificate": ("verify",),
    "serialize.canonical_bytes": SEARCH,
    "cli.main": ALL,
}
RAISED = (
    "obstruction.embed_bidegree_2_3",
    "obstruction.choose_delta",
    "jacobian.random_class",
    "jacobian.find_p_torsion",
)
CACHED = (
    "curves._frames",
    "jacobian.frobenius_data",
    "cohomology.rr_space",
    "cohomology.h1_space",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, altered inputs)."""


@dataclass
class Sample:
    wall_s: float
    rss_kb: int
    exit: int
    stdout: bytes
    failure: str | None  # why the answer is wrong, or None


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    samples: dict = field(default_factory=dict)  # op name -> [Sample]
    setup: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # probe() times, one before each timed command
    failures: list = field(default_factory=list)  # (op name, reason, known defect)
    notes: list = field(default_factory=list)  # hash drift and other remarks
    attempted: int = 0
    passes: int = 0
    elapsed_s: float = 0.0
    broken: list = field(default_factory=list)  # failures no known defect explains


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, tag: str, timeout: float) -> tuple[int, float, int, bytes, bytes]:
    """Run argv to completion; exit code, wall seconds, max RSS (KiB), output."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_env(), cwd=ROOT
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


def pin_to_one_cpu() -> None:
    """Run the benchmark and every command it starts on one core.

    The host slows each core by its own amount, so probe() measures the
    speed of the commands' core only if they share it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python job: the host's speed now.

    Schoolbook products of two 40-coefficient polynomials mod 7, the same
    kind of interpreter work as nefcert's field arithmetic, but code of the
    benchmark's own, so no change to the package can move it.
    """
    a = [(3 * i + 1) % 7 for i in range(40)]
    t0 = time.perf_counter()
    for _ in range(600):
        c = [0] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                c[i + j] = (c[i + j] + x * y) % 7
    return time.perf_counter() - t0


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "nefcert.cli", *args]


def judge(op: wl.Op, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """Why this answer differs from the operation's known answer, or None."""
    reasons = []
    if TRACEBACK in stderr:
        reasons.append("traceback")
    if code not in op.exits:
        reasons.append(f"exit {code}, expected {'/'.join(map(str, op.exits))}")
    elif op.fail_check is not None:
        try:
            checks = json.loads(stdout)["checks"]
            failed = [c["index"] for c in checks if not c["passed"]]
        except (ValueError, KeyError, TypeError):
            failed = None
        if failed is None:
            reasons.append("no JSON verify report")
        elif op.fail_check not in failed:
            reasons.append(f"check {op.fail_check} did not FAIL (failed: {failed})")
    elif op.argv[0] == "verify" and op.exits == (0,):
        if not stdout.rstrip().endswith(b"verdict: PASS"):
            reasons.append("no PASS verdict")
    elif op.argv[0] == "search" and not stdout:
        reasons.append("no certificate on stdout")
    return "; ".join(reasons) or None


def measure_setup(out: Outcome, timeout: float) -> None:
    code, wall, _, _, err = spawn([sys.executable, "-c", "import nefcert.cli"], "setup", timeout)
    if code != 0:
        raise BenchError("cannot import nefcert.cli: " + err.decode(errors="replace")[-500:])
    out.setup.append(wall)


def run_op(out: Outcome, op: wl.Op, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    code, wall, rss, stdout, stderr = spawn(cli(*op.argv), "op", timeout)
    sample = Sample(wall, rss, code, stdout, judge(op, code, stdout, stderr))
    prior = out.samples.setdefault(op.name, [])
    if prior and sample.failure is None and stdout != prior[0].stdout:
        sample.failure = "output differs between repeats"
    prior.append(sample)
    out.attempted += 1
    if sample.failure:
        out.failures.append((op.name, sample.failure, op.known_defect))


def untraced_passes(out: Outcome, ops: list, seconds: float, deadline: float) -> None:
    """One pass over every operation, then passes over the repeating ones.

    A later pass skips each operation whose last time says it would end
    past `seconds`, and the run ends with the first pass that runs none:
    so a run lasts about `seconds` however long its operations are, and
    short operations fill its end.  An import sample precedes every
    operation, several in the first pass, so that `setup_s` sees the same
    spells of the host as the operations do, and a probe() precedes every
    command.
    """
    t0 = time.monotonic()
    visit = ops
    per_op = max(1, math.ceil(SETUP_SAMPLES / len(ops)))
    while visit:
        ran = False
        for op in visit:
            prior = out.samples.get(op.name)
            if prior and time.monotonic() - t0 + prior[-1].wall_s > seconds:
                continue
            for _ in range(1 if prior or out.passes else per_op):
                out.probes.append(probe())
                measure_setup(out, max(1.0, deadline - time.monotonic()))
            out.probes.append(probe())
            run_op(out, op, deadline)
            ran = True
        out.passes += ran
        visit = [op for op in ops if op.repeat] if ran else []
    out.elapsed_s = time.monotonic() - t0


def check_search_outputs(out: Outcome, ops: list, pins: dict, deadline: float) -> None:
    """Verify each search certificate (untimed) and compare it with its pin."""
    for op in ops:
        first = out.samples[op.name][0]
        if first.failure:
            continue
        digest = hashlib.sha256(first.stdout).hexdigest()
        pinned = pins["search"].get("{},{}".format(*op.point))
        if digest != pinned:
            out.notes.append(f"hash_drift {op.name} p={op.point[0]} seed={op.point[1]}: "
                             f"pinned {pinned} now {digest}")
        path = WORK / f"search-p{op.point[0]}-s{op.point[1]}.json"
        path.write_bytes(first.stdout)
        timeout = max(1.0, deadline - time.monotonic())
        code, _, _, stdout, stderr = spawn(cli("verify", str(path.relative_to(ROOT))), "check", timeout)
        if code != 0 or TRACEBACK in stderr or not stdout.rstrip().endswith(b"verdict: PASS"):
            for sample in out.samples[op.name]:
                if sample.failure is None:
                    sample.failure = f"certificate does not verify PASS (exit {code})"
                    out.failures.append((op.name, sample.failure, op.known_defect))


def check_inputs(ops: list, pins: dict) -> None:
    for op in ops:
        if op.argv[0] != "verify":
            continue
        path = ROOT / op.argv[-1]
        if not path.is_file():
            raise BenchError(f"missing input {op.argv[-1]}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != pins["files"].get(path.name):
            raise BenchError(f"input {op.argv[-1]} does not match its pinned sha256")


def op_mean(samples: list) -> float:
    # The mean, not the median: the host alternates between a fast and a
    # slow state, so a median of few samples jumps between the two while
    # the mean moves with the share of time spent slow (see NOTES.md).
    return statistics.fmean(s.wall_s for s in samples)


def host_factor(out: Outcome) -> float:
    """How much slower than the reference host this run's core was."""
    return statistics.fmean(out.probes) / PROBE_REF_S


def end_to_end(out: Outcome, ops: list) -> dict:
    """The metrics in reference seconds: wall seconds divided by host_factor()."""
    factor = host_factor(out)
    means = {op.name: op_mean(out.samples[op.name]) / factor for op in ops}
    points = [means[op.name] for op in ops if not op.name.startswith("reject_s.")]
    return {
        "setup_s": (statistics.median(out.setup) / factor, "s"),
        "pass_s": (sum(means.values()), "s"),
        "geomean_s": (math.exp(statistics.fmean(math.log(t) for t in points)), "s"),
        "peak_rss_mb": (
            max(s.rss_kb for op in ops for s in out.samples[op.name]) / 1024, "MB"
        ),
    }


def traced_pass(out: Outcome, ops: list, deadline: float) -> tuple[dict, float]:
    """One traced pass; returns summed span data and its total wall time."""
    totals = {"functions": {}, "caches": {}}
    wall_total = 0.0
    spans = WORK / "spans.json"
    for op in ops:
        if spans.exists():
            spans.unlink()
        argv = [sys.executable, str(HERE / "traced_main.py"), str(spans), *op.argv]
        timeout = max(1.0, deadline - time.monotonic())
        code, wall, _, stdout, stderr = spawn(argv, "traced", timeout)
        wall_total += wall
        out.attempted += 1
        plain = out.samples[op.name][0]
        failure = judge(op, code, stdout, stderr)
        if code != plain.exit or stdout != plain.stdout:
            failure = "traced run differs from untraced run (exit code or stdout)"
            out.broken.append(f"tracer not neutral on {op.name}")
        if failure:
            out.failures.append((op.name + " (traced)", failure, op.known_defect))
        if not spans.exists():
            out.broken.append(f"no spans written for {op.name}")
            continue
        doc = json.loads(spans.read_text())
        for name, rec in doc["functions"].items():
            acc = totals["functions"].setdefault(name, dict.fromkeys(rec, 0))
            for key, val in rec.items():
                acc[key] += val
        for name, rec in doc["caches"].items():
            acc = totals["caches"].setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += rec["hits"]
            acc["misses"] += rec["misses"]
    return totals, wall_total


def kernels(seed: int, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "kernels.py"), "--seed", str(seed)]
    code, _, _, stdout, stderr = spawn(argv, "kernels", max(1.0, deadline - time.monotonic()))
    if code != 0:
        raise BenchError("kernel microbenchmarks failed: " + stderr.decode(errors="replace")[-500:])
    return json.loads(stdout)


def per_layer(out: Outcome, ops: list, seed: int, deadline: float) -> dict:
    totals, traced_wall = traced_pass(out, ops, deadline)
    untraced = sum(op_mean(out.samples[op.name]) for op in ops)
    metrics = {"trace_overhead": (traced_wall / untraced, "ratio")}
    funcs = totals["functions"]
    for mname, names in TRACED.items():
        for qual in names:
            name = f"{mname}.{qual}"
            rec = funcs.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0})
            if rec["calls"] == 0 and out.workload in EXPECTED_ON[name]:
                out.broken.append(f"coverage: {name} recorded zero calls on {out.workload}")
            metrics[f"{name}.calls"] = (rec["calls"], "count")
            metrics[f"{name}.self_s"] = (rec["self_s"], "s")
            if name in RAISED:
                metrics[f"{name}.raised"] = (rec["raised"], "count")
            if name in CACHED:
                cache = totals["caches"].get(name, {"hits": 0, "misses": 0})
                looked = cache["hits"] + cache["misses"]
                metrics[f"{name}.hit_ratio"] = (cache["hits"] / looked if looked else 0.0, "ratio")
    metrics["cli.main.incl_s"] = (funcs.get("cli.main", {}).get("incl_s", 0.0), "s")
    for name, value in kernels(seed, deadline).items():
        metrics[name] = (value, "us")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    pins = wl.load_pins()
    ops = wl.operations(workload, ROOT)
    check_inputs(ops, pins)
    random.Random(seed).shuffle(ops)
    deadline = time.monotonic() + BUDGET_S
    out = Outcome(workload)
    measure_setup(out, BUDGET_S)  # untimed: compiles the bytecode once, as an install would
    out.setup.clear()
    # a traced run needs one untraced pass to compare against, not --seconds of them
    untraced_passes(out, ops, 0 if trace else seconds, deadline)
    if workload == "search":
        check_search_outputs(out, ops, pins, deadline)
    metrics = per_layer(out, ops, seed, deadline) if trace else end_to_end(out, ops)
    for name, _, defect in out.failures:
        if defect is None:
            out.broken.append(f"{name} failed")
    return out, ops, metrics


def report(out: Outcome, ops: list, metrics: dict) -> None:
    print(f"workload {out.workload}: {out.passes} pass(es) of {len(ops)} operations"
          f" in {out.elapsed_s:.1f} s, order {[op.name for op in ops]}")
    for op in ops:
        samples = out.samples[op.name]
        each = " ".join(f"{s.wall_s:.3f}" for s in samples)
        print(f"  {op.name:<28} {op_mean(samples):9.4f} s  (mean of {len(samples)}: {each})")
    for name, reason, defect in out.failures:
        known = f"  [known defect: {defect}]" if defect else ""
        print(f"  FAILED {name}: {reason}{known}")
    for note in out.notes:
        print(f"  {note}")
    rate = len(out.failures) / out.attempted
    print(f"  error_rate {rate:.4f} ({len(out.failures)} failed / {out.attempted} attempted)")
    print(f"  setup_s samples {len(out.setup)}: {' '.join(f'{t:.3f}' for t in out.setup)}")
    if out.probes:
        print(f"  host_factor {host_factor(out):.4f} (mean of {len(out.probes)} probes,"
              f" reference {PROBE_REF_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for problem in out.broken:
        print(f"  BROKEN {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nefcert cold verify/search benchmark")
    ap.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nefcert" / "cli.py").is_file():
        print(f"error: no nefcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except (BenchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics, broken, attempted, failed = {}, [], 0, 0
    for out, ops, wmetrics in results:
        report(out, ops, wmetrics)
        prefix = "" if len(results) == 1 else out.workload + "."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in wmetrics.items()})
        broken += out.broken
        attempted += out.attempted
        failed += len(out.failures)
    coverage = [b for b in broken if b.startswith("coverage:")]
    if coverage:
        print("error: the tracer missed calls; " + "; ".join(coverage), file=sys.stderr)
        return 1
    print(json.dumps({"correct": not broken, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
