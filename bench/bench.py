"""Closed-loop benchmark of the eulercong command line.

Run from the repository root:

    python3 bench/bench.py --workload congruence --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each op is an in-process call of
``eulercong.cli.main(argv)`` with stdout captured, and the next op starts
when the previous one has ended. Before each op every ``functools`` cache of
the package is cleared (``find_caches`` looks them up in every module and
class of the package at start), because a real CLI process runs one op and
starts cold. The ops are the workload's grid from ``workloads.workload_ops``;
each op's output is checked by ``checks`` outside the timed region.

``--trace 0`` runs the grid in passes until the summed op wall time reaches
``--seconds`` (and at least ``MIN_PASSES`` passes have run). Shared hosts
like the 2-vCPU KVM guest this was tuned on change speed by up to 1.8x for
seconds to minutes at a time, CPU time with wall time, so raw times of one
run say as much about the host as about the program. Every timed op and
set-up is therefore bracketed by two runs of ``host_probe``, a fixed
computation that no change to the package touches, and its wall time is
scaled by ``PROBE_REF_S`` over the mean of the two: the time it takes on a
host where the probe takes ``PROBE_REF_S``. An op's time is the median of
its scaled times over the passes; the end-to-end metrics are taken over
those, and ``setup_s`` is the median of ``SETUP_RUNS`` scaled fresh-process
set-up times taken between the ops. The process pins itself to one CPU so
that probes, ops and set-ups share it. Unscaled figures are printed too.

``--trace 1`` runs the grid once, whatever ``--seconds`` says, so that with
one seed the counts repeat exactly: each op untraced and then under
``tracing.Tracer``. It prints the per-layer metrics, the hit ratio of every
cache found and the tracing overhead. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``. The
lines before it list the metrics and the sha256 digest of all outputs; spans
and per-op output digests go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from checks import CHECKS
from workloads import WORKLOADS, workload_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Hit-ratio metrics of the traced run -> the cache they read, named as by
# find_caches. Every other cache found is cleared too and its ratio printed.
NAMED_CACHES = {
    "eulerian.poly_cache": "eulerian.eulerian_poly",
    "eulerian.triangle_cache": "eulerian._triangle_rows",
    "eulerian.signed_egf_cache": "eulerian._signed_egf_values",
    "bernoulli.poly_cache": "bernoulli.bernoulli_poly",
}

# A timed run goes on past --seconds until every op has run this many times.
MIN_PASSES = 3

# host_probe() takes about this long on the host named in the module
# docstring at its fast speed.
PROBE_REF_S = 0.0015

# Fresh-process set-up times per timed run, spread over the run so that the
# median sees the host at many moments, not one.
SETUP_RUNS = 41
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eulercong\n"
    "from eulercong import cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def host_probe() -> float:
    """Seconds taken by a fixed mix of Fraction and big-integer arithmetic.

    About 2 ms: long enough to read the host's speed, short next to an op.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(i * i + 1, i + 7)
    x = 3**2000
    for _ in range(100):
        x *= x % 1000003 + 1
    return time.perf_counter() - t0


try:
    # A CLI process runs one op and exits; returning freed heap to the system
    # between ops keeps one op's fragmentation from raising the next one's
    # peak RSS.
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    def _malloc_trim(pad: int) -> int:
        return 0


class Runner:
    """Runs ops one after another and tallies times, failures and digests."""

    def __init__(self, cli, caches, tracer=None):
        self.cli = cli
        self.caches = caches
        self.tracer = tracer
        self.times: list[float] = []
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.out_bytes = 0
        self.cache_hits: Counter = Counter()
        self.cache_misses: Counter = Counter()
        self.probes: list[float] = []  # host_probe() before each op, and one after the last
        self.verdicts: dict = {}  # (id of op, exit code, output digest) -> check result

    def settle(self) -> None:
        """Clear the package's caches and the heap, then probe the host's speed."""
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()
        _malloc_trim(0)
        self.probes.append(host_probe())

    def run(self, op, corrupt=None) -> None:
        self.settle()
        out, err = io.StringIO(), io.StringIO()
        index = len(self.times)
        if self.tracer is not None:
            self.tracer.begin_op(index)
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, error = None, traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_op()
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_hits[name] += info.hits
            self.cache_misses[name] += info.misses
        self.times.append(elapsed)
        text = out.getvalue()
        out.close()
        if corrupt is not None:
            text = corrupt(text)
        data = text.encode()
        self.out_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        self.digests.append(digest)
        del data
        if error:
            reason = f"raised {error.strip()}"
        else:
            # An op that prints what it printed before, with the same exit
            # code, gets the verdict it got before.
            key = (id(op), rc, digest)
            if key not in self.verdicts:
                self.verdicts[key] = CHECKS[op.kind](op.params, rc, text)
            reason = self.verdicts[key]
        if reason:
            self.failures.append(f"op {index} `{' '.join(op.argv)[:120]}`: {reason}")

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()

    def hit_ratio(self, name: str) -> float:
        lookups = self.cache_hits[name] + self.cache_misses[name]
        return self.cache_hits[name] / lookups if lookups else 0.0


def self_test(cli, caches) -> bool:
    """Show that corrupted verify outputs are counted as failed ops."""
    op = next(o for o in workload_ops("congruence", 0) if o.kind == "verify" and o.params["ell"] < 20)
    corruptions = [
        None,
        lambda s: s.replace('"holds": true', '"holds": T').replace('"holds": false', '"holds": true')
        .replace('"holds": T', '"holds": false'),
        lambda s: s[: len(s) // 2],
        lambda s: s.replace('"defect": "', '"defect": "1 ', 1),
        lambda s: s.replace('"quotient": "', '"quotient": "0 ', 1),
    ]
    runner = Runner(cli, caches)
    for corrupt in corruptions:
        runner.run(op, corrupt)
    return len(runner.failures) == len(corruptions) - 1 and all(
        f.startswith(f"op {i} ") for i, f in enumerate(runner.failures, start=1)
    )


def find_caches(package) -> dict:
    """Every ``functools`` cache in the package's modules and classes, by name.

    A cache is any object with ``cache_clear`` and ``cache_info``, found as a
    module attribute or in a class dict (also behind ``staticmethod`` and
    ``classmethod``), and named ``<module>.<qualname>`` after where it is
    defined, so a ``from ... import`` copy is not counted twice.
    """
    prefix = package.__name__ + "."
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, prefix)
        if info.name.rsplit(".", 1)[1] != "__main__"
    ]
    caches = {}
    for module in modules:
        namespaces = [vars(module)] + [
            vars(obj) for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for namespace in namespaces:
            for attr, obj in namespace.items():
                obj = getattr(obj, "__func__", obj)
                if not (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")):
                    continue
                where = getattr(obj, "__module__", None) or module.__name__
                name = f"{where.removeprefix(prefix)}.{getattr(obj, '__qualname__', attr)}"
                caches.setdefault(name, obj)
    return caches


def setup_sample() -> tuple[float, float]:
    """Seconds from a fresh interpreter to a built CLI parser: scaled, as measured."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    before = host_probe()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    seconds = float(done.stdout)
    return seconds * 2 * PROBE_REF_S / (before + host_probe()), seconds


def _summary(times: list[float]) -> tuple[float, float, float]:
    """Ops per second over one pass of the grid, p50 and p90 in milliseconds."""
    ms = sorted(t * 1000 for t in times)
    return len(ms) / sum(times), statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def timed_run(workload, seed, seconds, cli, caches) -> tuple[list[Runner], dict]:
    ops = workload_ops(workload, seed)
    runner = Runner(cli, caches)
    setup_sample()  # the first fresh process may compile bytecode
    setup = []
    runs = [[] for _ in ops]  # indices into runner.times, per op
    passes = 0
    while passes < MIN_PASSES or runner.busy_s < seconds:
        for op, op_runs in zip(ops, runs):
            if passes >= MIN_PASSES and runner.busy_s >= seconds:
                break
            if len(setup) < SETUP_RUNS * min(1.0, runner.busy_s / seconds):
                setup.append(setup_sample())
            op_runs.append(len(runner.times))
            runner.run(op)
        passes += 1
    runner.settle()  # the probe after the last op
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample())

    probes = runner.probes
    scaled = [
        statistics.median(runner.times[i] * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i in op_runs)
        for op_runs in runs
    ]
    unscaled = [statistics.median(runner.times[i] for i in op_runs) for op_runs in runs]
    print(f"grid of {len(ops)} ops, {len(runner.times)} runs in {passes} passes "
          f"({min(map(len, runs))} to {max(map(len, runs))} runs per op); host_probe "
          f"min {min(probes) * 1000:.4g} ms, median {statistics.median(probes) * 1000:.4g} ms")
    print("unscaled: ops_per_s {:.6g}, op_p50_ms {:.6g}, op_p90_ms {:.6g}, setup_s {:.6g}".format(
        *_summary(unscaled), statistics.median(raw for _, raw in setup)))
    ops_per_s, p50, p90 = _summary(scaled)
    n = len(runner.times)
    metrics = {
        # One pass over the grid at these op times.
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": ((n - len(runner.failures)) / n, "ratio"),
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [runner], metrics


def traced_run(workload, seed, seconds, cli, caches) -> tuple[list[Runner], dict]:
    from tracing import Tracer

    # Each op runs untraced and then traced, back to back, so that drifts in
    # host speed cancel out of the overhead ratio.
    ops = workload_ops(workload, seed)
    tracer = Tracer()
    plain, runner = Runner(cli, caches), Runner(cli, caches, tracer)
    for op in ops:
        plain.run(op)
        runner.run(op)
    if runner.digests != plain.digests:
        runner.failures.append("traced outputs differ from untraced outputs")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv.gz")

    metrics = tracer.layer_metrics()
    for metric, name in NAMED_CACHES.items():
        metrics[f"{metric}.hit_ratio"] = (runner.hit_ratio(name), "ratio")
    for name in caches:
        print(f"cache {name}: hits={runner.cache_hits[name]} misses={runner.cache_misses[name]} "
              f"hit_ratio={runner.hit_ratio(name):.6g}")
    metrics["cli.out_bytes"] = (runner.out_bytes, "bytes")
    metrics["trace.overhead"] = (runner.busy_s / plain.busy_s - 1, "ratio")
    return [plain, runner], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eulercong" / "__init__.py").is_file():
        print(f"bench: no eulercong package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eulercong
    import eulercong.cli

    if Path(eulercong.__file__).resolve().parent != SRC / "eulercong":
        print(f"bench: imported eulercong from {eulercong.__file__}, not {SRC}", file=sys.stderr)
        return 2
    caches = find_caches(eulercong)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    checker_ok = self_test(eulercong.cli, caches)
    run = traced_run if args.trace else timed_run
    runners, metrics = run(args.workload, args.seed, args.seconds, eulercong.cli, caches)
    runner = runners[-1]

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"digests-{args.workload}-seed{args.seed}-trace{args.trace}.txt", "w") as fh:
        for i, digest in enumerate(runner.digests):
            fh.write(f"{i}\t{digest}\n")
    failures = [f for r in runners for f in r.failures]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    attempted, failed = sum(len(r.times) for r in runners), len(failures)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} ops={attempted} "
        f"failed={failed} checker_self_test={'pass' if checker_ok else 'FAIL'} "
        f"digest={runner.digest()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    result = {
        "correct": checker_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
