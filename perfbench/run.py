"""End-to-end and per-layer benchmark of the `schouten` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op is one `python -m schouten.cli`
process, started one at a time from this process, so each op pays for its
own enumeration and its own cache fill, as a user scripting the CLI does.
Ops run in passes, each pass running every op of the workload once in the
seeded order; passes repeat while another fits in S seconds (at least one).

--trace 0 reports the end-to-end metrics:
  wall_s        sum over ops of the op's median time across passes
  slowest_op_s  the largest of those medians
  peak_rss_mb   the largest median max-RSS of an op process (from wait4)
  setup_s       median time for a fresh interpreter to import schouten.cli

Times are wall-clock seconds scaled to a fixed reference speed of the CPU,
measured while each op runs (see REFERENCE_S).

--trace 1 runs untraced and traced passes (see traced_cli.py) alternately
and reports the per-layer split: self time per traced function, the counts
recorded at the same boundaries, `cli.overhead_s` (op wall time minus the
in-process time of the library) and `trace.overhead_s` (traced minus
untraced wall_s).  Counts must repeat exactly between traced passes.

Every op's output is checked (see workloads.py).  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every op passed its check.
"""

import argparse
import gc
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
TRACED_CLI = os.path.join(ROOT, "perfbench", "traced_cli.py")

# Limits set in each op process only: a block that outgrows memory fails as
# a counted op instead of taking the machine down, and a runaway op ends.
OP_ADDRESS_SPACE = 2 << 30
OP_CPU_SECONDS = 120
SETUP_REPEATS = 11
# The host's speed drifts by up to 2x within a minute on a shared machine,
# and an op slows with it.  While an op runs, this process (on the same CPU)
# times probe() every PROBE_INTERVAL_S; the op's time, less the probes', is
# multiplied by REFERENCE_S over the probes' mean.  Reported times are thus
# seconds at the speed where probe() takes REFERENCE_S: the quiet speed of
# the 2-core Xeon (2.0 GHz, Python 3.11) the benchmark was calibrated on.
REFERENCE_S = 0.0007
PROBE_INTERVAL_S = 0.02

# per-layer self-time metric -> traced function (see traced_cli.py)
SELF_TIMES = {
    "linalg.rank_exact.s": "linalg.rank_exact",
    "boundary.boundary_matrix.s": "boundary.boundary_matrix",
    "boundary.boundary.s": "boundary.boundary",
    "chains.enumerate_basis.s": "chains.enumerate_basis",
    "chains.parse_chain.s": "chains.parse_chain",
    "chains.chain_to_text.s": "chains.chain_to_text",
    "contraction.certify_exact.s": "contraction.certify_exact",
    "contraction.check_certificate.s": "contraction.check_certificate",
    "homology.betti.self_s": "homology.betti",
    "homology.dims_table.s": "homology.dims_table",
    "homology.euler_characteristic.s": "homology.euler_characteristic",
}
# per-layer counts, recorded by traced_cli.py under these names
COUNTS = (
    "linalg.rank_exact.rows", "linalg.rank_exact.cols", "linalg.rank",
    "boundary.boundary_matrix.nnz", "chains.enumerate_basis.calls", "chains.words",
    "contraction.annihilator_degree", "contraction.primitive_terms",
)


def probe():
    """Time a fixed pure-Python loop of tuple keys, dict updates and integer
    arithmetic, the operations the package spends its time in.  It takes
    about REFERENCE_S when the host leaves this CPU at full speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        for i in range(3000):
            k = (i % 1009, i % 7)
            d[k] = d.get(k, 0) + i * 3 // 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _limit_op():
    resource.setrlimit(resource.RLIMIT_AS, (OP_ADDRESS_SPACE, OP_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (OP_CPU_SECONDS, OP_CPU_SECONDS))


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, env, out_path, err_path):
    """Run argv to completion, probing the CPU's speed meanwhile.

    Returns (time at reference speed, scale, max RSS in MB, exit code):
    scale converts the op's own clock readings to reference speed, and the
    RSS comes from the child's own rusage.
    """
    probes = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                preexec_fn=_limit_op)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                    probes.append(probe())
            finally:
                os.close(pidfd)
            gross = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    net = gross - sum(probes)
    speed = REFERENCE_S / statistics.mean(probes or [probe()])
    return net * speed, speed * net / gross, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env, workdir):
    """Median time for a fresh interpreter to import schouten.cli.  One
    untimed import first writes the bytecode cache, which an installed
    package ships."""
    argv = [sys.executable, "-c", "import schouten.cli"]
    out, err = os.path.join(workdir, "setup.out"), os.path.join(workdir, "setup.err")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t, _, _, rc = spawn(argv, env, out, err)
        if rc != 0:
            raise RuntimeError("importing schouten.cli failed: exit %d" % rc)
        if i:
            times.append(t)
    return statistics.median(times)


class Runner:
    """Runs passes over the ops of one workload and checks every result."""

    def __init__(self, ops, workdir):
        self.ops = ops
        self.workdir = workdir
        self.env = _child_env()
        self.scales = []
        self.attempted = 0
        self.failures = []
        self.verdicts = {}
        self.spans = []

    def _check(self, op, rc, out_path):
        try:
            with open(op.output or out_path, "rb") as f:
                data = f.read()
        except OSError as e:
            return "no output: %s" % e
        key = (op.id, rc, data)
        if key not in self.verdicts:
            self.verdicts[key] = op.check(rc, data)
        return self.verdicts[key]

    def run_pass(self, traced):
        """One pass over every op; returns {op id: (time, rss, spans,
        scale)}."""
        results = {}
        out = os.path.join(self.workdir, "op.out")
        err = os.path.join(self.workdir, "op.err")
        spans_path = os.path.join(self.workdir, "spans.json")
        for op in self.ops:
            if traced:
                argv = [sys.executable, TRACED_CLI, spans_path, op.id] + op.argv
            else:
                argv = [sys.executable, "-m", "schouten.cli"] + op.argv
            if op.output and os.path.exists(op.output):
                os.unlink(op.output)
            t, scale, rss, rc = spawn(argv, self.env, out, err)
            self.scales.append(scale)
            self.attempted += 1
            reason = self._check(op, rc, out)
            if reason is not None:
                with open(err, errors="replace") as f:
                    tail = f.read()[-400:]
                self.failures.append("%s: %s %s" % (op.id, reason, tail.strip()))
            spans = None
            if traced:
                # an op killed by a limit writes no spans
                spans = []
                if os.path.exists(spans_path):
                    with open(spans_path) as f:
                        spans = json.load(f)
                    os.unlink(spans_path)
                self.spans.extend(spans)
            results[op.id] = (t, rss, spans, scale)
        return results


def end_to_end(passes):
    """wall_s, slowest_op_s, peak_rss_mb from per-op medians over passes."""
    ops = passes[0].keys()
    walls = {op: statistics.median(p[op][0] for p in passes) for op in ops}
    rss = {op: statistics.median(p[op][1] for p in passes) for op in ops}
    return sum(walls.values()), max(walls.values()), max(rss.values())


def layer_split(results):
    """Per-layer self times and counts of one traced pass."""
    times, counts = {}, {}
    overhead = 0.0
    for wall, _, spans, scale in results.values():
        covered = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        library = 0.0
        for s in spans:
            self_time = (s["end"] - s["start"] - covered.get(s["id"], 0.0)) * scale
            times[s["name"]] = times.get(s["name"], 0.0) + self_time
            if s["name"] != "cli.main":
                library += self_time
            for k, v in s.get("counts", {}).items():
                counts[k] = counts.get(k, 0) + v
        overhead += wall - library
    metrics = {name: times.get(span, 0.0) for name, span in SELF_TIMES.items()}
    metrics.update((name, counts.get(name, 0)) for name in COUNTS)
    metrics["cli.overhead_s"] = overhead
    return metrics


def per_layer(untraced, traced):
    """Median per-layer split over the traced passes, and a problem for
    each count that differs between traced passes."""
    splits = [layer_split(p) for p in traced]
    out, problems = {}, []
    for name in list(SELF_TIMES) + ["cli.overhead_s"]:
        out[name] = (statistics.median(s[name] for s in splits), "s")
    for name in COUNTS:
        values = [s[name] for s in splits]
        out[name] = (values[0], "count")
        if len(set(values)) > 1:
            problems.append("count %s differs between traced passes: %s" % (name, values))
    out["trace.overhead_s"] = (end_to_end(traced)[0] - end_to_end(untraced)[0], "s")
    return out, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "schouten", "cli.py")):
        sys.stderr.write("no schouten sources under %s; run from a checkout of the "
                         "repository\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    # one CPU for this process and every op, so that the probes measure
    # the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(ops, workdir)
        setup_s = measure_setup(runner.env, workdir)

        # trace 1: traced, untraced, traced, then alternating
        schedule = [True, False, True] if args.trace else [False]
        untraced, traced = [], []
        traced_pass = False
        t0 = time.perf_counter()
        while True:
            traced_pass = schedule.pop(0) if schedule else args.trace and not traced_pass
            (traced if traced_pass else untraced).append(runner.run_pass(traced_pass))
            done = len(untraced) + len(traced)
            if not schedule and (time.perf_counter() - t0) * (done + 1) / done > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(runner.failures)
    if args.trace:
        metrics, unstable = per_layer(untraced, traced)
        problems.extend(unstable)
        with open(os.path.join(BUILD, "trace-%s.json" % args.workload), "w") as f:
            json.dump(runner.spans, f)
    else:
        wall, slowest, rss = end_to_end(untraced)
        metrics = {"wall_s": (wall, "s"), "slowest_op_s": (slowest, "s"),
                   "peak_rss_mb": (rss, "MB"), "setup_s": (setup_s, "s")}

    failed = len(runner.failures)
    sys.stderr.write("%s seed %d: %d passes, %d ops, %d failed, ops_failed_ratio %.4f, "
                     "median time scale %.3f\n"
                     % (args.workload, args.seed, len(untraced) + len(traced),
                        runner.attempted, failed, failed / runner.attempted,
                        statistics.median(runner.scales)))
    for p in problems:
        sys.stderr.write("FAILED %s\n" % p)
    result = {"correct": not problems, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
