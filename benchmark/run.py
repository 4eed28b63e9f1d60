#!/usr/bin/env python3
"""End-to-end benchmark of DistillSim's paper sweeps.

Builds ldis_bench (benchmark/ldis_bench.cc) in Release, runs sweeps
through it, checks every result cell against the direct-engine oracle
and prints every metric by name and unit. The last stdout line of a
single-workload run is the result object
{"correct", "attempted", "failed", "metrics"}.

  python3 benchmark/run.py --workload fig06 --seed 3 --seconds 14 --trace 0
      one workload, measured for --seconds (end-to-end metrics), or
      with --trace 1 its traced layer pass (per-layer metrics)
  python3 benchmark/run.py [--rounds 5] [--trace 0]
      all workloads, interleaved round by round, then the traced
      layer pass of each (skipped with --trace 0)
  python3 benchmark/run.py --agreement     two interleaved sets, A vs B
  python3 benchmark/run.py --smoke         <=1M instructions, 1 round, trace
  python3 benchmark/run.py --regen-expected
      rewrite benchmark/expected/ (seeds 1 and 2) from the direct engine

Every inherited LDIS_* variable is dropped and LDIS_PROGRESS=0 is set.
Build output, oracle caches, spans and reports go to build-bench/.
See benchmark/README.md for the metrics and workloads.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "ldis_bench"
EXPECTED = HERE / "expected"
GOLDEN_SEEDS = (1, 2)

# A rep is one ldis_bench process running the sweep once. A measured
# run repeats reps until --seconds have passed, and never takes fewer
# than MIN_REPS, so every reported value is a median.
MIN_REPS = 3
# Every ldis_bench call of a single-workload run must end this many
# seconds after the build, so the run stays under its 180 s limit.
RUN_BUDGET_S = 165
# Untraced serial reps whose median wall the traced pass is compared
# against (tracing.overhead_frac); --smoke takes one.
SERIAL_REFS = 3
SMOKE_INSTRUCTIONS = 1_000_000

# The host this benchmark runs on is shared: its speed drifts by up to
# 1.7x over minutes, which no median over a 14 s run can absorb. So
# every measured rep is bracketed by two runs of `ldis_bench
# --calibrate` (a fixed kernel, no simulator code, whose work the
# rep's J threads split), and its times are reported as
#     measured x (CALIB_REF_S / J) / mean(kernel before, kernel after),
# i.e. in seconds of a host that runs J threads at full reference
# speed, one thread taking CALIB_REF_S for the kernel (about its time
# on the 4-vCPU Xeon the benchmark was built on). Reports keep the raw
# times and the kernel times too.
CALIB_REF_S = 0.06
NORMALIZED = ("wall_s", "cpu_s", "setup_s")

# Agreement mode's absolute allowance for peak RSS: on a small
# footprint (ipc), allocator arenas can shift the peak by more than a
# share of the median.
RSS_FLOOR_MB = 32.0


@dataclasses.dataclass(frozen=True)
class Workload:
    sweep: str         # ldis_bench --sweep
    instructions: int  # per benchmark (per member on mix)
    serial: bool = False  # one worker instead of nproc
    warm: bool = False    # streams served by a primed LDIS_TRACE_CACHE


# Why each exists: benchmark/README.md and BENCHMARK.json. The fig06
# variants share one length so that they share one set of goldens.
WORKLOADS = {
    "fig06": Workload("fig06", 2_000_000),
    "fig06-serial": Workload("fig06", 2_000_000, serial=True),
    "fig06-warm": Workload("fig06", 2_000_000, warm=True),
    "allcfg": Workload("allcfg", 2_000_000),
    "mix": Workload("mix", 500_000),
    "ipc": Workload("ipc", 4_000_000),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- stats

def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def round_order(names, r):
    """Workload order of round r: reversed on every other round."""
    return list(names) if r % 2 == 0 else list(reversed(names))


def agrees(metric, a, b, bound):
    """True when medians a and b differ by at most the metric's bound
    (a share of a; peak RSS also gets RSS_FLOOR_MB)."""
    allowed = bound * abs(a)
    if metric == "peak_rss_mb":
        allowed = max(allowed, RSS_FLOOR_MB)
    return abs(b - a) <= allowed


def normalize(out, calib_s):
    """Add the host-normalized times of one rep (see CALIB_REF_S)."""
    out["calib_s"] = calib_s
    scale = CALIB_REF_S / out["jobs"] / calib_s
    out["norm"] = {m: out[m] * scale for m in NORMALIZED}
    return out


def value(out, metric):
    """A rep's value of an end-to-end metric: normalized if a time."""
    return out["norm"][metric] if metric in NORMALIZED else out[metric]


def check_cells(expected, got):
    """(attempted, failed): every expected cell must be present with
    the same digest, and no unexpected cell may appear."""
    failed = sum(1 for k, v in expected.items() if got.get(k) != v)
    failed += sum(1 for k in got if k not in expected)
    return len(expected), failed


# ---------------------------------------------------------------- spans

def self_times(spans):
    """Span id -> self time: its duration minus the part of it that its
    children cover. Interval children count as the union of their
    intervals within the parent; duration-only children (parts of a
    serial gang walk) count in full."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            kids[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = sum(c["dur"] for c in kids[s["id"]] if "start" not in c)
        if "start" in s:
            ivals = sorted((max(c["start"], s["start"]),
                            min(c["end"], s["end"]))
                           for c in kids[s["id"]] if "start" in c)
            lo = hi = None
            for a, b in ivals:
                if b <= a:
                    continue
                if hi is None or a > hi:
                    covered += 0.0 if hi is None else hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            covered += 0.0 if hi is None else hi - lo
        out[s["id"]] = max(0.0, s["dur"] - covered)
    return out


def span_key(name):
    """Table row of a span: per-benchmark spans collapse to one row."""
    head, sep, _ = name.partition(":")
    return head + ":*" if sep else name


def span_layer(name):
    if name.startswith("probe."):
        return "probe"
    if ":" in name:
        return "sweep"
    return name.split(".")[0]


def layer_table(spans):
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[span_key(s["name"])]
        row[0] += 1
        row[1] += s["dur"]
        row[2] += selfs[s["id"]]
    lines = ["%-8s %-22s %6s %10s %10s" % ("layer", "span", "count",
                                           "total_s", "self_s")]
    for key in sorted(rows, key=lambda k: (span_layer(k), k)):
        n, total, own = rows[key]
        lines.append("%-8s %-22s %6d %10.4f %10.4f"
                     % (span_layer(key), key, n, total, own))
    return "\n".join(lines)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (see README.md)."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def tot(name):
        return sum(s["dur"] for s in by[name])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0.0) for s in by[name])

    root = next(s["id"] for s in spans if s["parent"] < 0)
    m = {}
    m["sweep.traced_s"] = sum(s["dur"] for s in spans
                              if s["parent"] == root
                              and span_layer(s["name"]) == "sweep")
    m["trace.gen_s"] = tot("probe.gen")
    m["trace.accesses"] = attr("probe.gen", "accesses")
    m["trace.gen_ns_per_access"] = 1e9 * m["trace.gen_s"] / m["trace.accesses"]

    m["frontend.record_s"] = tot("frontend.record")
    m["frontend.l1_encode_s"] = m["frontend.record_s"] - m["trace.gen_s"]
    m["frontend.record_ns_per_inst"] = (
        1e9 * m["frontend.record_s"] / attr("frontend.record", "instructions"))

    events = attr("probe.decode", "events")
    packed = attr("probe.decode", "bytes")
    m["stream.events"] = events
    m["stream.bytes_per_event"] = packed / events
    m["stream.resident_mb"] = packed / 2**20
    m["stream.decode_ns_per_event"] = 1e9 * tot("probe.decode") / events
    m["stream.write_mb_per_s"] = (attr("probe.write", "bytes") / 2**20
                                  / tot("probe.write"))
    m["stream.read_mb_per_s"] = (attr("probe.read", "bytes") / 2**20
                                 / tot("probe.read"))
    m["stream.load_s"] = tot("stream.load")

    m["gang.walk_s"] = tot("gang.walk")
    m["gang.decode_s"] = tot("gang.decode")
    m["gang.slotmap_s"] = m["gang.decode_s"] - tot("probe.decode")
    lanes = [n for n in by if n.startswith("l2.")]
    m["gang.lane_s"] = sum(tot(n) for n in lanes)
    m["gang.events_x_configs_per_s"] = sum(
        s["attrs"]["events"] * s["attrs"]["configs"]
        for s in by["gang.walk"]) / m["gang.walk_s"]
    for n in lanes:
        m[n + ".accesses"] = attr(n, "accesses")
        m[n + ".ns_per_access"] = 1e9 * tot(n) / m[n + ".accesses"]

    for n in [n for n in by if n.startswith("cpu.")]:
        m[n + ".ns_per_inst"] = 1e9 * tot(n) / attr(n, "instructions")
    if by["mix.compose"]:
        m["mix.compose_s"] = tot("mix.compose")
        m["mix.composed_events"] = attr("mix.compose", "events")
        m["mix.compose_ns_per_event"] = (1e9 * m["mix.compose_s"]
                                         / m["mix.composed_events"])
    return m


def runner_metrics(rep):
    return {
        "runner.jobs": rep["jobs"],
        "runner.idle_frac": 1.0 - rep["cpu_s"] / (rep["wall_s"] * rep["jobs"]),
        "runner.critical_job_s": rep["critical_job_s"],
        "runner.critical_frac": rep["critical_job_s"] / rep["wall_s"],
    }


# ---------------------------------------------------------------- host

def hermetic_env():
    """os.environ without LDIS_* (returned too), plus LDIS_PROGRESS=0."""
    stripped = sorted(k for k in os.environ if k.startswith("LDIS_"))
    env = {k: v for k, v in os.environ.items() if k not in stripped}
    env["LDIS_PROGRESS"] = "0"
    return env, stripped


def nproc():
    return len(os.sched_getaffinity(0))


def fingerprint():
    fp = {"nproc": nproc(), "cpu_model": "unknown",
          "kernel": platform.release(), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                fp["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    cache_file = BUILD / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            key, sep, val = line.partition("=")
            if sep:
                cache[key.split(":")[0]] = val
    fp["build_type"] = cache.get("CMAKE_BUILD_TYPE", "unknown")
    fp["compiler"] = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        ident = [l.split('"')[1] for l in text.splitlines()
                 if l.startswith(("set(CMAKE_CXX_COMPILER_ID ",
                                  "set(CMAKE_CXX_COMPILER_VERSION "))]
        fp["compiler"] = " ".join(ident) or fp["compiler"]
    fp["git_rev"] = "unknown"
    if (ROOT / ".git").exists():
        try:
            fp["git_rev"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return fp


def build():
    """Configure once and build ldis_bench; all output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Configure again next time rather than build a half-
            # configured tree.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "ldis_bench",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# ---------------------------------------------------------------- runs

class Bench:
    def __init__(self, env, smoke=False, deadline=None):
        self.env = env
        self.smoke = smoke
        self.deadline = deadline  # time.monotonic() limit, or None

    def length(self, w):
        if self.smoke:
            return min(w.instructions, SMOKE_INSTRUCTIONS)
        return w.instructions

    def env_for(self, w):
        env = dict(self.env)
        if w.warm:
            env["LDIS_TRACE_CACHE"] = str(BUILD / "trace-cache")
        return env

    def call(self, args, env=None):
        timeout = None
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        p = subprocess.run([str(BINARY), *map(str, args)],
                           env=env or self.env, cwd=ROOT,
                           capture_output=True, text=True, timeout=timeout)
        if p.returncode != 0:
            raise BenchError("ldis_bench %s failed (%d): %s"
                             % (" ".join(map(str, args)), p.returncode,
                                p.stderr.strip()[-2000:]))
        return json.loads(p.stdout.strip().splitlines()[-1])

    def common(self, w, seed):
        return ["--sweep", w.sweep, "--seed", seed,
                "--instructions", self.length(w)]

    def jobs(self, w):
        return 1 if w.serial else nproc()

    def rep(self, w, seed, jobs=None):
        out = self.call(self.common(w, seed) + ["--jobs", jobs or self.jobs(w)],
                        self.env_for(w))
        if w.warm and out["disk_cache_cells"] != len(out["cells"]):
            raise BenchError("fig06-warm rep missed the stream cache")
        return out

    def calibrate(self, jobs):
        return self.call(["--calibrate", "--jobs", jobs])["calib_s"]

    def timed_reps(self, w, seed, more, jobs=None):
        """Reps while more(reps_so_far), each between two kernel runs
        and normalized by their mean."""
        jobs = jobs or self.jobs(w)
        before = self.calibrate(jobs)
        outs = []
        while more(outs):
            out = self.rep(w, seed, jobs)
            after = self.calibrate(jobs)
            outs.append(normalize(out, (before + after) / 2))
            before = after
        return outs

    def prepare(self, w, seed):
        """Untimed: a fresh stream cache primed by one rep (warm), or
        one warm-up rep (others)."""
        if w.warm:
            shutil.rmtree(BUILD / "trace-cache", ignore_errors=True)
            (BUILD / "trace-cache").mkdir(parents=True)
            return self.call(self.common(w, seed) + ["--jobs", self.jobs(w)],
                             self.env_for(w))
        return self.rep(w, seed)

    def expected(self, w, seed):
        """Golden digests: committed for GOLDEN_SEEDS at the default
        length, otherwise computed by the direct engine and cached."""
        n = self.length(w)
        committed = EXPECTED / ("%s.s%d.json" % (w.sweep, seed))
        if committed.exists():
            d = json.loads(committed.read_text())
            if d["instructions"] == n:
                return d["cells"]
        path = BUILD / "expected" / ("%s.s%d.n%d.json" % (w.sweep, seed, n))
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            self.call(self.common(w, seed) + ["--jobs", nproc(),
                                              "--regen-expected", tmp])
            tmp.replace(path)
        return json.loads(path.read_text())["cells"]

    def trace(self, name, seed):
        """Traced layer pass + the untraced reps it is compared to.
        Returns (per-layer metrics, layer table, checked outputs)."""
        w = WORKLOADS[name]
        self.prepare(w, seed)
        e2e = self.rep(w, seed)
        # The untraced reference of the (serial) traced pass; both
        # sides are host-normalized, since they run at different times.
        serial = self.timed_reps(w, seed,
                                 lambda outs: len(outs) < (
                                     1 if self.smoke else SERIAL_REFS),
                                 jobs=1)
        serial_wall = statistics.median(value(o, "wall_s") for o in serial)
        tdir = BUILD / "trace"
        (tdir / "tmp").mkdir(parents=True, exist_ok=True)
        spans_path = tdir / ("%s.s%d.spans.json" % (name, seed))
        before = self.calibrate(1)
        traced = self.call(self.common(w, seed)
                           + ["--trace", spans_path, "--tmp-dir", tdir / "tmp"],
                           self.env_for(w))
        after = self.calibrate(1)
        spans = json.loads(spans_path.read_text())
        m = layer_metrics(spans)
        m.update(runner_metrics(e2e))
        m["tracing.traced_norm_s"] = (m["sweep.traced_s"] * CALIB_REF_S
                                      / ((before + after) / 2))
        m["tracing.serial_norm_s"] = serial_wall
        m["tracing.overhead_frac"] = (m["tracing.traced_norm_s"]
                                      - serial_wall) / serial_wall
        table = layer_table(spans)
        (tdir / ("%s.s%d.layers.txt" % (name, seed))).write_text(table + "\n")
        return m, table, serial + [traced, e2e]


def verify(bench, w, seed, outputs):
    expected = bench.expected(w, seed)
    attempted = failed = 0
    for out in outputs:
        a, f = check_cells(expected, out["cells"])
        attempted += a
        failed += f + int(out.get("probe_errors", 0))
    return attempted, failed


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def paper_gap(w, out):
    """(|measured - paper| in pp, printable line); (None, "") on mix,
    which has no paper figure."""
    if out["paper_value"] is None:
        return None, ""
    gap = abs(out["paper_value"] - out["paper_target"])
    claim = ("gmean IPC gain" if w.sweep == "ipc"
             else "LDIS-MT-RC avg MPKI reduction")
    return gap, ("  paper_gap_pp %.3f (%s %.2f%%, paper %.1f%%)"
                 % (gap, claim, out["paper_value"], out["paper_target"]))


def print_metric(name, unit, s, raw=None):
    print("  %-14s %12.6g %-3s Q1 %-10.6g Q3 %-10.6g n=%d%s"
          % (name, s["median"], unit, s["q1"], s["q3"], s["n"],
             "" if raw is None else "  (raw median %.6g)" % raw))


def summarize_reps(outputs, metrics):
    """{metric: summary} over reps; times also carry their raw median."""
    out = {}
    for d in metrics:
        s = summarize([value(o, d["name"]) for o in outputs])
        if d["name"] in NORMALIZED:
            s["raw_median"] = statistics.median(o[d["name"]] for o in outputs)
        out[d["name"]] = s
    return out


def print_summary(metrics, summary):
    for d in metrics:
        s = summary[d["name"]]
        print_metric(d["name"], d["unit"], s, s.get("raw_median"))


def write_report(name, report):
    path = BUILD / "reports" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def run_one(args, env, stripped):
    """Single-workload mode: one workload, one seed."""
    spec = benchmark_spec()
    w = WORKLOADS[args.workload]
    bench = Bench(env, deadline=time.monotonic() + RUN_BUDGET_S)
    report = {"workload": args.workload, "seed": args.seed,
              "instructions": w.instructions, "trace": args.trace,
              "stripped_env": stripped, "host": fingerprint()}
    if args.trace:
        m, table, outputs = bench.trace(args.workload, args.seed)
        print(table)
        wanted = spec["per_layer"]
        values = {d["name"]: {"value": m[d["name"]]} for d in wanted}
        for d in wanted:
            print("  %-30s %14.6g %s" % (d["name"], m[d["name"]], d["unit"]))
        report["layers"] = m
    else:
        bench.prepare(w, args.seed)
        t0 = time.monotonic()
        outputs = bench.timed_reps(
            w, args.seed, lambda outs: len(outs) < MIN_REPS
            or time.monotonic() - t0 < args.seconds)
        wanted = spec["end_to_end"]
        report["summary"] = summarize_reps(outputs, wanted)
        values = {d["name"]: {"value": report["summary"][d["name"]]["median"]}
                  for d in wanted}
        report["reps"] = [{k: v for k, v in o.items() if k != "cells"}
                          for o in outputs]
        print_summary(wanted, report["summary"])
        report["paper_gap_pp"], line = paper_gap(w, outputs[0])
        if line:
            print(line)
    for d in wanted:
        values[d["name"]]["unit"] = d["unit"]
    attempted, failed = verify(bench, w, args.seed, outputs)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": values}
    report["result"] = result
    write_report("%s.s%d.t%d.json" % (args.workload, args.seed, args.trace),
                 report)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_rounds(args, env, stripped):
    """Rounds mode: every workload interleaved; --agreement runs two
    sets A and B, alternating which goes first each round."""
    spec = benchmark_spec()
    bench = Bench(env, smoke=args.smoke)
    names = list(WORKLOADS)
    seed = args.seed
    rounds = 1 if args.smoke else args.rounds
    sets = ["A", "B"] if args.agreement else ["A"]
    samples = {s: {n: [] for n in names} for s in sets}
    attempted = failed = 0

    def checked(name, outs):
        nonlocal attempted, failed
        a, f = verify(bench, WORKLOADS[name], seed, outs)
        attempted += a
        failed += f

    for name in names:
        checked(name, [bench.prepare(WORKLOADS[name], seed)])
    for r in range(rounds):
        order = sets if r % 2 == 0 else list(reversed(sets))
        for s in order:
            for name in round_order(names, r):
                out = bench.timed_reps(WORKLOADS[name], seed,
                                       lambda outs: not outs)[0]
                checked(name, [out])
                samples[s][name].append(out)
        log("round %d/%d done" % (r + 1, rounds))

    metrics = spec["end_to_end"]
    summary = {s: {n: summarize_reps(samples[s][n], metrics) for n in names}
               for s in sets}
    for name in names:
        print("%s (seed %d, %d instructions):"
              % (name, seed, bench.length(WORKLOADS[name])))
        print_summary(metrics, summary["A"][name])
        line = paper_gap(WORKLOADS[name], samples["A"][name][0])[1]
        if line:
            print(line)

    verdicts = []
    if args.agreement:
        print("\n%-13s %-12s %12s %12s %8s %6s  %s"
              % ("workload", "metric", "median A", "median B", "diff",
                 "bound", "verdict"))
        for name in names:
            for d in metrics:
                a = summary["A"][name][d["name"]]["median"]
                b = summary["B"][name][d["name"]]["median"]
                ok = agrees(d["name"], a, b, d["bound"])
                verdicts.append(ok)
                print("%-13s %-12s %12.6g %12.6g %+7.2f%% %5.0f%%  %s"
                      % (name, d["name"], a, b, 100 * (b - a) / a,
                         100 * d["bound"], "PASS" if ok else "FAIL"))

    layers = {}
    # The default rounds invocation ends with the traced pass.
    if args.smoke or (args.trace if args.trace is not None
                      else not args.agreement):
        for name in names:
            m, table, outs = bench.trace(name, seed)
            checked(name, outs)
            layers[name] = m
            print("\n%s layer pass (tracing overhead %+.1f%%):\n%s"
                  % (name, 100 * m["tracing.overhead_frac"], table))

    report = {"mode": "agreement" if args.agreement else "rounds",
              "seed": seed, "rounds": rounds, "stripped_env": stripped,
              "host": fingerprint(), "summary": summary, "layers": layers,
              "attempted": attempted, "failed": failed,
              "samples": {s: {n: [{k: v for k, v in o.items() if k != "cells"}
                                  for o in samples[s][n]] for n in names}
                          for s in sets}}
    path = write_report("smoke.json" if args.smoke else
                        "agreement.json" if args.agreement else "rounds.json",
                        report)
    print("\ncells checked %d, failed %d (failed_frac %.4g); report %s"
          % (attempted, failed, failed / max(attempted, 1), path))
    return 0 if failed == 0 and all(verdicts) else 1


def regen_expected(env):
    bench = Bench(env)
    sweeps = {}
    for w in WORKLOADS.values():
        assert sweeps.setdefault(w.sweep, w.instructions) == w.instructions
    EXPECTED.mkdir(exist_ok=True)
    for sweep, n in sweeps.items():
        for seed in GOLDEN_SEEDS:
            path = EXPECTED / ("%s.s%d.json" % (sweep, seed))
            bench.call(["--sweep", sweep, "--seed", seed, "--instructions", n,
                        "--jobs", nproc(), "--regen-expected", path])
            # One cell per line, so a changed cell is a one-line diff.
            path.write_text(json.dumps(json.loads(path.read_text()),
                                       indent=1) + "\n")
            log("wrote %s" % path)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--trace", type=int, nargs="?", const=1,
                   choices=[0, 1])
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--agreement", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--regen-expected", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.rounds < 1 or args.seconds < 0:
        p.error("--seed, --rounds and --seconds must be non-negative")

    env, stripped = hermetic_env()
    if stripped:
        log("run.py: dropped inherited %s" % ", ".join(stripped))
    try:
        build()
        if args.regen_expected:
            return regen_expected(env)
        if args.workload:
            args.trace = args.trace or 0
            return run_one(args, env, stripped)
        return run_rounds(args, env, stripped)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
