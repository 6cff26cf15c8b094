#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer costs of `concat`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --quick      # minimum size

Run it from the root of a checkout.  It builds `concat`, the layer
probe and `launch` from source into .bench_build/, prepares the workload's inputs
from the seed, repeats the workload in fresh processes for --seconds,
checks every trial's output against a reference, and prints one JSON
object as its last line.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics and writes a
Chrome trace of the benchmark's own spans.  README.md explains both.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CONCAT = BUILD / "repo" / "tools" / "concat"
PROBE = BUILD / "layer_probe"
LAUNCH = BUILD / "launch"

DEFAULT_SEED = 20010701
# Every run must end within 180 s; no trial starts after this.
RUN_BUDGET_S = 140.0
PROCESS_TIMEOUT_S = 60.0

# Sizes are chosen so one trial lasts about a second (kill: a few),
# well above the scheduler noise of a shared host.
WORKLOADS = {
    "campaign-sparse": dict(
        kind="campaign", subject="sortable", cases=4, jobs=2, store=True,
        full=["mutation"]),
    "campaign-dense-isolate": dict(
        kind="campaign", subject="coblist", cases=32, jobs=2, isolate=True,
        full=["mutation", "sandbox"]),
    "dispatch-sparse": dict(
        kind="dispatch", subject="sortable", cases=4, workers=2,
        full=["mutation", "serve"]),
    "kill-sortable": dict(
        kind="kill", subject="sortable", cases=1, model=True, budget_states=1024,
        full=["kill"]),
}
QUICK = dict(cases=1, budget_states=256)
# Every run pools two seeds, the one given and this offset from it:
# what an item costs follows the inputs the seed draws (coverage
# density, a kill search's depth mix), and two seeds halve that spread
# at the same run length.
SECOND_SEED_OFFSET = 1000003

# Which end-to-end metric each per-layer metric should move, on which
# workloads; "steady" lists the workloads where it is predicted not to
# move.  Keys are per-layer metric names of BENCHMARK.json.
ALL = list(WORKLOADS)
SETUP = dict(moves="setup_s", on=ALL, steady=[])
LEDGER = {
    "tfm.enumerate_ms": SETUP,
    "driver.generate_ms": SETUP,
    "driver.golden_ms": SETUP,
    "driver.case_us_p50": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "driver.case_us_p99": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "driver.ns_per_call": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "driver.method_calls": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "bit.invariant_checks": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "bit.assertions_checked": dict(moves="items_per_s", on=["campaign-sparse", "kill-sortable"], steady=[]),
    "reflect.invoke_ns": dict(moves="items_per_s", on=["campaign-sparse"], steady=[]),
    "oracle.classify_us": dict(moves="items_per_s", on=["campaign-dense-isolate", "kill-sortable"], steady=[]),
    "oracle.suite_compares": dict(moves="items_per_s", on=["campaign-dense-isolate", "kill-sortable"], steady=[]),
    "model.lockstep_ms": dict(moves="items_per_s", on=["kill-sortable"],
                              steady=["campaign-sparse", "campaign-dense-isolate", "dispatch-sparse"]),
    "model.compares": dict(moves="items_per_s", on=["kill-sortable"],
                           steady=["campaign-sparse", "campaign-dense-isolate", "dispatch-sparse"]),
    "mutation.coverage_ms": SETUP,
    "mutation.prune_plan_ms": SETUP,
    **{name: dict(moves="items_per_s", on=["campaign-sparse", "campaign-dense-isolate"],
                  steady=["kill-sortable"])
       for name in ("mutation.eval_us_p50", "mutation.eval_us_p99",
                    "mutation.executed_pairs", "mutation.pruned_pairs",
                    "mutation.memoized_pairs", "mutation.memoized_calls",
                    "mutation.prune_ratio", "mutation.memo_ratio")},
    "campaign.pool_efficiency": dict(moves="items_per_s,cpu_ms_per_item", on=["campaign-sparse"], steady=[]),
    "campaign.steals": dict(moves="items_per_s,cpu_ms_per_item", on=["campaign-sparse"], steady=[]),
    "campaign.store_append_us": dict(moves="items_per_s", on=["campaign-sparse"], steady=[]),
    "campaign.store_load_ms": dict(moves="setup_s", on=["kill-sortable"], steady=[]),
    **{name: dict(moves="items_per_s,cpu_ms_per_item", on=["campaign-dense-isolate"], steady=[])
       for name in ("sandbox.call_us_p50", "sandbox.call_us_p99",
                    "sandbox.overhead_us", "sandbox.respawns")},
    "serve.hello_ms": dict(moves="setup_s", on=["dispatch-sparse"], steady=[]),
    **{name: dict(moves="items_per_s", on=["dispatch-sparse"], steady=[])
       for name in ("wire.encode_us", "wire.decode_us", "wire.bytes_per_item",
                    "serve.item_rtt_us_p50", "serve.item_rtt_us_p99")},
    **{name: dict(moves="items_per_s", on=["kill-sortable"], steady=[])
       for name in ("kill.search_ms_p50", "kill.search_ms_max", "kill.states",
                    "kill.candidates", "kill.verified_ratio", "kill.shrink_ms",
                    "kill.store_rewrite_ms")},
    "obs.trace_overhead_frac": dict(moves="items_per_s (traced run)", on=ALL, steady=[]),
}

FATE_LINE = re.compile(rb"^(\S+::\S+)\s+(killed|alive|equivalent|not-covered|gave-up)\b(.*)$", re.M)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "ab") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), *generator,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=out, stderr=out)
            if rc != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed (see {log})")
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "--target", "concat", "layer_probe", "launch",
             "-j", str(os.cpu_count() or 1)], stdout=out, stderr=out)
    if rc != 0:
        fail(f"build failed (see {log})")


def stamp():
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")

    def cached(key):
        m = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cached("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    if not commit:
        # A checkout without git history: name the tree by its content.
        digest = hashlib.sha256()
        for sub in ("CMakeLists.txt", "src", "tools", "examples"):
            path = ROOT / sub
            files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
            for f in files:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
        commit = "tree-" + digest.hexdigest()[:16]
    return dict(commit=commit, nproc=os.cpu_count(),
                build_type=cached("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
                compiler=version, loadavg=os.getloadavg()[0])


# ---------------------------------------------------------------- processes

class Proc:
    """A child process started through `launch`, which reports its CPU
    time and peak RSS (including its own reaped children, e.g. sandbox
    workers) without counting this interpreter's memory."""

    def __init__(self, cmd, stdout, stderr, timeout=PROCESS_TIMEOUT_S):
        self.usage, usage_w = os.pipe()
        try:
            self.popen = subprocess.Popen([str(c) for c in (LAUNCH, usage_w, *cmd)],
                                          stdout=stdout, stderr=stderr,
                                          stdin=subprocess.DEVNULL, pass_fds=(usage_w,))
        except BaseException:
            os.close(self.usage)
            raise
        finally:
            os.close(usage_w)
        self.timer = threading.Timer(timeout, self.popen.terminate)
        self.timer.start()
        self.rc = None

    def reap(self):
        self.popen.wait()
        self.timer.cancel()
        with os.fdopen(self.usage, "rb") as usage:
            report = usage.read().split()
        if len(report) == 3:
            self.rc = os.waitstatus_to_exitcode(int(report[0]))
            self.cpu_s = float(report[1])
            self.rss_mb = int(report[2]) / 1024.0
        else:  # launch itself failed
            self.rc = self.popen.returncode or 1
            self.cpu_s = self.rss_mb = 0.0
        self.end = time.perf_counter()
        return self

    def kill(self):
        if self.rc is None:
            self.popen.terminate()
            self.reap()


class Telemetry(threading.Thread):
    """Reads the program's --telemetry-out through a FIFO and stamps
    each line on arrival: the benchmark's view of when set-up ended."""

    def __init__(self, path):
        super().__init__(daemon=True)
        self.path = path
        os.mkfifo(path)
        self.lines = []
        self.start()

    def run(self):
        with open(self.path, "rb") as fifo:
            for line in fifo:
                self.lines.append((time.perf_counter(), line))

    def finish(self):
        # Release a reader still waiting for a writer that never came.
        try:
            os.close(os.open(self.path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        self.join(5)
        return [(t, json.loads(line)) for t, line in self.lines if line.strip()]


def first(events, name, default=None):
    return next((t for t, e in events if e.get("event") == name), default)


def last(events, name, default=None):
    times = [t for t, e in events if e.get("event") == name]
    return times[-1] if times else default


def stat(stderr, key, default=0):
    m = re.search(rf"\b{key}=(\d+)", stderr)
    return int(m.group(1)) if m else default


def fates(report):
    """Mutant id -> fate and reason, from a campaign or kill report."""
    return {m.group(1): m.group(2) + m.group(3).strip().split(b"  ")[0]
            for m in FATE_LINE.finditer(report)}


def differing(a, b):
    keys = set(a) | set(b)
    return sum(1 for k in keys if a.get(k) != b.get(k))


# ---------------------------------------------------------------- workloads

class Workload:
    """One workload's inputs, trials and correctness gates."""

    def __init__(self, name, seed, quick, tracing, work_dir):
        self.name = name
        self.spec = dict(WORKLOADS[name])
        if quick:
            self.spec["cases"] = QUICK["cases"]
            if "budget_states" in self.spec:
                self.spec["budget_states"] = QUICK["budget_states"]
        self.quick = quick
        self.tracing = tracing
        self.seeds = [seed, seed + SECOND_SEED_OFFSET]
        self.dir = work_dir
        self.spans = []  # harness spans: (name, start, end, parent index)
        self.trial_no = 0
        self.reference = {}  # seed -> in-process campaign report
        self.prekill = {}    # seed -> pre-kill result store
        self.expected = {}   # seed -> items gated per trial (mutants or survivors)

    def common(self, seed):
        return ["--seed", seed, "--cases", self.spec["cases"]]

    def span(self, name, start, end, parent=None):
        self.spans.append((name, start, end, parent))
        return len(self.spans) - 1

    def run_once(self, cmd, name):
        """One untimed run outside the measured trials; returns stdout."""
        out = self.dir / f"{name}.out"
        start = time.perf_counter()
        with open(out, "wb") as so, open(self.dir / f"{name}.err", "wb") as se:
            proc = Proc(cmd, so, se).reap()
        self.span(f"prepare: {name}", start, proc.end)
        if proc.rc != 0:
            fail(f"{name} failed (exit {proc.rc}): {(self.dir / f'{name}.err').read_text()[-2000:]}")
        return out.read_bytes()

    def prepare(self):
        s = self.spec
        for seed in self.seeds:
            if s["kind"] in ("campaign", "dispatch"):
                # In-process reference of the same campaign.
                self.reference[seed] = self.run_once(
                    [CONCAT, "campaign", s["subject"], "--jobs", "2", *self.common(seed)],
                    f"reference-{seed}")
                self.expected[seed] = len(fates(self.reference[seed]))
            # The pre-kill store: a --model campaign's result store.  The
            # traced run's kill probe needs one for every workload.
            if s["kind"] == "kill" or (self.tracing and seed == self.seeds[0]):
                store = self.dir / f"prekill-{seed}.jsonl"
                self.run_once([CONCAT, "campaign", s["subject"], "--model", "--jobs", "2",
                               "--resume", store, *self.common(seed)], f"prekill-{seed}")
                self.prekill[seed] = store
                if s["kind"] == "kill":
                    records = [json.loads(line) for line in store.read_text().splitlines()[1:]
                               if line.strip()]
                    self.expected[seed] = sum(1 for r in records if r.get("fate") == "alive")

    def trial(self, seed, traced):
        """One fresh process tree doing the workload once."""
        self.trial_no += 1
        d = self.dir / f"trial-{self.trial_no}"
        d.mkdir()
        extra = ["--trace-out", d / "trace.json", "--metrics-out", d / "metrics.json"] if traced else []
        t = getattr(self, f"trial_{self.spec['kind']}")(seed, d, extra)
        t.update(seed=seed, traced=traced)
        if traced:
            # The program's own trace of a kill pass runs to hundreds of
            # MB: stream the one sum needed out of it, then drop it.
            trace = d / "trace.json"
            if self.spec["kind"] == "kill" and trace.exists():
                t["search_us"] = kill_search_us(trace)
            trace.unlink(missing_ok=True)
        label = f"trial {self.trial_no} seed {seed}{' (traced)' if traced else ''}"
        parent = self.span(label, t["t0"], t["end"])
        if t["ready"] is not None:
            self.span("set-up", t["t0"], t["ready"], parent)
            self.span("items", t["ready"], t["end"], parent)
        return t

    @staticmethod
    def finish_trial(t, d, procs, events, ready, end):
        t.update(end=end, events=events, ready=ready,
                 rc=max(abs(p.rc) for p in procs),
                 cpu_s=sum(p.cpu_s for p in procs),
                 rss_mb=max(p.rss_mb for p in procs),
                 report=(d / "stdout").read_bytes(),
                 stderr=(d / "stderr").read_text(errors="replace"))
        if ready is not None:
            t["setup_s"] = ready - t["t0"]
            t["item_s"] = end - ready
        return t

    def trial_campaign(self, seed, d, extra):
        s = self.spec
        tel = Telemetry(d / "telemetry.fifo")
        cmd = [CONCAT, "campaign", s["subject"], *self.common(seed), "--jobs", s["jobs"],
               "--telemetry-out", tel.path, *extra]
        if s.get("isolate"):
            cmd.append("--isolate")
        if s.get("store"):
            cmd += ["--resume", d / "store.jsonl"]
        t = dict(t0=time.perf_counter())
        with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
            proc = Proc(cmd, so, se).reap()
        events = tel.finish()
        self.finish_trial(t, d, [proc], events, first(events, "campaign-start"), proc.end)
        t["items"] = t["checked"] = stat(t["stderr"], "executed")
        t["infra"] = stat(t["stderr"], "respawns")
        t["workers"] = s["jobs"]
        return t

    def trial_dispatch(self, seed, d, extra):
        s = self.spec
        tel = Telemetry(d / "telemetry.fifo")
        t = dict(t0=time.perf_counter())
        daemons = []
        try:
            ports = []
            for w in range(s["workers"]):
                with open(d / f"serve-{w}.err", "wb") as se:
                    daemons.append(Proc([CONCAT, "serve", "--listen", "0", "--once"],
                                        subprocess.PIPE, se))
                line = daemons[-1].popen.stdout.readline().decode()
                m = re.match(r"listening on port (\d+)", line)
                if not m:
                    fail(f"serve daemon did not start: {line!r}")
                ports.append(m.group(1))
            workers = ",".join(f"127.0.0.1:{p}" for p in ports)
            with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
                coordinator = Proc([CONCAT, "dispatch", s["subject"], *self.common(seed),
                                    "--workers", workers, "--resume", d / "store.jsonl",
                                    "--telemetry-out", tel.path, *extra], so, se).reap()
            for daemon in daemons:  # --once: each exits after the session
                daemon.reap()
        finally:
            for daemon in daemons:
                daemon.kill()
                daemon.popen.stdout.close()
        events = tel.finish()
        self.finish_trial(t, d, [coordinator, *daemons], events,
                          last(events, "worker-connect"), coordinator.end)
        t["items"] = t["checked"] = stat(t["stderr"], "executed")
        t["infra"] = (stat(t["stderr"], "redispatched") + stat(t["stderr"], "disconnects")
                      + (0 if f"workers={s['workers']}/{s['workers']}" in t["stderr"] else 1))
        t["workers"] = s["workers"]
        return t

    def trial_kill(self, seed, d, extra):
        s = self.spec
        # A fresh copy of the pre-kill store and an empty corpus each time.
        store = d / "store.jsonl"
        shutil.copyfile(self.prekill[seed], store)
        (d / "corpus").mkdir()
        tel = Telemetry(d / "telemetry.fifo")
        cmd = [CONCAT, "kill", s["subject"], "--alive", "--model", *self.common(seed),
               "--jobs", "1", "--resume", store, "--corpus", d / "corpus",
               "--budget-states", s["budget_states"], "--telemetry-out", tel.path, *extra]
        t = dict(t0=time.perf_counter())
        with open(d / "stdout", "wb") as so, open(d / "stderr", "wb") as se:
            proc = Proc(cmd, so, se).reap()
        events = tel.finish()
        self.finish_trial(t, d, [proc], events, first(events, "kill-run-start"), proc.end)
        start = next((e for _, e in events if e.get("event") == "kill-run-start"), {})
        end = next((e for _, e in events if e.get("event") == "kill-run-end"), {})
        # Throughput counts product states: per-survivor search cost
        # ranges from none to the whole state budget, and the seed moves
        # that mix, so survivors per second would measure the seed.
        t["items"] = stat(t["stderr"], "states")
        t["checked"] = start.get("survivors", 0)
        t["killed_after"] = end.get("killed_after")
        t["pass_s"] = (last(events, "kill-run-end", proc.end) - t["ready"]) if t["ready"] else None
        t["infra"] = 0
        return t

    def check(self, trials):
        """Applies every gate; returns (attempted, failed, problems)."""
        attempted = failed = 0
        problems = []
        base = {}
        for i, t in enumerate(trials):
            expected = self.expected[t["seed"]]
            attempted += expected
            if t["rc"] != 0 or t["ready"] is None:
                failed += expected
                problems.append(f"trial {i + 1}: exit {t['rc']}: {t['stderr'][-500:]}")
                continue
            # Every trial of a seed must reproduce that seed's first one.
            first_trial = base.setdefault(t["seed"], t)
            bad = t["infra"] + abs(expected - t["checked"])
            if t["report"] != first_trial["report"]:
                bad += max(1, differing(fates(t["report"]), fates(first_trial["report"])))
            if self.spec["kind"] == "kill":
                if (t["items"], t["killed_after"]) != (first_trial["items"], first_trial["killed_after"]):
                    bad += 1
            elif self.spec.get("isolate"):
                bad += differing(fates(t["report"]), fates(self.reference[t["seed"]]))
            elif t["report"] != self.reference[t["seed"]]:
                bad += max(1, differing(fates(t["report"]), fates(self.reference[t["seed"]])))
            if bad:
                problems.append(f"trial {i + 1}: {bad} item(s) failed a gate")
            failed += min(bad, expected)
        return attempted, failed, problems


def run_trials(w, seconds, quick, tracing, run_start):
    """Round-robin over the workload's seeds until `seconds` have passed.
    A traced run alternates untraced and traced rounds."""
    per_round = len(w.seeds)
    wanted = 2 * per_round  # at least two rounds, so every seed is repeated
    trials = []
    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(trials)
        traced = tracing and (k // per_round) % 2 == 1
        started = time.perf_counter()
        trials.append(w.trial(w.seeds[k % per_round], traced))
        longest = max(longest, time.perf_counter() - started)
        now = time.perf_counter()
        if len(trials) < wanted or len(trials) % per_round:
            continue
        if quick or now - measure_start >= seconds or now - run_start + longest > RUN_BUDGET_S:
            return trials


def interquartile_mean(values):
    """The mean of the middle half.  Like a median it ignores outlier
    trials, but when the host alternates between a fast and a slow state
    it moves with the mix instead of jumping from one state to the other."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def pooled(trials, value):
    """The interquartile mean over each seed's trials, then the mean over seeds."""
    by_seed = {}
    for t in trials:
        by_seed.setdefault(t["seed"], []).append(value(t))
    return statistics.fmean(interquartile_mean(v) for v in by_seed.values())


def items_per_s(t):
    return t["items"] / t["item_s"]


def end_to_end_metrics(untraced):
    return dict(
        items_per_s=pooled(untraced, items_per_s),
        setup_s=pooled(untraced, lambda t: t["setup_s"]),
        cpu_ms_per_item=pooled(untraced, lambda t: t["cpu_s"] * 1000.0 / t["items"]),
        peak_rss_mb=pooled(untraced, lambda t: t["rss_mb"]))


def pool_efficiency(t):
    """Serial sum of item time over (workers x item phase)."""
    item_ms = sum(e.get("wall_ms", 0.0) for _, e in t["events"]
                  if e.get("event") == "item-finish" and "item_seed" in e)
    return item_ms / (t["workers"] * t["item_s"] * 1000.0)


def kill_search_us(trace):
    """Total duration of the program's per-survivor `kill-search` spans
    (one Chrome-trace event per line, docs/FORMATS.md section 6)."""
    total = 0
    with open(trace, "rb") as lines:
        for line in lines:
            if b'"cat":"kill-search"' in line:
                m = re.search(rb'"dur":(\d+)', line)
                total += int(m.group(1)) if m else 0
    return total


def kill_efficiency(t):
    """A traced kill trial's search time over its pass (kill-run-start to
    kill-run-end, which leaves out writing the trace at exit)."""
    return t["search_us"] / (t["pass_s"] * 1e6)


def run_probe(w, seed, quick):
    """The layer probe over the workload's inputs: (metrics, mismatches, spans, start)."""
    s = w.spec
    scratch = w.dir / "probe"
    scratch.mkdir()
    cmd = [PROBE, "--subject", s["subject"], "--seed", seed, "--cases", s["cases"],
           "--kill-store", w.prekill[seed], "--scratch", scratch,
           "--trace", scratch / "trace.json"]
    if s.get("model"):
        cmd.append("--model")
    if "budget_states" in s:
        cmd += ["--budget-states", s["budget_states"]]
    if not quick:
        cmd += ["--full", ",".join(s["full"])]
    start = time.perf_counter()
    with open(scratch / "stdout", "wb") as so, open(scratch / "stderr", "wb") as se:
        probe = Proc(cmd, so, se).reap()
    w.span("layer probe", start, probe.end)
    lines = (scratch / "stdout").read_text().splitlines()
    if probe.rc not in (0, 1) or not lines:
        fail(f"layer probe failed: {(scratch / 'stderr').read_text()[-2000:]}")
    result = json.loads(lines[-1])
    spans = json.loads((scratch / "trace.json").read_text())["traceEvents"]
    return result["metrics"], result["mismatches"], spans, start


def layer_metrics(w, trials, quick):
    """Per-layer metrics: the probe's, plus those read off the trials."""
    ok = [t for t in trials if t["rc"] == 0 and t["ready"] is not None]
    untraced = [t for t in ok if not t["traced"]]
    traced = [t for t in ok if t["traced"]]
    values, mismatches, spans, start = run_probe(w, w.seeds[0], quick)
    if traced:
        values["obs.trace_overhead_frac"] = 1.0 - pooled(traced, items_per_s) / pooled(untraced, items_per_s)
    if w.spec["kind"] == "kill":
        if traced:
            values["campaign.pool_efficiency"] = statistics.median(kill_efficiency(t) for t in traced)
        values["campaign.steals"] = 0
    else:
        values["campaign.pool_efficiency"] = statistics.median(pool_efficiency(t) for t in untraced)
        values["campaign.steals"] = statistics.median(stat(t["stderr"], "steals") for t in untraced)
    return values, mismatches, spans, start


def write_trace(w, probe_spans, probe_start, run_start, path):
    """One Chrome trace: the harness's spans (pid 1), the probe's (pid 2)."""
    events = []
    for i, (name, t0, t1, parent) in enumerate(w.spans):
        args = {"span": f"h{i + 1}"}
        if parent is not None:
            args["parent"] = f"h{parent + 1}"
        events.append(dict(name=name, cat="harness", ph="X", ts=(t0 - run_start) * 1e6,
                           dur=(t1 - t0) * 1e6, pid=1, tid=0, args=args))
    offset = (probe_start - run_start) * 1e6
    events += [dict(e, ts=e["ts"] + offset) for e in probe_spans]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def layer_table(spans):
    """Per-layer self time and span count from the probe's spans."""
    by_id = {s["args"]["span"]: s for s in spans}
    child_time = {}
    for s in spans:
        parent = s["args"].get("parent")
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + s["dur"]
    table = {}
    for s in spans:
        row = table.setdefault(s["cat"], [0.0, 0])
        row[0] += s["dur"] - child_time.get(s["args"]["span"], 0.0)
        row[1] += 1
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimum size, fewest trials: the benchmark's own test")
    args = parser.parse_args()

    benchmark = ROOT / "BENCHMARK.json"
    if not benchmark.is_file():
        fail(f"{benchmark} not found")
    declared = json.loads(benchmark.read_text())
    build()
    print(f"stamp {json.dumps(stamp())}")

    work_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracing = bool(args.trace)
    w = Workload(args.workload, args.seed, args.quick, tracing, work_dir)
    run_start = time.perf_counter()
    w.prepare()
    trials = run_trials(w, args.seconds, args.quick, tracing, run_start)

    attempted, failed, problems = w.check(trials)
    untraced = [t for t in trials if t["rc"] == 0 and t["ready"] is not None and not t["traced"]]
    if not untraced:
        problems.append("no untraced trial completed")

    metrics = {}
    if untraced and not tracing:
        values = end_to_end_metrics(untraced)
        for m in declared["end_to_end"]:
            metrics[m["name"]] = dict(value=values[m["name"]], unit=m["unit"])
            print(f"  {m['name']:<16} {values[m['name']]:>14.6g} {m['unit']}")
    elif untraced:
        values, mismatches, spans, probe_start = layer_metrics(w, trials, args.quick)
        if mismatches:
            problems.append(f"layer probe: {mismatches} item(s) differ from in-process evaluation")
            failed += mismatches
        trace_path = BUILD / "traces" / f"{args.workload}-{args.seed}.json"
        write_trace(w, spans, probe_start, run_start, trace_path)
        print(f"trace: {trace_path}")
        print(f"  {'layer':<10} {'self ms':>10} {'spans':>7}  should move")
        for layer, (self_us, count) in sorted(layer_table(spans).items()):
            moves = sorted({m for name, row in LEDGER.items() if name.startswith(layer + ".")
                            for m in row["moves"].split(",")})
            print(f"  {layer:<10} {self_us / 1000.0:>10.3f} {count:>7}  {', '.join(moves)}")
        print(f"  {'metric':<26} {'value':>14} {'unit':<8} should move (on this workload)")
        for m in declared["per_layer"]:
            name = m["name"]
            if name not in values:
                problems.append(f"per-layer metric {name} not measured")
                continue
            row = LEDGER[name]
            where = ("yes" if args.workload in row["on"] else
                     "predicted steady" if args.workload in row["steady"] else "-")
            print(f"  {name:<26} {values[name]:>14.6g} {m['unit']:<8} {row['moves']} ({where})")
            metrics[name] = dict(value=values[name], unit=m["unit"])

    print(f"workload {args.workload} seed(s) {','.join(map(str, w.seeds))}: "
          f"{len(trials)} trial(s), {attempted} item(s) attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.4f})")
    for p in problems:
        print(f"gate: {p}")
    correct = not problems and failed == 0
    if correct:
        shutil.rmtree(work_dir, ignore_errors=True)
    else:
        print(f"kept for inspection: {work_dir}")
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed, metrics=metrics)))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
