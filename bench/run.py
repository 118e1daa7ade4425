"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):

- groebner: commutative completion of cyclic-5 over QQ and katsura-5 over GF(32003);
- nf-large: normal forms of large elements in U(sl2), the Weyl algebra and a
  weighted series system;
- corpus-sweep: a seeded corpus of small random systems in all five theories;
- cli: one `diamond` process per subcommand and theory.

Each is a closed loop: one process, one task at a time. With ``--trace 0``
the run starts fresh worker processes (worker.py), one per pass over the
fixed task list, as many as ``--seconds`` stands for (cases.pass_count), and
set-up-only workers until it has SETUP_SAMPLES set-up times; cli passes
launch the CLI itself. The pass count does not depend on timing, so runs
with the same ``--seconds`` attempt the same number of tasks. Times are speed-normalized (speed.py). Every result
is checked against an oracle that does not use the library (oracles.py).
With ``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics (tracer.py). METRICS.md defines every metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details such as the tail percentile
and sample counts go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

# Keep this process from writing bytecode outside the checkout (for sympy).
sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import cases  # noqa: E402
import corpus  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402

ROOT = cases.ROOT
SETUP_SAMPLES = 3
PROBE_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_WINDOW = 600
KNOWN_DEFECT = "mixed-theory verdict refuted by an oracle witness"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


class Runner:
    """Spawns and reaps child processes, keeping the whole run under its deadline."""

    def __init__(self):
        self.start = time.perf_counter()
        signal.signal(signal.SIGALRM, _alarm)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, argv, env=None, stderr=subprocess.STDOUT):
        """Run to completion: (seconds, exit code, stdout, peak RSS in MB).

        Standard error joins standard output unless ``stderr`` says otherwise.
        """
        left = self.remaining()
        if left <= 1:
            raise BenchError("run deadline of %.0f s reached" % DEADLINE_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise BenchError("run deadline of %.0f s reached" % DEADLINE_S)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.stdout.close()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0

    def worker(self, workload, seed, mode, trace_file=None) -> dict:
        argv = [
            sys.executable,
            os.path.join(BENCH_DIR, "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--mode",
            mode,
        ]
        if trace_file:
            argv += ["--trace-file", trace_file]
        _, code, out, rss = self.spawn(argv, cases.child_env())
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError("worker failed (exit %d):\n%s" % (code, out[-3000:]))
        result = json.loads(lines[-1])
        result["peak_rss_mb"] = rss
        return result

    def cli_pass(self, seed) -> dict:
        """One pass of the cli workload: one CLI process per task.

        Each process is timed from spawn to exit. A bare interpreter start
        runs before each process and once after the last; a process is
        normalized by the mean of the two around it (speed.normalize_process).
        """
        order = cases.cli_tasks()
        random.Random(seed).shuffle(order)
        env = cases.child_env()
        bare = [sys.executable, "-c", "pass"]
        references = [self.spawn(bare, env)[0]]
        runs = []
        for task_id, argv in order:
            runs.append((task_id,) + self.spawn(cases.cli_command(argv), env, subprocess.DEVNULL))
            references.append(self.spawn(bare, env)[0])
        tasks = []
        for i, (task_id, seconds, code, out, _) in enumerate(runs):
            tasks.append(
                {
                    "id": task_id,
                    "s": speed.normalize_process(seconds, references[i : i + 2]),
                    "raw_s": seconds,
                    "status": "ok",
                    "payload": {"exit": code, "stdout": out},
                }
            )
        return {
            "wall_s": sum(t["s"] for t in tasks),
            "tasks": tasks,
            "peak_rss_mb": max(rss for *_, rss in runs),
        }


# --- result checks ----------------------------------------------------------------


class GroebnerCheck:
    def __init__(self, seed):
        with open(os.path.join(cases.DATA_DIR, "groebner_reference.json")) as handle:
            stored = json.load(handle)
        self.reference = {
            case: oracles.reference_polynomials(stored[case]["basis"], modulus)
            for case, _, _, modulus in cases.GROEBNER_CASES
        }
        self.modulus = {case: modulus for case, _, _, modulus in cases.GROEBNER_CASES}

    def __call__(self, task_id, payload):
        if payload["status"] != "complete":
            return "completion ended %s" % payload["status"], False
        got = oracles.rules_as_polynomials(payload["rules"], self.modulus[task_id])
        if got != self.reference[task_id]:
            return "basis differs from sympy's reduced grlex basis", False
        return None


class NfCheck:
    """Closed forms for the Weyl and series cases, representations for U(sl2).

    The expected values restate the expressions in cases.NF_CASES.
    """

    def __init__(self, seed):
        precision = {case: p for case, _, _, p in cases.NF_CASES}
        self.expected = {
            "weyl_pow10": oracles.weyl_power(10),
            "weyl_y30x30": {
                (30 - k, 30 - k): math.comb(30, k) ** 2 * math.factorial(k) for k in range(31)
            },
            # weight sums >= 1 - precision keep total degree <= precision - 1
            "series_pow8": oracles.series_power(8, top=precision["series_pow8"] - 1),
        }

    def __call__(self, task_id, payload):
        terms = oracles.terms_from_payload(payload["terms"])
        if task_id == "sl2_pow7":
            reason = oracles.check_sl2_power(
                terms, {"h": 1, "f": 1, "e": 1}, 7, cases.SL2_REPRESENTATIONS
            )
            return None if reason is None else (reason, False)
        if oracles.weyl_from_words(terms) != self.expected[task_id]:
            return "normal form differs from the closed form", False
        if task_id == "series_pow8" and not payload["truncated"]:
            return "series result not marked truncated", False
        return None


class CorpusCheck:
    """Witness search, completed-system checks and normal-form checks per system."""

    LETTERS = {"mixed": corpus.MIXED_LETTERS}

    def __init__(self, seed):
        self.systems = {cs.name: cs for cs in corpus.generate(seed, cases.CORPUS_PER_THEORY)}
        arrows = {name: (s, t) for name, s, t in corpus.PATH_ARROWS}
        self.rewriters = {th: oracles.Rewriter(th, arrows) for th in corpus.THEORIES}

    def _witness(self, cs, rules):
        return oracles.find_witness(
            self.rewriters[cs.theory], rules, self.LETTERS.get(cs.theory, ()), cs.seed
        )

    def __call__(self, task_id, payload):
        try:
            return self._check(self.systems[task_id], payload)
        except oracles.BudgetExceeded:
            return "oracle reduction budget exhausted", False

    def _check(self, cs, payload):
        theory = cs.theory
        verdict, completion = payload["verdict"], payload["completion"]
        if verdict == "inconclusive":
            return "step budget exhausted in check_confluence", False
        refuted = None
        certified = False
        final = cs.rules
        if verdict == "confluent":
            certified = True
            witness = self._witness(cs, cs.rules)
            if witness is not None:
                refuted = "CONFLUENT verdict refuted by a witness monomial"
        if completion == "complete":
            certified = True
            final = tuple(
                (oracles.tuplify(lead), tuple(oracles.terms_from_payload(lower).items()))
                for lead, lower in payload["rules"]
            )
            witness = self._witness(cs, final)
            if witness is not None:
                refuted = "COMPLETE verdict refuted by a witness monomial"
            reducer = oracles.Reducer(self.rewriters[theory], final, cs.seed)
            for lead, lower in cs.rules:
                defining = {lead: 1}
                for m, c in lower:
                    defining[m] = defining.get(m, 0) - c
                if reducer.element(defining):
                    return "completed system does not reduce an input rule to zero", False
            if theory == "commutative" and not self._matches_sympy(cs, payload["rules"]):
                return "completed basis differs from sympy's reduced basis", False
        reducer = oracles.Reducer(self.rewriters[theory], final, cs.seed + 2)
        for (_, terms), nf in zip(cs.elements, payload["nfs"]):
            got = oracles.terms_from_payload(nf)
            if not reducer.irreducible(got):
                return "normal form is still reducible", False
            if certified and refuted is None and reducer.element(dict(terms)) != got:
                refuted = "certified system gives an element two normal forms"
        if refuted is not None:
            return refuted, theory == "mixed"
        return None

    def _matches_sympy(self, cs, rules_payload):
        polys = []
        for lead, lower in cs.rules:
            poly = {lead: 1}
            for m, c in lower:
                poly[m] = -c
            polys.append(poly)
        basis = oracles.sympy_groebner(list(corpus.COMM_LETTERS), polys, None)
        reference = oracles.reference_polynomials(oracles.basis_terms(basis, None))
        return oracles.rules_as_polynomials(rules_payload) == reference


class CliCheck:
    def __init__(self, seed):
        with open(os.path.join(cases.DATA_DIR, "cli_golden.json")) as handle:
            self.golden = json.load(handle)

    def __call__(self, task_id, payload):
        gold = self.golden[task_id]
        if payload["exit"] != gold["exit"]:
            return "exit code %d, golden %d" % (payload["exit"], gold["exit"]), False
        if payload["stdout"] != gold["stdout"]:
            return "stdout differs from the golden output", False
        return None


CHECKS = {
    "groebner": GroebnerCheck,
    "nf-large": NfCheck,
    "corpus-sweep": CorpusCheck,
    "cli": CliCheck,
}


class Tally:
    """Checks each task once per distinct result and counts failures."""

    def __init__(self, workload, seed):
        self.check = CHECKS[workload](seed)
        self.cache: dict = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict = {}

    def add(self, tasks) -> None:
        for task in tasks:
            self.attempted += 1
            if task["status"] != "ok":
                outcome = (task["status"], False)
            else:
                key = (task["id"], json.dumps(task["payload"], sort_keys=True))
                if key not in self.cache:
                    self.cache[key] = self.check(task["id"], task["payload"])
                outcome = self.cache[key]
            if outcome is not None:
                reason, known = outcome
                self.failed += 1
                if not known:
                    self.unexpected += 1
                label = KNOWN_DEFECT if known else reason
                self.reasons[label] = self.reasons.get(label, 0) + 1


# --- metrics ----------------------------------------------------------------------


def tail_percentile(window: int) -> float:
    """Highest percentile with at least ten tasks of a window beyond it (max if none)."""
    if window <= 10:
        return 100.0
    return 100.0 * (window - 10) / window


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(setup, passes, tally) -> tuple:
    """Medians over set-ups, passes and tasks; the tail is taken per window, then its median.

    Every pass runs the same task list, so a task's latency is the median of
    its times over the passes: a stall of the host during one pass does not
    become the program's latency. A window is TAIL_WINDOW consecutive tasks
    in pass order, or all tasks if fewer. On the corpus the ten slowest of
    one window are a handful of systems, so the median over windows keeps
    one seed's outliers from deciding the tail.
    """
    times: dict = {}
    for p in passes:
        for t in p["tasks"]:
            times.setdefault(t["id"], []).append(t["s"])
    latency = [statistics.median(v) for v in times.values()]
    window = min(TAIL_WINDOW, len(latency))
    pct = tail_percentile(window)
    tails = [
        nearest_rank(latency[i : i + window], pct)
        for i in range(0, len(latency) - window + 1, window)
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": 1000.0 * statistics.median(latency),
        "task_tail_ms": 1000.0 * statistics.median(tails),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "passes": len(passes),
        "tasks": len(latency),
        "tail_percentile": round(pct, 3),
        "tail_window": window,
        "tail_windows": len(tails),
        "setup_samples": len(setup),
    }
    return metrics, details


def measure(runner, args, tally):
    """The passes that --seconds stands for (cases.pass_count), then enough set-ups for a median.

    The first set-up worker runs before any pass, so a checkout where the
    library cannot be imported fails at once.
    """
    setup = [runner.worker(args.workload, args.seed, "setup")["setup_s"]]
    passes = []
    for _ in range(cases.pass_count(args.workload, args.seconds)):
        if args.workload == "cli":
            result = runner.cli_pass(args.seed)
        else:
            result = runner.worker(args.workload, args.seed, "pass")
            setup.append(result["setup_s"])
        passes.append(result)
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.worker(args.workload, args.seed, "setup")["setup_s"])
    for result in passes:
        tally.add(result["tasks"])
    return end_to_end(setup, passes, tally)


def probe_ms(runner, code) -> float:
    """Median speed-normalized time of a fresh interpreter running one -c snippet."""
    env = cases.child_env()
    times = []
    for _ in range(PROBE_SAMPLES):
        before = speed.calibrate()
        seconds, status, out, _ = runner.spawn([sys.executable, "-c", code], env)
        after = speed.calibrate()
        if status != 0:
            raise BenchError("probe %r failed:\n%s" % (code, out[-2000:]))
        times.append(seconds * speed.KERNEL_NOMINAL_S / speed.kernel_time(before + after))
    return 1000.0 * statistics.median(times)


def sympy_reference_seconds() -> dict:
    out = {}
    for case, filename, _, _ in cases.GROEBNER_CASES:
        gens, polys, modulus = oracles.read_polynomial_system(cases.system_path(filename))
        t0 = time.perf_counter()
        oracles.sympy_groebner(gens, polys, modulus)
        out["ref.sympy_%s_s" % case] = time.perf_counter() - t0
    return out


def traced(runner, args, tally, per_layer_names):
    plain = runner.worker(args.workload, args.seed, "pass")
    trace_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))
    traced_pass = runner.worker(args.workload, args.seed, "trace", trace_file)
    tally.add(plain["tasks"])
    tally.add(traced_pass["tasks"])
    metrics = dict.fromkeys(per_layer_names, 0)
    metrics.update(traced_pass["layers"])
    for task in plain["tasks"]:
        key = "task.%s_s" % task["id"]
        if key in metrics:
            metrics[key] = task["raw_s"]
    interpreter = probe_ms(runner, "pass")
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = probe_ms(runner, "import diamondlemma") - interpreter
    metrics["trace.overhead_s"] = traced_pass["wall_s"] - plain["wall_s"]
    metrics["trace.spans"] = traced_pass["spans"]
    if args.workload == "groebner":
        metrics.update(sympy_reference_seconds())
    details = {"trace_file": os.path.relpath(trace_file, ROOT), "untraced_wall_s": plain["wall_raw_s"]}
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.setrecursionlimit(20000)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    # One CPU for the whole run, so that a CLI process runs where the bare
    # interpreter starts that scale it ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    tally = Tally(args.workload, args.seed)
    try:
        if args.trace:
            values, details = traced(runner, args, tally, list(units))
        else:
            values, details = measure(runner, args, tally)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    missing = set(units) - set(values)
    if missing:
        print("benchmark error: metrics not produced: %s" % sorted(missing), file=sys.stderr)
        return 1
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "failures": tally.reasons,
            "elapsed_s": round(time.perf_counter() - runner.start, 3),
        }
    )
    print(json.dumps({"details": details}, sort_keys=True), file=sys.stderr)
    result = {
        # Failures of the documented known defect are counted in `failed`
        # but do not make the run incorrect; any other failure does.
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
