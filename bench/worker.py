"""One measured pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode setup|pass|trace

run.py starts one worker per pass, so that no state the library keeps at
module level (such as the verdict cache behind ``ideal_member``) carries
over from one pass to the next. The worker imports the library from
``src/``, builds the workload's systems and inputs (``setup_s``), runs the
task list once (``--mode pass``, or ``--mode trace`` with every library
call wrapped by tracer.py) and prints one JSON object: speed-normalized
and raw times (speed.py), task statuses, and the results serialized for
the oracles in run.py. Its peak memory is read by run.py when it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import cases  # noqa: E402
import corpus  # noqa: E402
import speed  # noqa: E402


def to_json(value):
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


class Workload:
    """Set-up state plus a list of (task id, callable) for one pass."""

    def __init__(self, dl):
        self.dl = dl
        self.tasks: list = []

    def load(self, name):
        with open(cases.system_path(name), encoding="utf-8") as handle:
            return self.dl.parse_system_file(handle.read())

    def scalar(self, c):
        return str(c.value) if isinstance(c, self.dl.Fp) else str(c)

    def terms(self, element):
        return [[to_json(m), self.scalar(c)] for m, c in element.terms]

    def rules(self, system):
        return [[to_json(r.lead), self.terms(r.lower)] for r in system.rules]


class Groebner(Workload):
    def __init__(self, dl):
        super().__init__(dl)
        for case, filename, caps, _ in cases.GROEBNER_CASES:
            system = self.load(filename).system
            self.tasks.append((case, self._task(system, caps)))

    def _task(self, system, caps):
        def run():
            return self.dl.completion.complete(
                system, max_steps=cases.GROEBNER_MAX_STEPS, **caps
            )

        return run

    def payload(self, report):
        return {
            "status": report.status.value,
            "rules": self.rules(report.system),
            "pairs_processed": report.pairs_processed,
            "added": len(report.added),
        }


class NfLarge(Workload):
    def __init__(self, dl):
        super().__init__(dl)
        for case, filename, expr, precision in cases.NF_CASES:
            sf = self.load(filename)
            system = sf.system
            element = dl.parse_expression(expr, system.theory, system.field)
            self.tasks.append((case, self._task(sf, element, precision)))

    def _task(self, sf, element, precision):
        dl = self.dl
        if precision is None:
            return lambda: dl.rewriting_engine.normal_form(
                sf.system, element, cases.NF_MAX_STEPS
            )
        return lambda: dl.power_series.truncated_normal_form(
            sf.system, sf.weight_data, element, precision, cases.NF_MAX_STEPS
        )

    def payload(self, result):
        if isinstance(result, self.dl.SeriesNormalForm):
            return {"terms": self.terms(result.representative), "truncated": result.truncated}
        return {"terms": self.terms(result)}


class CorpusSweep(Workload):
    def __init__(self, dl, generated):
        super().__init__(dl)
        for cs in generated:
            system = dl.parse_system_file(cs.text).system
            elements = [
                dl.parse_expression(text, system.theory, system.field)
                for text, _ in cs.elements
            ]
            self.tasks.append((cs.name, self._task(system, elements)))

    def _task(self, system, elements):
        dl = self.dl
        budget = cases.CORPUS_MAX_STEPS

        def run():
            built = dl.rewriting_engine.RewritingSystem(
                system.theory, system.order, system.rules, system.field
            )
            ambiguities = dl.ambiguity.critical_ambiguities(built)
            verdict = dl.completion.check_confluence(built, budget)
            report = None
            final = built
            if verdict.status is dl.ConfluenceStatus.NOT_CONFLUENT:
                report = dl.completion.complete(
                    built, max_steps=budget, **cases.CORPUS_COMPLETE_CAPS
                )
                if report.status is dl.CompletionStatus.COMPLETE:
                    final = report.system
            nfs = [dl.rewriting_engine.normal_form(final, e, budget) for e in elements]
            return len(ambiguities), verdict, report, nfs

        return run

    def payload(self, result):
        count, verdict, report, nfs = result
        out = {
            "ambiguities": count,
            "verdict": verdict.status.value,
            "completion": None if report is None else report.status.value,
            "nfs": [self.terms(nf) for nf in nfs],
        }
        if report is not None and report.status is self.dl.CompletionStatus.COMPLETE:
            out["rules"] = self.rules(report.system)
        return out


class CliInProcess(Workload):
    """The cli task list run through main(argv) in this process (traced runs)."""

    def __init__(self, dl):
        super().__init__(dl)
        for path in dict.fromkeys(argv[1] for _, argv in cases.cli_tasks()):
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                dl.parse_system_file(handle.read())
        for task_id, argv in cases.cli_tasks():
            self.tasks.append((task_id, self._task(argv)))

    def _task(self, argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.dl.cli_io.main(list(argv))
            return code, out.getvalue()

        return run

    def payload(self, result):
        return {"exit": result[0], "stdout": result[1]}


def build(name, dl, generated):
    if name == "groebner":
        return Groebner(dl)
    if name == "nf-large":
        return NfLarge(dl)
    if name == "corpus-sweep":
        return CorpusSweep(dl, generated)
    return CliInProcess(dl)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    # The corpus is the benchmark's input, not the library's work: made before
    # the set-up clock starts.
    generated = (
        corpus.generate(args.seed, cases.CORPUS_PER_THEORY)
        if args.workload == "corpus-sweep"
        else None
    )
    # A traced pass is not sampled, since samples would land inside its
    # spans; kernel runs just before and after it normalize it instead.
    sampler = None if args.mode == "trace" else speed.Sampler()
    calibration = []
    if sampler is not None:
        sampler.start()
    clock = speed.clock
    start = clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import diamondlemma as dl

    workload = build(args.workload, dl, generated)
    setup_end = clock()
    intervals = []
    results = []
    tracer = None
    if args.mode != "setup":
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(dl)
            calibration += speed.calibrate()
        order = list(workload.tasks)
        # The seed orders the tasks (and generated most corpus systems).
        random.Random(args.seed).shuffle(order)
        for task_id, run in order:
            if tracer is not None:
                tracer.task = task_id
            t = clock()
            try:
                value, status = run(), "ok"
            except dl.StepBudgetExceededError:
                value, status = None, "budget"
            except Exception as exc:  # a raising task is a counted failure
                value, status = None, "raised: %s: %s" % (type(exc).__name__, exc)
            intervals.append((t, clock()))
            results.append((task_id, status, value))
    if sampler is not None:
        sampler.stop()
        norm, busy = sampler.normalize, sampler.busy
    else:
        factor = speed.KERNEL_NOMINAL_S / speed.kernel_time(calibration + speed.calibrate())

        def busy(a, b):
            return b - a

        def norm(a, b):
            return (b - a) * factor
    out = {"setup_s": norm(start, setup_end), "setup_raw_s": busy(start, setup_end)}
    if args.mode != "setup":
        out["wall_s"] = norm(intervals[0][0], intervals[-1][1])
        out["wall_raw_s"] = busy(intervals[0][0], intervals[-1][1])
        out["tasks"] = [
            {
                "id": task_id,
                "s": norm(a, b),
                "raw_s": busy(a, b),
                "status": status,
                "payload": workload.payload(value) if status == "ok" else None,
            }
            for (task_id, status, value), (a, b) in zip(results, intervals)
        ]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.spans)
        if args.trace_file:
            tracer.write_spans(args.trace_file)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
