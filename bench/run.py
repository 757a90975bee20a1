"""polyseg benchmark: end-to-end CLI pipelines on synthetic corpora.

    python3 bench/run.py --workload bpe-mt --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # every workload

Generates the workload's inputs from ``--seed``, then runs its pipeline
(see pipeline.py) again and again, each time in a fresh process, one CLI
step after another (a closed loop with one client), until ``--seconds``
have passed.  Every timing is scaled to a reference host speed by a
calibration loop timed around and during it (see calib.py).  Each CLI
step's time is its median over those pipelines (see step_seconds), and a
timing metric sums its steps.  ``setup_s`` is the median of several fresh
interpreters that import ``polyseg.cli`` and load the workload's model
files.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` untraced and traced pipelines alternate and it reports
the per-layer metrics of layers.py, plus ``trace.overhead``.  Earlier lines
give a readable summary: input facts, every metric with its unit and run
count, failed operations, output digests and machine facts.  Everything,
spans included, is also written to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 165.0  # every child is stopped by then; the run must end by 180 s

END_TO_END = (
    ("pipeline_s", "s"),
    ("train_s", "s"),
    ("segment_tok_per_s", "tokens/s"),
    ("eval_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("boundary_f1", "ratio"),
    ("emma_f1", "ratio"),
)

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import polyseg.cli
from polyseg import bpe, crf, morf
families = {"bpe": bpe, "crf": crf, "morf": morf}
for family, path in zip(sys.argv[2::2], sys.argv[3::2]):
    families[family].load_model(path)
"""


class Run:
    """One benchmark run: the workload's pipelines and their operations."""

    def __init__(self, workload: str, work: str):
        self.workload = workload
        self.work = work
        self.data = os.path.join(work, "data")
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digests = None
        self.model_dir = None  # outputs of the first whole pipeline
        self.attempts = 0
        self.results: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def _child(self, argv: list[str], log: str):
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with open(log, "w", encoding="utf-8") as out:
            try:
                proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                                      stdout=out, stderr=subprocess.STDOUT,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                return "timeout after %.0f s" % timeout
        return proc.returncode

    def pipeline(self, traced: bool) -> dict | None:
        """Run one pipeline in a fresh process and count its operations."""
        k = self.attempts
        self.attempts += 1
        out = os.path.join(self.work, "rep%d" % k)
        result_path = os.path.join(self.work, "rep%d.json" % k)
        argv = [os.path.join(HERE, "pipeline.py"), "--workload", self.workload,
                "--data", self.data, "--out", out, "--result", result_path]
        if traced:
            argv.append("--trace")
        rc = self._child(argv, os.path.join(self.work, "rep%d.log" % k))
        if not self.op(rc == 0 and os.path.exists(result_path),
                       "pipeline %d exited with %s" % (k, rc)):
            return None
        with open(result_path, encoding="utf-8") as f:
            res = json.load(f)
        res["traced"] = traced
        for s in res["steps"]:
            for rc in s["rcs"]:
                self.op(rc == 0, "rep %d step %s returned %s" % (k, s["label"], rc))
        for c in res["checks"]:
            self.op(c["ok"], "rep %d check %s: %s" % (k, c["name"], c["detail"]))
        # outputs must be byte-identical across the pipelines of one run
        if self.first_digests is None:
            self.first_digests = res["digests"]
            self.model_dir = out  # kept for the setup probes
        else:
            for name, digest in self.first_digests.items():
                self.op(res["digests"].get(name) == digest,
                        "rep %d output %s differs from the first pipeline" % (k, name))
            shutil.rmtree(out, ignore_errors=True)
        self.results.append(res)
        return res

    def setup_probe(self) -> float | None:
        """Wall time of a fresh interpreter that imports polyseg.cli and
        loads the workload's model files."""
        argv = ["-c", SETUP_CODE, os.path.join(ROOT, "src")]
        for family, name in pipeline.MODEL_FILES[self.workload]:
            argv += [family, os.path.join(self.model_dir, name)]
        before = calib.calibrate()
        start = time.perf_counter()
        rc = self._child(argv, os.path.join(self.work, "setup.log"))
        took = time.perf_counter() - start
        took = calib.scale(took, [before, calib.calibrate()])
        return took if self.op(rc == 0, "setup probe exited with %s" % rc) else None


def step_seconds(results: list[dict]) -> dict[str, tuple[str, float, int]]:
    """Per CLI step: its kind, the median of its scaled times over all the
    given pipelines (every repeat of a repeated step is one sample), and
    the words it reads."""
    samples: dict[str, list[float]] = {}
    for res in results:
        for s in res["steps"]:
            samples.setdefault(s["label"], []).extend(s["scaled"])
    first = {s["label"]: s for s in results[0]["steps"]}
    return {label: (first[label]["kind"], statistics.median(times), first[label]["tokens"])
            for label, times in samples.items()}


def _total(steps, kinds=None) -> float:
    return sum(t for kind, t, _ in steps.values() if kinds is None or kind in kinds)


def end_to_end(run: Run, untraced: list[dict], setup: list[float]) -> dict:
    steps = step_seconds(untraced)
    seg_tokens = sum(n for kind, _, n in steps.values() if kind == "segment")
    main = pipeline.MAIN_SEGMENTER[run.workload]
    scores = untraced[0]["scores"]
    return {
        # harness work between CLI calls (checks, conversions) is left out
        "pipeline_s": _total(steps),
        "train_s": _total(steps, ("train",)),
        "segment_tok_per_s": seg_tokens / _total(steps, ("segment",)),
        "eval_s": _total(steps, ("eval",)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in untraced),
        "boundary_f1": scores["%s_boundary_f1" % main],
        "emma_f1": scores["%s_emma_f1" % main],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    values = [layers.layer_values(r["spans"], {s["label"]: s["scaled"][0] / s["repeats"][0]
                                               for s in r["steps"]})
              for r in traced]
    out = {m: statistics.median(v[m] for v in values) for m in values[0]}
    out["trace.overhead"] = _total(step_seconds(traced)) / _total(step_seconds(untraced))
    return out


def machine_facts(res: dict | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
             "cpu": cpu}
    if res is not None:
        facts.update(res["versions"])
        facts["blas_threads"] = res["blas_threads"]
    return facts


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; prints the readable summary and returns the
    result line."""
    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, work)
    os.makedirs(run.data)
    facts = gen.GENERATORS[workload](run.data, seed)
    gen_s = run.elapsed()

    # closed loop: the next pipeline starts when the previous one ends, as
    # long as at least half of it fits in the window
    end = gen_s + seconds
    while True:
        started = run.elapsed()
        run.pipeline(False)
        if traced:
            run.pipeline(True)
        took = run.elapsed() - started
        if run.elapsed() + took / 2 > end or run.elapsed() + took > DEADLINE_S - 15:
            break
    # the setup probes run back to back after a warm-up probe: a probe right
    # after a pipeline reads up to 1.5x slower than the next one
    setup = []
    if not traced and run.model_dir is not None:
        run.setup_probe()
        while len(setup) < SETUP_PROBES and run.elapsed() < DEADLINE_S - 15:
            setup.append(run.setup_probe())
    setup = [t for t in setup if t is not None]

    untraced = [r for r in run.results if not r["traced"]]
    traced_res = [r for r in run.results if r["traced"]]
    failed_share = run.failed / max(run.attempted, 1)
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "input_facts": facts, "machine": machine_facts(untraced[0] if untraced else None),
               "pipelines": {"untraced": len(untraced), "traced": len(traced_res)},
               "setup_probes": setup, "attempted": run.attempted,
               "failed": run.failed, "failed_op_share": failed_share,
               "failures": run.failures, "digests": run.first_digests}

    print("workload %s seed %d: inputs %s" % (workload, seed, json.dumps(facts)))
    print("machine: %s" % json.dumps(summary["machine"]))
    metrics, units = {}, {}
    complete = bool(untraced) and (bool(traced_res) if traced else bool(setup))
    if complete and not traced:
        metrics = end_to_end(run, untraced, setup)
        units = dict(END_TO_END)
        how = {"setup_s": "median of %d probes after a warm-up probe" % len(setup),
               "peak_rss_mb": "median of %d pipelines" % len(untraced),
               "boundary_f1": "deterministic", "emma_f1": "deterministic"}
        for name, value in metrics.items():
            print("%-20s %14.6g %-9s (%s)" % (name, value, units[name], how.get(
                name, "sum of each step's scaled median over %d pipelines" % len(untraced))))
        for key in sorted(untraced[0]["scores"]):
            print("  %s = %.4f" % (key, untraced[0]["scores"][key]))
    elif complete:
        metrics = per_layer(untraced, traced_res)
        units = {m: u for m, u, *_ in layers.PER_LAYER}
        for name, unit, _, _, moves, runs_on in layers.PER_LAYER:
            note = ("should move %s" % moves if moves else
                    "traced / untraced pipeline_s; the wrappers add less than the "
                    "noise between pipelines, so it can read under 1")
            if workload not in runs_on:
                note = "layer does not run on %s" % workload
            print("%-28s %12.6g %-6s %s" % (name, metrics[name], unit, note))
        print("(medians of %d traced and %d untraced pipelines; %s)"
              % (len(traced_res), len(untraced), layers.SIGNIF_NOTE))
        summary["spans"] = [r["spans"] for r in traced_res]
    print("failed_op_share      %14.6g ratio     (%d of %d operations failed)"
          % (failed_share, run.failed, run.attempted))
    for what in run.failures[:20]:
        print("  failed: %s" % what)
    digests = sorted((run.first_digests or {}).items())
    combined = hashlib.sha256("".join("%s %s\n" % d for d in digests).encode()).hexdigest()
    print("outputs: %d files, combined sha256 %s (per file in result.json)"
          % (len(digests), combined))

    summary["metrics"] = metrics
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polyseg end-to-end benchmark")
    ap.add_argument("--workload", choices=sorted(gen.GENERATORS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "polyseg", "cli.py")):
        print("bench: no polyseg sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    if args.workload != "all":
        line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(line))
        return 0
    # every workload in turn, then one table of all their metrics
    lines = {}
    for workload in gen.GENERATORS:
        lines[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print()
    names = list(lines[next(iter(lines))]["metrics"])
    print("%-28s %-9s" % ("metric", "unit") + "".join("%14s" % w for w in lines))
    for name in names:
        cells = "".join("%14.6g" % lines[w]["metrics"].get(name, {}).get("value", float("nan"))
                        for w in lines)
        print("%-28s %-9s" % (name, lines[next(iter(lines))]["metrics"][name]["unit"]) + cells)
    print("%-28s %-9s" % ("failed_op_share", "ratio")
          + "".join("%14.6g" % (line["failed"] / line["attempted"]) for line in lines.values()))
    for w, line in lines.items():
        print("%s: correct=%s, %d of %d operations failed"
              % (w, line["correct"], line["failed"], line["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
