"""One pipeline of one workload, in a fresh process.

Runs the workload's CLI steps through ``polyseg.cli.main``, one after the
other, checks the outputs, and writes a JSON result: per-step wall times
(raw, and scaled to the reference host speed as calib.py describes),
the outcome of every operation (CLI call or output check), digests of all
outputs, the process's peak RSS and, when traced, the spans.

    python3 bench/pipeline.py --workload bpe-mt --data DIR --out DIR \\
        --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BPE_VOCAB = "1000"
LMVR_CAP = "250"
# lmvr stops when an epoch gains less than this many nats (about 0.3% of
# its ~73k-nat cost); at the default 0.1 its epoch count follows the
# seed's corpus (5 to 13 epochs on a corpus half this size), at 200 it
# runs 3 or 4, so runs of different seeds do comparable work
LMVR_EPSILON = "200"
CRF_ITERS = "8"
SIGNIF_TRIALS = 10000
# eval-seg and eval-mt take tens to hundreds of milliseconds; repeating
# them gives eval_s more samples to take the median of
EVAL_SEG_REPEATS = 5
EVAL_MT_REPEATS = 3


def _tokens(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(len(line.split()) for line in f)


def _table(path: str) -> dict[str, str]:
    """First data row of a TSV report written by ``--out``."""
    with open(path, encoding="utf-8") as f:
        head, row = f.read().splitlines()[:2]
    return dict(zip(head.split("\t"), row.split("\t")))


class Pipeline:
    """Runs CLI steps and output checks; records each as an operation."""

    def __init__(self, cli, data: str, out: str, tracer=None):
        self.cli = cli
        self.data = data
        self.out = out
        self.tracer = tracer
        self.steps: list[dict] = []
        self.checks: list[dict] = []
        self.scores: dict[str, float] = {}
        calib.calibrate()  # warm up
        self.calibration = calib.calibrate()  # the latest calibration time

    def d(self, name: str) -> str:
        return os.path.join(self.data, name)

    def o(self, name: str) -> str:
        return os.path.join(self.out, name)

    def step(self, label: str, kind: str, *argv, tokens: int = 0, repeat: int = 1) -> bool:
        """One CLI call.  ``kind`` is train, segment, eval, check, score or
        other; ``tokens`` counts the words a segment step reads.  A cheap
        step may be repeated (untraced runs only): every repeat is an
        operation and a timing sample.  Each sample is kept raw and scaled
        to the reference host speed by the calibrations around it."""
        argv = [str(a) for a in argv]
        rcs, times, scaled, samples = [], [], [], []
        for _ in range(1 if self.tracer is not None else repeat):
            with calib.Meter(self.calibration) as meter:
                try:
                    if self.tracer is None:
                        rc = self.cli.main(argv)
                    else:
                        rc = self.tracer.call("step:" + label, self.cli.main, (argv,))
                except Exception:  # noqa: BLE001 - a crash is a failed operation
                    traceback.print_exc()
                    rc = "exception"
            self.calibration = meter.after_s
            times.append(meter.raw_s)
            scaled.append(meter.scaled_s)
            samples.append(len(meter.samples))
            rcs.append(rc)
        self.steps.append({"label": label, "kind": kind, "argv": argv, "rcs": rcs,
                           "repeats": times, "scaled": scaled,
                           "calibrations": samples, "tokens": tokens})
        return all(rc == 0 for rc in rcs)

    def check(self, name: str, fn, *args) -> bool:
        """An output check: ``fn`` returns a detail string when it fails."""
        try:
            problem = fn(*args)
        except (OSError, ValueError, KeyError) as exc:
            problem = "%s: %s" % (type(exc).__name__, exc)
        self.checks.append({"name": name, "ok": problem is None, "detail": problem})
        return problem is None

    def segment(self, label: str, model: str, src: str, dst: str) -> bool:
        return self.step(label, "segment", "segment", "--model", model,
                         "--input", src, "--output", dst, tokens=_tokens(src))

    def round_trip(self, label: str, model: str, src: str, segmented: str) -> None:
        """desegment(segment(src)) must restore src byte for byte."""
        restored = segmented + ".restored"
        self.step("desegment-" + label, "other", "desegment", "--model", model,
                  "--input", segmented, "--output", restored)
        self.check("round-trip:" + label, _same_bytes, src, restored)

    def score_segmenter(self, label: str, segmented: str, kind: str,
                        repeat: int = EVAL_SEG_REPEATS) -> None:
        """Score a model's segmented held-out words against gold.tsv."""
        pred = self.o("pred_%s.tsv" % label)
        marker = "</w>" if label == "bpe" else "@@"
        self.check("pred-tsv:" + label, _pred_tsv, segmented, pred, marker)
        for metric in ("boundary", "emma"):
            report = self.o("evalseg_%s_%s.tsv" % (label, metric))
            self.step("eval-seg-%s-%s" % (label, metric), kind, "eval-seg",
                      "--pred", pred, "--gold", self.d("gold.tsv"),
                      "--metric", metric, "--out", report, repeat=repeat)
            self.check("f1:%s:%s" % (label, metric), self._read_f1,
                       report, "%s_%s_f1" % (label, metric))

    def _read_f1(self, report: str, key: str):
        f1 = float(_table(report)["f1"])
        self.scores[key] = f1
        return None if 0.0 <= f1 <= 1.0 else "f1 %r outside [0, 1]" % f1


def _same_bytes(a: str, b: str):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return None if fa.read() == fb.read() else "%s differs from %s" % (b, a)


def _pred_tsv(segmented: str, pred: str, marker: str):
    """Turn segmented text into a one-word-per-line ``surface<TAB>morphs``
    TSV for eval-seg.  ``</w>`` ends a word's last piece (bpe); any other
    marker continues a word (morf, crf)."""
    eow = marker == "</w>"
    rows = []
    morphs: list[str] = []
    with open(segmented, encoding="utf-8") as f:
        for line in f.read().splitlines():
            for piece in line.split(" "):
                done = piece.endswith(marker) == eow
                morphs.append(piece[:-len(marker)] if piece.endswith(marker) else piece)
                if done:
                    rows.append("%s\t%s\n" % ("".join(morphs), " ".join(morphs)))
                    morphs = []
    if not rows or morphs:
        return "no whole words in %s" % segmented
    with open(pred, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(rows)
    return None


def _bpe_pieces(model: str, dst: str):
    """The piece vocabulary a bpe model file implies: both sides of every
    merge and their concatenation."""
    pieces = set()
    with open(model, encoding="utf-8") as f:
        for line in f.read().splitlines()[1:]:
            a, b = line.split("\t")
            pieces.update((a, b, a + b))
    with open(dst, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(p + "\n" for p in sorted(pieces))
    return None if pieces else "no merges in %s" % model


def _mt_identity(report: str):
    score = _table(report)["score"]
    return None if score == "100.0000" else "hyp = ref scored %s, not 100" % score


def _p_in_range(report: str, trials: int):
    p = float(_table(report)["p_value"])
    ok = 1.0 / (trials + 1) <= p <= 1.0
    return None if ok else "p=%r outside [1/(trials+1), 1]" % p


# -- workloads ------------------------------------------------------------------


def bpe_mt(r: Pipeline) -> None:
    d, o = r.d, r.o
    model = o("model.bpe")
    r.step("stats", "other", "stats", "--source", d("test.src"), "--target", d("test.tgt"),
           "--train-source", d("train.src"), "--train-target", d("train.tgt"),
           "--out", o("stats.tsv"))
    r.step("train-bpe", "train", "train", "--method", "bpe", "--vocab-size", BPE_VOCAB,
           "--input", d("train.src"), "--model", model)
    r.segment("segment-bpe", model, d("test.src"), o("test.seg"))
    r.round_trip("bpe", model, d("test.src"), o("test.seg"))
    r.check("pieces", _bpe_pieces, model, o("pieces.txt"))
    r.step("analyze-unk", "other", "analyze", "unk", "--vocab", o("pieces.txt"),
           "--input", o("test.seg"), "--system", "bpe", "--out", o("unk.csv"))
    for metric in ("bleu", "chrf"):
        r.step("eval-mt-" + metric, "eval", "eval-mt", "--hyp", d("hyp_a.tgt"),
               "--ref", d("test.tgt"), "--metric", metric, "--out", o("mt_%s.tsv" % metric),
               repeat=EVAL_MT_REPEATS)
    for metric in ("bleu", "chrf"):
        report = o("signif_%s.tsv" % metric)
        r.step("signif-" + metric, "eval", "signif", "--sys-a", d("hyp_a.tgt"),
               "--sys-b", d("hyp_b.tgt"), "--ref", d("test.tgt"), "--metric", metric,
               "--trials", SIGNIF_TRIALS, "--out", report)
        r.check("p-range:" + metric, _p_in_range, report, SIGNIF_TRIALS)
    for metric in ("bleu", "chrf"):
        report = o("identity_%s.tsv" % metric)
        r.step("eval-mt-identity-" + metric, "check", "eval-mt", "--hyp", d("test.tgt"),
               "--ref", d("test.tgt"), "--metric", metric, "--out", report)
        r.check("identity-100:" + metric, _mt_identity, report)
    # the segmenter's own quality on held-out words; not part of eval_s here
    r.step("segment-gold", "score", "segment", "--model", model,
           "--input", d("gold_words.txt"), "--output", o("gold.seg"))
    r.score_segmenter("bpe", o("gold.seg"), "score", repeat=1)


def morph_unsup(r: Pipeline) -> None:
    d, o = r.d, r.o
    models = {"flatcat": o("model.flatcat"), "lmvr": o("model.lmvr")}
    r.step("train-flatcat", "train", "train", "--method", "flatcat",
           "--input", d("train.txt"), "--model", models["flatcat"])
    r.step("train-lmvr", "train", "train", "--method", "lmvr", "--cap", LMVR_CAP,
           "--epsilon", LMVR_EPSILON, "--input", d("train.txt"), "--model", models["lmvr"])
    for name, model in models.items():  # flatcat is the main segmenter
        seg = o("heldout_%s.seg" % name)
        r.segment("segment-" + name, model, d("heldout.txt"), seg)
        r.round_trip(name, model, d("heldout.txt"), seg)
        r.score_segmenter(name, seg, "eval")
    r.step("analyze-richness", "other", "analyze", "richness",
           "--probe-model", models["lmvr"], "--input", d("heldout.txt"),
           "--scores", d("scores.txt"), "--out", o("richness.csv"))


def crf_sup(r: Pipeline) -> None:
    d, o = r.d, r.o
    model = o("model.crf")
    r.step("seg-stats", "other", "seg-stats", "--data", d("train.tsv"),
           "--out", o("segstats.tsv"))
    r.step("train-crf", "train", "train", "--method", "crf", "--max-iters", CRF_ITERS,
           "--input", d("train.tsv"), "--model", model)
    r.segment("segment-crf", model, d("text.txt"), o("text.seg"))
    r.round_trip("crf", model, d("text.txt"), o("text.seg"))
    r.segment("segment-gold", model, d("gold_words.txt"), o("gold.seg"))
    r.score_segmenter("crf", o("gold.seg"), "eval")


WORKLOADS = {"bpe-mt": bpe_mt, "morph-unsup": morph_unsup, "crf-sup": crf_sup}
MAIN_SEGMENTER = {"bpe-mt": "bpe", "morph-unsup": "flatcat", "crf-sup": "crf"}
# the model files every `segment` call of a workload loads
MODEL_FILES = {
    "bpe-mt": (("bpe", "model.bpe"),),
    "morph-unsup": (("morf", "model.flatcat"), ("morf", "model.lmvr")),
    "crf-sup": (("crf", "model.crf"),),
}


def digests(out: str) -> dict[str, str]:
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            result[name] = hashlib.sha256(f.read()).hexdigest()
    return result


def blas_threads():
    """Thread count of the BLAS library numpy loaded, or None when it
    cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import polyseg
    from polyseg import cli

    if not os.path.abspath(polyseg.__file__).startswith(SRC + os.sep):
        print("polyseg imported from %s, not %s" % (polyseg.__file__, SRC), file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import layers
        from tracer import Tracer, package_modules

        tracer = Tracer()
        mods = package_modules(polyseg)
        for mod, attr, name, aggregate, count in layers.WRAPPED:
            tracer.install(mods, getattr(polyseg, mod), attr, name, aggregate, count)

    os.makedirs(args.out, exist_ok=True)
    run = Pipeline(cli, args.data, args.out, tracer)
    WORKLOADS[args.workload](run)

    result = {
        "steps": run.steps,
        "checks": run.checks,
        "scores": run.scores,
        "digests": digests(args.out),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": blas_threads(),
        "spans": tracer.dump() if tracer is not None else None,
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
