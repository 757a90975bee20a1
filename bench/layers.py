"""Layers of polyseg as the traced run sees them.

``WRAPPED`` lists the public functions wrapped in a traced run, with the
span name each gets and the counters taken from its arguments or result.
``PER_LAYER`` lists the per-layer metrics: how each is read from the
spans, and which end-to-end metric it should move on which workload.
Times are self times scaled to the reference host speed (see calib.py).
Where a layer does not run on a workload its metrics read 0 there, and
the prediction for any change to that layer is no change on that workload.
"""

from __future__ import annotations


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _distinct_words(counts, args, kwargs, result):
    counts.setdefault("distinct_words", set()).add(args[1])


def _merges(counts, args, kwargs, result):
    _add(counts, "merges", len(result.merges))


def _epochs(counts, args, kwargs, result):
    _add(counts, "epochs", len(result.cost_history) - 1)  # [0] is the start


def _em_iters(counts, args, kwargs, result):
    _add(counts, "em_iters", len(result.ll_history))


def _crf_train(counts, args, kwargs, result):
    _add(counts, "iters", len(result.objective_history))
    _add(counts, "features", len(result.feat_index))


def _signif(counts, args, kwargs, result):
    _add(counts, "trials", kwargs.get("trials", 10000))
    _add(counts, "sentences", len(args[0]))


# (module, attribute, span name, aggregate per parent span, counter)
WRAPPED = (
    ("bpe", "train_bpe", "bpe.train", False, _merges),
    ("bpe", "encode", "bpe.encode", True, _distinct_words),
    ("bpe", "load_model", "bpe.load_model", False, None),
    ("morf", "train_baseline", "morf.baseline", False, _epochs),
    ("morf", "train_lmvr", "morf.lmvr", False, _epochs),
    ("morf", "train_flatcat", "morf.flatcat", False, _em_iters),
    ("morf", "viterbi_segment_with_categories", "morf.catlattice", True, None),
    ("morf", "viterbi_segment", "morf.viterbi", True, _distinct_words),
    ("morf", "load_model", "morf.load_model", False, None),
    ("crf", "log_likelihood_and_gradient", "crf.llgrad", False, None),
    ("crf", "train_crf", "crf.train", False, _crf_train),
    ("crf", "decode", "crf.decode", True, None),
    ("crf", "load_model", "crf.load_model", False, None),
    ("metrics", "metric_report", "metrics.report", False, None),
    # paired_randomization_test reaches the per-sentence statistics through
    # metrics._METRICS, which wrappers on module attributes cannot see, so
    # significance testing stays one span.
    ("metrics", "paired_randomization_test", "metrics.signif", False, _signif),
    ("metrics", "boundary_f1", "metrics.seg_eval", False, None),
    ("metrics", "emma_f1", "metrics.seg_eval", False, None),
    ("corpus", "load_parallel", "corpus.stats", False, None),
    ("corpus", "corpus_stats", "corpus.stats", False, None),
    ("corpus", "seg_stats", "corpus.stats", False, None),
    ("corpus", "load_segmentation", "corpus.load_segmentation", False, None),
    ("analysis", "unk_report", "analysis.unk", False, None),
    ("analysis", "richness_table", "analysis.richness", False, None),
    ("cli", "desegment_line", "cli.desegment", True, None),
    ("cli", "render_segmented", "cli.render", True, None),
)

STEP_PREFIX = "step:"  # root span of one CLI call; its self time is cli.self

SIGNIF_NOTE = ("metrics.signif is one span: the per-sentence statistics it "
               "computes through metrics._METRICS are not visible to the tracer")

# a span selector is a span name, or (name, prefix of the parent's name)
SEGMENT_VITERBI = ("morf.viterbi", STEP_PREFIX + "segment")
RICHNESS_VITERBI = ("morf.viterbi", "analysis.richness")

BPE, MORPH, CRF = "bpe-mt", "morph-unsup", "crf-sup"
ALL = (BPE, MORPH, CRF)

# (metric, unit, span name, what is read, end-to-end metric it should
# move, workloads where the layer runs)
PER_LAYER = (
    ("bpe.train_s", "s", "bpe.train", "self_s", "train_s", (BPE,)),
    ("bpe.train.merges", "count", "bpe.train", "merges", "train_s", (BPE,)),
    # encode also runs on the 1000 held-out words scored for boundary_f1,
    # a step outside segment_tok_per_s
    ("bpe.encode_s", "s", "bpe.encode", "self_s", "segment_tok_per_s,pipeline_s", (BPE,)),
    ("bpe.encode.calls", "count", "bpe.encode", "calls", "segment_tok_per_s,pipeline_s",
     (BPE,)),
    ("bpe.encode.distinct_words", "count", "bpe.encode", "distinct_words",
     "segment_tok_per_s,pipeline_s", (BPE,)),
    ("bpe.load_model_s", "s", "bpe.load_model", "self_s", "setup_s", (BPE,)),
    ("morf.baseline_s", "s", "morf.baseline", "self_s", "train_s", (MORPH,)),
    ("morf.baseline.epochs", "count", "morf.baseline", "epochs", "train_s", (MORPH,)),
    ("morf.lmvr_s", "s", "morf.lmvr", "self_s", "train_s", (MORPH,)),
    ("morf.lmvr.epochs", "count", "morf.lmvr", "epochs", "train_s", (MORPH,)),
    ("morf.flatcat_s", "s", "morf.flatcat", "self_s", "train_s", (MORPH,)),
    ("morf.flatcat.em_iters", "count", "morf.flatcat", "em_iters", "train_s", (MORPH,)),
    ("morf.catlattice_s", "s", "morf.catlattice", "self_s",
     "train_s,segment_tok_per_s", (MORPH,)),
    ("morf.catlattice.calls", "count", "morf.catlattice", "calls",
     "train_s,segment_tok_per_s", (MORPH,)),
    # viterbi_segment runs under `segment` and under `analyze richness`
    ("morf.viterbi_s", "s", SEGMENT_VITERBI, "self_s", "segment_tok_per_s", (MORPH,)),
    ("morf.viterbi.calls", "count", SEGMENT_VITERBI, "calls", "segment_tok_per_s", (MORPH,)),
    ("morf.viterbi.distinct_words", "count", SEGMENT_VITERBI, "distinct_words",
     "segment_tok_per_s", (MORPH,)),
    ("morf.viterbi_richness_s", "s", RICHNESS_VITERBI, "self_s", "pipeline_s", (MORPH,)),
    ("morf.viterbi_richness.calls", "count", RICHNESS_VITERBI, "calls", "pipeline_s",
     (MORPH,)),
    ("morf.load_model_s", "s", "morf.load_model", "self_s", "setup_s", (MORPH,)),
    ("crf.llgrad_s", "s", "crf.llgrad", "self_s", "train_s", (CRF,)),
    ("crf.llgrad.calls", "count", "crf.llgrad", "calls", "train_s", (CRF,)),
    ("crf.train_s", "s", "crf.train", "self_s", "train_s", (CRF,)),
    ("crf.train.iters", "count", "crf.train", "iters", "train_s", (CRF,)),
    ("crf.features", "count", "crf.train", "features", "train_s", (CRF,)),
    ("crf.decode_s", "s", "crf.decode", "self_s", "segment_tok_per_s", (CRF,)),
    ("crf.decode.calls", "count", "crf.decode", "calls", "segment_tok_per_s", (CRF,)),
    ("crf.load_model_s", "s", "crf.load_model", "self_s", "setup_s", (CRF,)),
    ("metrics.report_s", "s", "metrics.report", "self_s", "eval_s", (BPE,)),
    ("metrics.signif_s", "s", "metrics.signif", "self_s", "eval_s,peak_rss_mb", (BPE,)),
    ("metrics.signif.trials", "count", "metrics.signif", "trials", "eval_s", (BPE,)),
    ("metrics.signif.sentences", "count", "metrics.signif", "sentences", "eval_s", (BPE,)),
    ("metrics.seg_eval_s", "s", "metrics.seg_eval", "self_s", "eval_s", ALL),
    ("corpus.stats_s", "s", "corpus.stats", "self_s", "pipeline_s", (BPE, CRF)),
    ("corpus.load_segmentation_s", "s", "corpus.load_segmentation", "self_s",
     "pipeline_s", ALL),
    ("analysis.unk_s", "s", "analysis.unk", "self_s", "pipeline_s", (BPE,)),
    ("analysis.richness_s", "s", "analysis.richness", "self_s", "pipeline_s", (MORPH,)),
    ("cli.desegment_s", "s", "cli.desegment", "self_s", "pipeline_s", ALL),
    ("cli.render_s", "s", "cli.render", "self_s", "pipeline_s", ALL),
    ("cli.self_s", "s", STEP_PREFIX, "self_s", "pipeline_s", ALL),
    # traced / untraced pipeline_s; computed by run.py, not from one span
    ("trace.overhead", "ratio", None, None, None, ALL),
)


def _selects(selector, span: dict, spans: list[dict]) -> bool:
    if selector == STEP_PREFIX:
        return span["name"].startswith(STEP_PREFIX)
    if isinstance(selector, str):
        return span["name"] == selector
    name, parent = selector
    return (span["name"] == name and span["parent"] is not None
            and spans[span["parent"]]["name"].startswith(parent))


def layer_values(spans: list[dict], factors: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, summed over its spans
    (``trace.overhead`` excluded).  A span's times are scaled to the
    reference host speed by ``factors[label]`` of the CLI step it ran in."""
    step_of = []  # span id -> label of its root step span
    for span in spans:  # a parent comes before its children
        parent = span["parent"]
        step_of.append(span["name"][len(STEP_PREFIX):] if parent is None
                       else step_of[parent])
    out = {}
    for metric, _, selector, field, _, _ in PER_LAYER:
        if selector is None:
            continue
        total = 0
        for span in spans:
            if not _selects(selector, span, spans):
                continue
            if field == "self_s":
                total += span["self_s"] * factors[step_of[span["id"]]]
            elif field == "calls":
                total += span["calls"]
            else:
                total += span["counts"].get(field, 0)
        out[metric] = total
    return out
