"""Command-line entry point wiring the library into reproducible pipelines.

Exit codes: 0 success, 2 usage or configuration, 3 data or format problems
(missing files, malformed inputs, misaligned corpora), 4 numeric failure.
All randomness flows from a single ``--seed`` (default 1917); identical
invocations on identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter

from . import analysis, bpe, corpus, crf, metrics, modelfile, morf
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ParseError,
    PolysegError,
)

DEFAULT_SEED = 1917
EOW = "eow"  # end-of-word marker on each word's final piece (bpe family)
CONT = "cont"  # continuation marker on each word's non-final pieces
MARKERS = {EOW: bpe.MARKER, CONT: "@@"}
# model family (the first header word) -> its module: load_model, save_model
# and segment_words(model, words)
SEGMENTERS = {"bpe": bpe, "morf": morf, "crf": crf}
STYLES = {"bpe": EOW, "morf": CONT, "crf": CONT}  # model family -> marker style


# -- segmented-text rendering ------------------------------------------------


def render_segmented(pieces_per_token, style: str) -> str:
    """One line of segmented text from per-token piece lists."""
    marker = MARKERS[style]
    out = []
    for pieces in pieces_per_token:
        if style == EOW:
            out.extend(pieces)  # final piece already carries the marker
        else:
            out.extend([p + marker for p in pieces[:-1]] + [pieces[-1]])
    return " ".join(out)


def desegment_line(line: str, style: str) -> str:
    """Invert :func:`render_segmented`; raises FormatError with the column
    of a stray or missing marker.  A piece ending in the marker is marked."""
    marker = MARKERS[style]
    words = []
    current = ""
    col = 1
    for piece in line.split(" "):
        marked = piece.endswith(marker)
        body = piece[: -len(marker)] if marked else piece
        if marker in body:
            raise FormatError("column %d: marker inside piece %r" % (col, piece))
        current += body
        # a marked piece ends its word under EOW and continues it under CONT
        if marked == (style == EOW):
            words.append(current)
            current = ""
        col += len(piece) + 1
    if current:
        raise FormatError("column %d: unterminated word %r at end of line" % (col - 1, current))
    return " ".join(words)


def _emit(path, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _sep(args) -> str:
    return "," if args.format == "csv" else "\t"


# -- subcommand implementations -----------------------------------------------


def _cmd_stats(args) -> int:
    pc = corpus.load_parallel(args.source, args.target)
    ref = None
    if args.train_source or args.train_target:
        if not (args.train_source and args.train_target):
            missing = "--train-target" if args.train_source else "--train-source"
            raise ConfigError("stats reference corpus needs %s too" % (missing,))
        ref = corpus.load_parallel(args.train_source, args.train_target)
    stats = corpus.corpus_stats(pc, reference_train=ref)
    _emit(args.out, corpus.stats_table(stats, sep=_sep(args)))
    print("stats: S=%d N=%s V=%s" % (stats.s, list(stats.n), list(stats.v)))
    return 0


def _cmd_seg_stats(args) -> int:
    data = corpus.load_segmentation(args.data, mode=args.mode)
    ref = corpus.load_segmentation(args.train, mode=args.mode) if args.train else None
    stats = corpus.seg_stats(data, reference_train=ref)
    _emit(args.out, corpus.seg_stats_table(stats, sep=_sep(args)))
    print(
        "seg-stats: words=%d morphs=%d morphs/word=%.2f"
        % (stats.words, stats.morphs, stats.morphs_per_word)
    )
    return 0


def _reject_marker(path, lines, marker: str) -> None:
    """A token that holds its family's marker would not desegment back to
    itself; name the first one by ``path:line``."""
    for lineno, line in enumerate(lines, 1):
        if marker in line:
            word = next(tok for tok in line.split() if marker in tok)
            raise DataError("%s:%d: word %r contains the boundary marker %r"
                            % (path, lineno, word, marker))


def _word_counts(path, marker: str | None = None) -> Counter:
    lines = corpus.read_lines(path)
    if marker is not None:
        _reject_marker(path, lines, marker)
    counts = Counter()
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise ParseError("%s:1: no tokens found" % (path,))
    return counts


def _cmd_train(args) -> int:
    if args.method == "bpe":
        model = bpe.train_bpe(_word_counts(args.input, bpe.MARKER), args.vocab_size)
        bpe.save_model(model, args.model)
        print("trained bpe: vocab size %d, %d merges -> %s"
              % (len(model.vocab), len(model.merges), args.model))
    elif args.method == "crf":
        data = corpus.load_segmentation(args.input)
        model = crf.train_crf(
            data,
            delta=args.delta,
            l2=args.l2,
            max_iters=args.max_iters,
            tol=args.tol,
        )
        crf.save_model(model, args.model)
        print("trained crf: %d features -> %s" % (len(model.feat_index), args.model))
    else:  # the morf family: morfessor, lmvr, flatcat
        counts = _word_counts(args.input)
        opts = dict(alpha=args.alpha, seed=args.seed, epsilon=args.epsilon,
                    init=args.init, restarts=args.restarts)
        cap = ""
        if args.method == "lmvr":
            model = morf.train_lmvr(counts, max_lexicon_size=args.cap, **opts)
            cap = " (cap %s)" % (args.cap,)
        else:
            model = morf.train_baseline(counts, **opts)
            if args.method == "flatcat":
                model = morf.train_flatcat(counts, model, seed=args.seed)
        morf.save_model(model, args.model)
        print("trained %s: %d morphs%s -> %s"
              % (args.method, len(model.lexicon), cap, args.model))
    return 0


def _family(path) -> str:
    """The family of the model file at ``path``, from its header alone."""
    family = modelfile.family(path)
    if family not in SEGMENTERS:
        raise ParseError("%s:1: unknown model family %r" % (path, family))
    return family


def _segmenter(path):
    """``(segment_words, style)`` for the model file at ``path``.

    ``segment_words`` maps a list of words to the list of their pieces; it
    looks ``segment_words`` up on the family's module at call time, so a
    wrapper installed there sees every call.
    """
    family = _family(path)
    module, style = SEGMENTERS[family], STYLES[family]
    model = module.load_model(path)
    return (lambda words: module.segment_words(model, words)), style


def _cmd_segment(args) -> int:
    segment_words, style = _segmenter(args.model)
    raw = corpus.read_lines(args.input)
    _reject_marker(args.input, raw, MARKERS[style])
    lines = [line.split() for line in raw]
    # every family's decoder is a pure function of (model, word), so each
    # distinct word is segmented once, in first-seen order; text repeats
    # words, Zipf-like
    distinct = list(dict.fromkeys(tok for tokens in lines for tok in tokens))
    pieces = dict(zip(distinct, segment_words(distinct)))
    out = [render_segmented([pieces[tok] for tok in tokens], style) for tokens in lines]
    _emit(args.output, "".join(line + "\n" for line in out))
    print("segmented %d lines (%s style, marker %r)" % (len(out), style, MARKERS[style]),
          file=sys.stderr)
    return 0


def _cmd_desegment(args) -> int:
    if args.model:
        style = STYLES[_family(args.model)]
    elif args.style:
        style = args.style
    else:
        raise ConfigError("desegment needs --style or --model")
    out = []
    for i, line in enumerate(corpus.read_lines(args.input), 1):
        try:
            out.append(desegment_line(line, style))
        except FormatError as exc:
            raise FormatError("%s:%d: %s" % (args.input, i, exc)) from exc
    _emit(args.output, "".join(line + "\n" for line in out))
    print("desegmented %d lines" % (len(out),), file=sys.stderr)
    return 0


def _cmd_eval_seg(args) -> int:
    pred = corpus.load_segmentation(args.pred, mode=args.pred_mode)
    gold = corpus.load_segmentation(args.gold, mode=args.gold_mode)
    corpus.check_line_counts(args.pred, pred.entries, args.gold, gold.entries)
    scorer = {"boundary": metrics.boundary_f1, "emma": metrics.emma_f1}[args.metric]
    try:
        score = scorer(pred, gold)  # compares the surfaces before scoring
    except AlignmentError as exc:
        if exc.index is None:
            raise
        i = exc.index
        raise AlignmentError("surface mismatch: %s:%d has %r, %s:%d has %r"
                             % (args.pred, i + 1, pred.entries[i].surface,
                                args.gold, i + 1, gold.entries[i].surface)) from exc
    name = args.metric + "-f1"
    _emit(args.out, corpus.table(
        ("metric", "precision", "recall", "f1", "accuracy"),
        [(name, "%.4f" % score.precision, "%.4f" % score.recall,
          "%.4f" % score.f1, "%.4f" % score.accuracy)], _sep(args)))
    print("%s: f1=%.4f accuracy=%.4f" % (name, score.f1, score.accuracy))
    return 0


def _cmd_eval_mt(args) -> int:
    hyps, refs = corpus.read_lines(args.hyp), corpus.read_lines(args.ref)
    corpus.check_line_counts(args.hyp, hyps, args.ref, refs)
    report = metrics.metric_report(args.metric, hyps, refs)
    _emit(args.out, corpus.table(("metric", "score", "signature"),
                                 [(report.metric, "%.4f" % report.score, report.signature)],
                                 _sep(args)))
    print("%s = %.4f (%s)" % (report.metric, report.score, report.signature))
    return 0


def _cmd_signif(args) -> int:
    sys_a, sys_b, refs = map(corpus.read_lines, (args.sys_a, args.sys_b, args.ref))
    corpus.check_line_counts(args.sys_a, sys_a, args.ref, refs)
    corpus.check_line_counts(args.sys_b, sys_b, args.ref, refs)
    report_a, report_b = metrics.metric_reports(args.metric, [sys_a, sys_b], refs)
    p = metrics.randomization_p(report_a, report_b, trials=args.trials, seed=args.seed)
    _emit(args.out, corpus.table(
        ("metric", "score_a", "score_b", "delta", "p_value", "trials",
         "seed", "classification", "signature"),
        [(args.metric, "%.4f" % report_a.score, "%.4f" % report_b.score,
          "%.4f" % (report_a.score - report_b.score), repr(p), args.trials,
          args.seed, metrics.significance_mark(p), report_a.signature)], _sep(args)))
    print("p=%s (%s)" % (repr(p), metrics.significance_mark(p)))
    return 0


def _cmd_analyze(args) -> int:
    if args.what == "richness":
        if args.probe_model is None or args.scores is None:
            raise ConfigError("analyze richness needs --probe-model and --scores")
        analysis.check_bins(args.bins)
        model = morf.load_model(args.probe_model)
        lines, score_lines = corpus.read_lines(args.input), corpus.read_lines(args.scores)
        corpus.check_line_counts(args.scores, score_lines, args.input, lines)
        sentences = [line.split() for line in lines]
        scores = [modelfile.field(args.scores, i, modelfile.finite, text)
                  for i, text in enumerate(score_lines, 1)]
        records = analysis.richness_table(model, sentences, scores, source=args.input)
        _emit(args.out, analysis.richness_csv(records))
        if args.bins_out:
            bins = analysis.bin_richness(records, bins=args.bins)
            _emit(args.bins_out, analysis.richness_bins_csv(bins))
        print("richness: %d records" % (len(records),))
    else:
        if args.vocab is None:
            raise ConfigError("analyze unk needs --vocab")
        vocab = set(corpus.read_lines(args.vocab))
        if not vocab:
            raise ParseError("%s:1: empty piece vocabulary" % (args.vocab,))
        segmented = [[[piece] for piece in line.split()]
                     for line in corpus.read_lines(args.input)]
        report = analysis.unk_report(segmented, vocab, system=args.system)
        _emit(args.out, analysis.unk_csv([report]))
        print(
            "unk: %d/%d pieces out of vocabulary (rate %.4f)"
            % (report.unk_tokens, report.total_tokens, report.unk_rate)
        )
    return 0


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyseg",
        description="subword/morphological segmentation and MT evaluation toolkit",
        allow_abbrev=False,
    )
    # full option names only, on every parser: a misspelt or removed option
    # would otherwise land on a longer one (`--mode` on --model)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    # every report goes to --out or stdout; tables come as tsv or csv
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("tsv", "csv"), default="tsv")

    p = command("stats", parents=[table], help="parallel-corpus statistics")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--train-source")
    p.add_argument("--train-target")
    p.set_defaults(func=_cmd_stats)

    p = command("seg-stats", parents=[table], help="segmentation-dataset statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=corpus.MODES, default=corpus.SURFACE)
    p.add_argument("--train")
    p.set_defaults(func=_cmd_seg_stats)

    p = command("train", help="train a segmentation model")
    p.add_argument("--method", required=True,
                   choices=("bpe", "morfessor", "lmvr", "flatcat", "crf"))
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab-size", type=int, default=5000)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--init", choices=("random", "words", "chars"), default="random")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--l2", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_train)

    p = command("segment", help="segment a text file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_segment)

    p = command("desegment", help="undo segmentation markers")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--model", help="take the marker style from this model file's family")
    p.add_argument("--style", choices=(EOW, CONT))
    p.set_defaults(func=_cmd_desegment)

    p = command("eval-seg", parents=[table], help="segmentation quality against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--metric", choices=("boundary", "emma"), default="emma")
    p.add_argument("--pred-mode", choices=corpus.MODES, default=corpus.SURFACE)
    p.add_argument("--gold-mode", choices=corpus.MODES, default=corpus.SURFACE)
    p.set_defaults(func=_cmd_eval_seg)

    p = command("eval-mt", parents=[table], help="translation quality against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("bleu", "chrf"), required=True)
    p.set_defaults(func=_cmd_eval_mt)

    p = command("signif", parents=[table], help="paired randomization significance test")
    p.add_argument("--sys-a", required=True)
    p.add_argument("--sys-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("bleu", "chrf"), required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_signif)

    p = command("analyze", parents=[out], help="richness and UNK diagnostics")
    p.add_argument("what", choices=("richness", "unk"))
    p.add_argument("--probe-model")
    p.add_argument("--input", required=True)
    p.add_argument("--scores")
    p.add_argument("--vocab")
    p.add_argument("--system", default="system")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--bins-out")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("polyseg: configuration error: %s" % (exc,), file=sys.stderr)
        return 2
    except NumericError as exc:
        print("polyseg: numeric failure: %s" % (exc,), file=sys.stderr)
        return 4
    except PolysegError as exc:
        print("polyseg: %s" % (exc,), file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print("polyseg: %s" % (exc,), file=sys.stderr)
        return 3


# import-time objects live as long as the process, so full collections need not rescan them
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
