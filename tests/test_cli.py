import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg import analysis, bpe, cli, crf, metrics, modelfile, morf
from polyseg.cli import desegment_line, main, render_segmented
from polyseg.errors import FormatError
from oracles import crf_oracle_decode, flatcat_oracle_segment, morf_oracle_viterbi


def run(*argv):
    return main(list(argv))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# a small legal flatcat model file; line 5 is the first <s> row
FLATCAT = """morf v1 flatcat 1.0
ka\t3
wi\t2
transitions:
<s>\tPRE\t-0.7
<s>\tSTM\t-0.7
PRE\tSTM\t0.0
STM\tSUF\t-0.7
STM\tSTM\t-0.7
emissions:
STM\tka\t-0.7
SUF\twi\t0.0
STM\twi\t-0.7
"""


@pytest.fixture
def corpus_file(tmp_path):
    return _write(tmp_path / "corpus.txt", "kawi suta kawi\nwisu kawi\nsuta wisu kawi\n")


class TestSegmentRoundTrip:
    @pytest.mark.parametrize("method,extra", [
        ("bpe", ("--vocab-size", "30")),
        ("morfessor", ()),
        ("lmvr", ()),
        ("flatcat", ()),
    ])
    def test_segment_then_desegment_identity(self, tmp_path, corpus_file, method, extra):
        model = str(tmp_path / ("m." + method))
        assert run("train", "--method", method, "--input", corpus_file,
                   "--model", model, *extra) == 0
        segged = str(tmp_path / "segged.txt")
        assert run("segment", "--model", model, "--input", corpus_file,
                   "--output", segged) == 0
        restored = str(tmp_path / "restored.txt")
        assert run("desegment", "--model", model, "--input", segged,
                   "--output", restored) == 0
        original = open(corpus_file, "rb").read()
        assert open(restored, "rb").read() == original

    def test_crf_round_trip(self, tmp_path, corpus_file):
        seg_data = _write(
            tmp_path / "train.tsv", "kawi\tka wi\nsuta\tsu ta\nwisu\twi su\n"
        )
        model = str(tmp_path / "m.crf")
        assert run("train", "--method", "crf", "--input", seg_data,
                   "--model", model, "--delta", "2", "--max-iters", "60") == 0
        segged = str(tmp_path / "segged.txt")
        assert run("segment", "--model", model, "--input", corpus_file,
                   "--output", segged) == 0
        restored = str(tmp_path / "restored.txt")
        assert run("desegment", "--style", "cont", "--input", segged,
                   "--output", restored) == 0
        assert open(restored, "rb").read() == open(corpus_file, "rb").read()

    def test_train_is_deterministic(self, tmp_path, corpus_file):
        m1, m2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        for m in (m1, m2):
            assert run("train", "--method", "morfessor", "--input", corpus_file,
                       "--model", m, "--seed", "7") == 0
        assert open(m1, "rb").read() == open(m2, "rb").read()


# one word list for every family: repeats, characters no model saw in
# training, and words of one to sixteen characters
WORDS = ["kawi", "suta", "kawi", "z", "kawisuta", "wiqu", "ta", "suta", "kawikawisutawisu",
         "\u00e9ka", "wisu", "kawi"]


def _per_word(module):
    """The per-word decoder that ``module.segment_words`` must agree with."""
    if module is crf:
        return lambda model, word: crf_oracle_decode(model, word).morphs
    if module is morf:
        return lambda model, word: (morf_oracle_viterbi(model, word) if model.categories is None
                                    else flatcat_oracle_segment(model, word)[0])
    return bpe.encode


@pytest.mark.parametrize("method,decoder", [
    ("bpe", (bpe, "encode")),
    ("morfessor", (morf, "segment_words")),
    ("crf", (crf, "segment_words")),
    ("lmvr", (morf, "segment_words")),
    ("flatcat", (morf, "segment_words")),
])
class TestSegmentCache:
    def test_each_distinct_word_decoded_once(self, trained_models, monkeypatch, tmp_path,
                                             method, decoder):
        d, _ = trained_models
        model = str(d / method)
        text = _write(tmp_path / "text.txt", "kawi suta kawi\nkawi\n\nwisu suta kawi tawi\n")
        segment_words, style = cli._segmenter(model)
        expected = "".join(
            render_segmented(segment_words(line.split()), style) + "\n"
            for line in open(text, encoding="utf-8").read().splitlines())

        module, attr = decoder
        calls = []
        real_segmenter = cli._segmenter

        def counting_segmenter(path):
            found = real_segmenter(path)
            real = getattr(module, attr)
            if attr == "segment_words":  # one call for the whole list
                def counting(model, words):
                    calls.extend(words)
                    return real(model, words)
            else:
                def counting(model, word):
                    calls.append(word)
                    return real(model, word)
            monkeypatch.setattr(module, attr, counting)
            return found

        monkeypatch.setattr(cli, "_segmenter", counting_segmenter)
        out = tmp_path / "out.txt"
        assert run("segment", "--model", model, "--input", text, "--output", str(out)) == 0
        assert out.read_text(encoding="utf-8") == expected
        assert sorted(calls) == ["kawi", "suta", "tawi", "wisu"]

    def test_segment_words_matches_the_per_word_decoder(self, trained_models, method,
                                                        decoder):
        d, _ = trained_models
        path = d / method
        module, _ = decoder
        assert cli.SEGMENTERS[modelfile.family(path)] is module
        model = module.load_model(path)
        per_word = _per_word(module)
        assert module.segment_words(model, WORDS) == [per_word(model, w) for w in WORDS]
        assert module.segment_words(model, WORDS[::-1]) == \
            module.segment_words(model, WORDS)[::-1]
        assert module.segment_words(model, []) == []
        if module is crf:
            for word in WORDS:
                assert crf.decode(model, word).morphs == crf.segment_words(model, [word])[0]


class TestSegmenterTable:
    @pytest.mark.parametrize("family,method", [
        ("bpe", "bpe"), ("crf", "crf"), ("morf", "morfessor"), ("morf", "flatcat"),
    ])
    def test_each_module_round_trips_its_family(self, trained_models, tmp_path, family,
                                                method):
        assert sorted(cli.SEGMENTERS) == ["bpe", "crf", "morf"]
        module = cli.SEGMENTERS[family]
        for attr in ("load_model", "save_model", "segment_words"):
            assert callable(getattr(module, attr, None)), attr
        d, _ = trained_models
        resaved = tmp_path / "resaved"
        module.save_model(module.load_model(d / method), resaved)
        assert modelfile.family(resaved) == family

    @pytest.mark.parametrize("command", ("segment", "desegment"))
    def test_unknown_family_is_3_at_line_1(self, tmp_path, corpus_file, capsys, command):
        model = _write(tmp_path / "m.lzw", "lzw v1 30\n")
        assert run(command, "--model", model, "--input", corpus_file) == 3
        err = capsys.readouterr().err
        assert "%s:1: unknown model family 'lzw'" % (model,) in err
        assert "Traceback" not in err


class TestDesegmentHelpers:
    def test_eow_rendering(self):
        line = render_segmented([["ka", "wi</w>"], ["su</w>"]], "eow")
        assert line == "ka wi</w> su</w>"
        assert desegment_line(line, "eow") == "kawi su"

    def test_cont_rendering(self):
        line = render_segmented([["ka", "wi"], ["su"]], "cont")
        assert line == "ka@@ wi su"
        assert desegment_line(line, "cont") == "kawi su"

    def test_stray_marker_reports_position(self):
        with pytest.raises(FormatError, match="^column 8: marker inside piece 'ka</w>wi'$"):
            desegment_line("su</w> ka</w>wi su</w>", "eow")

    def test_dangling_word_rejected(self):
        with pytest.raises(FormatError):
            desegment_line("ka wi</w> su", "eow")
        with pytest.raises(FormatError):
            desegment_line("ka@@", "cont")


class TestStats:
    def test_stats_table(self, tmp_path, capsys):
        src = _write(tmp_path / "s.txt", "a b a\nb c\n")
        tgt = _write(tmp_path / "t.txt", "x y\nz z\n")
        out = tmp_path / "stats.tsv"
        assert run("stats", "--source", src, "--target", tgt, "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == [
            "side", "S", "N", "V", "V1", "V/N", "V1/N", "OOV", "pctOOV"
        ]
        # source tokens: a b a b c -> N=5, V=3, hapax only c
        assert lines[1].split("\t")[1:5] == ["2", "5", "3", "1"]

    def test_csv_format(self, tmp_path):
        src = _write(tmp_path / "s.txt", "a b a\n")
        tgt = _write(tmp_path / "t.txt", "x y\n")
        out = tmp_path / "stats.csv"
        assert run("stats", "--source", src, "--target", tgt,
                   "--format", "csv", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == (
            "side,S,N,V,V1,V/N,V1/N,OOV,pctOOV"
        )

    def test_misaligned_corpora_exit_3(self, tmp_path):
        src = _write(tmp_path / "s.txt", "a\nb\n")
        tgt = _write(tmp_path / "t.txt", "x\n")
        assert run("stats", "--source", src, "--target", tgt) == 2 + 1

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path, capsys):
        text = "kawi suta\nkawi\n".encode("utf-8")
        outputs = []
        for name, data in (("plain.txt", text), ("marked.txt", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name
            path.write_bytes(data)
            assert run("stats", "--source", str(path), "--target", str(path)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "V=[2, 2]" in outputs[1]

    def test_invalid_utf8_is_3_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"kawi\nsu\xffta\n")
        assert run("stats", "--source", str(path), "--target", str(path)) == 3
        assert "%s:2: invalid UTF-8" % path in capsys.readouterr().err

    def test_seg_stats(self, tmp_path):
        data = _write(tmp_path / "d.tsv", "kawi\tka wi\nsu\tsu\n")
        out = tmp_path / "seg.tsv"
        assert run("seg-stats", "--data", data, "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1].split("\t")[:4] == ["2", "1", "3", "3"]


class TestEval:
    def test_eval_mt_identity(self, tmp_path):
        hyp = _write(tmp_path / "h.txt", "ka wi su ta\n")
        out = tmp_path / "r.tsv"
        assert run("eval-mt", "--hyp", hyp, "--ref", hyp, "--metric", "bleu",
                   "--out", str(out)) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[1] == "100.0000"
        assert row[2] == "BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a"

    def test_eval_seg_reports_metric_name_in_header(self, tmp_path):
        pred = _write(tmp_path / "p.tsv", "kawi\tka wi\n")
        gold = _write(tmp_path / "g.tsv", "kawi\tkaw i\n")
        out = tmp_path / "r.tsv"
        for metric, name in (("boundary", "boundary-f1"), ("emma", "emma-f1")):
            assert run("eval-seg", "--pred", pred, "--gold", gold,
                       "--metric", metric, "--out", str(out)) == 0
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines[0].startswith("metric\t")
            assert lines[1].startswith(name)

    def test_eval_seg_emma_report_bytes(self, tmp_path, capsys):
        # repeated morphs in a word (ka ka, su su, wi wi) and types left
        # unmatched on both sides (suta, kata; kawi, miw, i): 7 of 10
        # predicted and 11 gold tokens matched
        pred = _write(tmp_path / "p.tsv", "kakawi\tka ka wi\nsusuta\tsu suta\nmiwi\tmi wi\n"
                                          "kata\tkata\nwiwi\twi wi\n")
        gold = _write(tmp_path / "g.tsv", "kakawi\tka kawi\nsusuta\tsu su ta\nmiwi\tmiw i\n"
                                          "kata\tka ta\nwiwi\twi wi\n")
        out = tmp_path / "r.tsv"
        assert run("eval-seg", "--pred", pred, "--gold", gold, "--metric", "emma",
                   "--out", str(out)) == 0
        assert out.read_bytes() == (b"metric\tprecision\trecall\tf1\taccuracy\n"
                                    b"emma-f1\t0.7000\t0.6364\t0.6667\t0.2000\n")
        assert capsys.readouterr() == ("emma-f1: f1=0.6667 accuracy=0.2000\n", "")

    def test_crf_canonical_training_exits_3(self, tmp_path, capsys):
        # crf trains on surface segmentations only, so a canonical analysis
        # fails the concatenation check at its line
        data = _write(tmp_path / "c.tsv", "kawi\tkaw i2\n")
        model = str(tmp_path / "m.crf")
        assert run("train", "--method", "crf", "--input", data, "--model", model) == 3
        assert "%s:1: morphs ['kaw', 'i2'] do not concatenate" % (data,) in capsys.readouterr().err

    def test_train_mode_is_an_unknown_argument(self, tmp_path):
        data = _write(tmp_path / "c.tsv", "kawi\tka wi\n")
        with pytest.raises(SystemExit) as exc:
            run("train", "--method", "crf", "--input", data, "--model",
                str(tmp_path / "m.crf"), "--mode", "surface")
        assert exc.value.code == 2

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_eval_mt_breaks_lines_only_at_newlines(self, tmp_path, capsys, metric):
        # U+2028 and U+0085 end a line for str.splitlines, not for a file
        hyps = ["ka wi\u2028su ta", "mi pe\x85ka wi"]
        refs = ["ka wi su ta", "mi pe ka ka"]
        hyp = _write(tmp_path / "h.txt", "".join(h + "\n" for h in hyps))
        ref = _write(tmp_path / "r.txt", "".join(r + "\n" for r in refs))
        assert run("eval-mt", "--hyp", hyp, "--ref", ref, "--metric", metric,
                   "--out", str(tmp_path / "out.tsv")) == 0
        report = metrics.metric_report(metric, hyps, refs)
        assert capsys.readouterr().out == "%s = %.4f (%s)\n" % (
            metric, report.score, report.signature)

    def test_signif_identical_systems(self, tmp_path, capsys):
        sys_a = _write(tmp_path / "a.txt", "ka wi su ta\nmi pe ka wi\n")
        refs = _write(tmp_path / "r.txt", "ka wi su ta\nmi pe ka ka\n")
        out = tmp_path / "sig.tsv"
        assert run("signif", "--sys-a", sys_a, "--sys-b", sys_a, "--ref", refs,
                   "--metric", "chrf", "--out", str(out)) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[4] == "1.0"
        assert row[7] == "not-significant"
        assert capsys.readouterr().out.strip().startswith("p=1.0")


class TestStatisticsPasses:
    """Each MT command reads every input line into n-gram counts once:
    signif shares the references between both systems and scores both
    systems and the randomization from the same statistics."""

    REFS = ["ka wi su ta", "mi pe ka wi", "su su ta"]
    SYS_A = ["ka wi su tu", "mi pe ka", "su ta"]
    SYS_B = ["ka wi ta ta", "mi pe ka wi", "su su"]

    @pytest.fixture
    def passes(self, monkeypatch):
        calls, lines = [], []
        real = metrics._sentence_stats

        def counting_stats(metric, systems, refs):
            calls.append(len(systems))
            return real(metric, systems, refs)

        monkeypatch.setattr(metrics, "_sentence_stats", counting_stats)
        for name, m in list(metrics._METRICS.items()):
            monkeypatch.setitem(metrics._METRICS, name, m._replace(
                symbols=lambda line, symbols=m.symbols: lines.append(line) or symbols(line)))
        return calls, lines

    def _files(self, tmp_path):
        return [_write(tmp_path / name, "\n".join(lines) + "\n") for name, lines in
                (("r.txt", self.REFS), ("a.txt", self.SYS_A), ("b.txt", self.SYS_B))]

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_signif_reads_each_line_once(self, tmp_path, passes, metric):
        refs, sys_a, sys_b = self._files(tmp_path)
        assert run("signif", "--sys-a", sys_a, "--sys-b", sys_b, "--ref", refs,
                   "--metric", metric, "--trials", "50") == 0
        calls, lines = passes
        assert calls == [2]
        assert sorted(lines) == sorted(self.REFS + self.SYS_A + self.SYS_B)

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_eval_mt_reads_each_line_once(self, tmp_path, passes, metric):
        refs, sys_a, _ = self._files(tmp_path)
        assert run("eval-mt", "--hyp", sys_a, "--ref", refs, "--metric", metric) == 0
        calls, lines = passes
        assert calls == [1]
        assert sorted(lines) == sorted(self.REFS + self.SYS_A)


class TestAnalyze:
    def test_unk_csv(self, tmp_path):
        vocab = _write(tmp_path / "v.txt", "ka\nwi\n")
        segged = _write(tmp_path / "s.txt", "ka wi\nka xx\n")
        out = tmp_path / "unk.csv"
        assert run("analyze", "unk", "--vocab", vocab, "--input", segged,
                   "--system", "demo", "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "system,total,unk,rate"
        assert lines[1].startswith("demo,4,1,")

    def test_unk_csv_quotes_a_system_name_with_a_comma(self, tmp_path):
        vocab = _write(tmp_path / "v.txt", "ka\nwi\n")
        segged = _write(tmp_path / "s.txt", "ka xx\n")
        out = tmp_path / "unk.csv"
        assert run("analyze", "unk", "--vocab", vocab, "--input", segged,
                   "--system", "bpe,30k", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == 'system,total,unk,rate\n"bpe,30k",2,1,0.5\n'

    def test_empty_vocab_file_is_3_at_line_1(self, tmp_path, capsys):
        vocab = _write(tmp_path / "v.txt", "")
        segged = _write(tmp_path / "s.txt", "ka wi\n")
        assert run("analyze", "unk", "--vocab", vocab, "--input", segged) == 3
        err = capsys.readouterr().err
        assert "%s:1: empty piece vocabulary" % (vocab,) in err
        assert "Traceback" not in err

    def test_richness_csv(self, tmp_path, corpus_file):
        model = str(tmp_path / "m.morf")
        assert run("train", "--method", "morfessor", "--input", corpus_file,
                   "--model", model) == 0
        scores = _write(tmp_path / "scores.txt", "10.0\n20.0\n30.0\n")
        out = tmp_path / "rich.csv"
        bins_out = tmp_path / "bins.csv"
        assert run("analyze", "richness", "--probe-model", model,
                   "--input", corpus_file, "--scores", scores,
                   "--out", str(out), "--bins-out", str(bins_out)) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == "idx,richness,score"
        assert bins_out.read_text(encoding="utf-8").splitlines()[0] == (
            "bin_lo,bin_hi,count,mean_score"
        )

    @pytest.mark.parametrize("bins", [0, analysis.MAX_BINS + 1])
    def test_bins_out_of_range_is_2_before_any_output(self, tmp_path, corpus_file, capsys,
                                                      bins):
        model = str(tmp_path / "m.morf")
        assert run("train", "--method", "morfessor", "--input", corpus_file,
                   "--model", model) == 0
        scores = _write(tmp_path / "scores.txt", "10.0\n20.0\n30.0\n")
        out, bins_out = tmp_path / "rich.csv", tmp_path / "bins.csv"
        assert run("analyze", "richness", "--probe-model", model, "--input", corpus_file,
                   "--scores", scores, "--bins", str(bins), "--out", str(out),
                   "--bins-out", str(bins_out)) == 2
        assert ("bins must be between 1 and %d, got %d" % (analysis.MAX_BINS, bins)
                in capsys.readouterr().err)
        assert not out.exists() and not bins_out.exists()


class TestExitCodes:
    def test_missing_file_is_3(self, tmp_path):
        assert run("stats", "--source", str(tmp_path / "nope"),
                   "--target", str(tmp_path / "nope2")) == 3

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--method", "unknown-method", "--input", "x", "--model", "y")
        assert exc.value.code == 2

    def test_infeasible_cap_is_2(self, tmp_path, corpus_file):
        assert run("train", "--method", "lmvr", "--input", corpus_file,
                   "--model", str(tmp_path / "m"), "--cap", "1") == 2

    @pytest.mark.parametrize("method", ["morfessor", "lmvr", "flatcat"])
    @pytest.mark.parametrize("alpha", ["inf", "nan", "-1e999"])
    def test_non_finite_alpha_is_2(self, tmp_path, corpus_file, capsys, method, alpha):
        model = tmp_path / "m"
        assert run("train", "--method", method, "--input", corpus_file,
                   "--model", str(model), "--alpha=" + alpha) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("method", ["morfessor", "lmvr", "flatcat"])
    @pytest.mark.parametrize("alpha", ["1e200", "-1.5e100"])
    def test_alpha_above_the_file_bound_is_2(self, tmp_path, corpus_file, capsys, alpha,
                                             method):
        model = tmp_path / "m"
        assert run("train", "--method", method, "--input", corpus_file,
                   "--model", str(model), "--alpha=" + alpha) == 2
        assert "alpha %r is above 1e+100" % (float(alpha),) in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("method", ["morfessor", "lmvr"])  # flatcat: huge-alpha below
    def test_model_file_alpha_above_the_bound_is_3_at_line_1(self, trained_models, tmp_path,
                                                            capsys, method):
        d, texts = trained_models
        head, rest = texts[method].split("\n", 1)
        fields = head.split(" ")
        fields[3] = "1e200"
        model = _write(tmp_path / "m", " ".join(fields) + "\n" + rest)
        assert run("segment", "--model", model, "--input", str(d / "corpus.txt"),
                   "--output", str(tmp_path / "out")) == 3
        assert "%s:1: alpha 1e+200 is above 1e+100" % (model,) in capsys.readouterr().err

    def test_stray_marker_is_3(self, tmp_path):
        bad = _write(tmp_path / "bad.txt", "ka</w>wi\n")
        assert run("desegment", "--style", "eow", "--input", bad) == 3

    @pytest.mark.parametrize("method", ["bpe", "morfessor"])
    def test_training_text_without_tokens_is_3_at_line_1(self, tmp_path, capsys, method):
        blank = _write(tmp_path / "blank.txt", "\n  \n")
        model = tmp_path / "m"
        assert run("train", "--method", method, "--input", blank, "--model", str(model)) == 3
        assert capsys.readouterr().err == "polyseg: %s:1: no tokens found\n" % (blank,)
        assert not model.exists()

    def test_bpe_marker_in_training_token_is_3(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.txt", "kawi suta\nwisu ab</w>c kawi\n")
        model = tmp_path / "m.bpe"
        assert run("train", "--method", "bpe", "--input", bad, "--model", str(model)) == 3
        assert ("%s:2: word 'ab</w>c' contains the boundary marker '</w>'" % (bad,)
                in capsys.readouterr().err)
        assert not model.exists()

    def test_bpe_marker_in_segmented_token_is_3(self, trained_models, tmp_path, capsys):
        d, _ = trained_models
        bad = _write(tmp_path / "bad.txt", "ab</w>c kawi\n")
        out = tmp_path / "seg.txt"
        assert run("segment", "--model", str(d / "bpe"), "--input", bad,
                   "--output", str(out)) == 3
        assert ("%s:1: word 'ab</w>c' contains the boundary marker '</w>'" % (bad,)
                in capsys.readouterr().err)
        assert not out.exists()

    def test_corrupt_score_file_is_3(self, tmp_path, corpus_file, capsys):
        model = str(tmp_path / "m.morf")
        assert run("train", "--method", "morfessor", "--input", corpus_file,
                   "--model", model) == 0
        capsys.readouterr()
        out = tmp_path / "rich.csv"
        for score in ("not-a-number", "nan", "inf", "-inf"):
            scores = _write(tmp_path / "scores.txt", "10.0\n%s\n1.0\n" % (score,))
            assert run("analyze", "richness", "--probe-model", model, "--input", corpus_file,
                       "--scores", scores, "--out", str(out)) == 3
            assert "%s:2: bad field %r" % (scores, score) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("method", ["morfessor", "lmvr", "flatcat"])
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-1"])
    def test_bad_epsilon_is_2(self, tmp_path, corpus_file, capsys, method, epsilon):
        model = tmp_path / "m"
        assert run("train", "--method", method, "--input", corpus_file,
                   "--model", str(model), "--epsilon=" + epsilon) == 2
        err = capsys.readouterr().err
        assert "epsilon must be finite and at least 0" in err and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("method", ["morfessor", "lmvr", "flatcat"])
    def test_zero_epsilon_trains(self, tmp_path, corpus_file, method):
        model = tmp_path / "m"
        assert run("train", "--method", method, "--input", corpus_file,
                   "--model", str(model), "--epsilon", "0") == 0
        assert model.exists()

    @pytest.mark.parametrize("argv,option", [
        (("richness", "--scores", "{d}/corpus.txt"), "--probe-model"),
        (("richness", "--probe-model", "{d}/morfessor"), "--scores"),
        (("unk",), "--vocab"),
    ])
    def test_analyze_without_its_input_is_2(self, trained_models, capsys, argv, option):
        d, _ = trained_models
        assert run("analyze", *(a.format(d=d) for a in argv),
                   "--input", str(d / "corpus.txt")) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("given,missing", [
        ("--train-source", "--train-target"),
        ("--train-target", "--train-source"),
    ])
    def test_stats_with_half_a_reference_corpus_is_2(self, corpus_file, capsys,
                                                      given, missing):
        assert run("stats", "--source", corpus_file, "--target", corpus_file,
                   given, corpus_file) == 2
        assert missing in capsys.readouterr().err

    def test_empty_richness_line_is_3(self, trained_models, tmp_path, capsys):
        d, _ = trained_models
        text = _write(tmp_path / "text.txt", "kawi suta\n\nwisu\n")
        scores = _write(tmp_path / "scores.txt", "1.0\n2.0\n3.0\n")
        assert run("analyze", "richness", "--probe-model", str(d / "morfessor"),
                   "--input", text, "--scores", scores) == 3
        err = capsys.readouterr().err
        assert "%s:2: sentence has no tokens" % (text,) in err
        assert "Traceback" not in err

    def test_blank_richness_line_names_the_input(self, trained_models, tmp_path, capsys):
        d, _ = trained_models
        text = _write(tmp_path / "text.txt", "kawi suta\nwisu\n  \t \n")
        scores = _write(tmp_path / "scores.txt", "1.0\n2.0\n3.0\n")
        assert run("analyze", "richness", "--probe-model", str(d / "flatcat"),
                   "--input", text, "--scores", scores) == 3
        assert capsys.readouterr().err.endswith("%s:3: sentence has no tokens\n" % (text,))

    def test_crf_delta_zero_is_2(self, trained_models, tmp_path):
        d, _ = trained_models
        assert run("train", "--method", "crf", "--input", str(d / "gold.tsv"),
                   "--model", str(tmp_path / "m.crf"), "--delta", "0") == 2

    def test_crf_delta_above_the_bound_is_2_at_once(self, trained_models, tmp_path, capsys):
        # rejected before the features get 2 * delta + 1 slots per position
        d, _ = trained_models
        model = tmp_path / "m.crf"
        start = time.perf_counter()
        assert run("train", "--method", "crf", "--input", str(d / "gold.tsv"),
                   "--model", str(model), "--delta", "1000000") == 2
        assert time.perf_counter() - start < 1.0
        assert "between 1 and %d" % (crf.MAX_DELTA,) in capsys.readouterr().err
        assert not model.exists()

    def test_abbreviated_option_is_2(self, trained_models, tmp_path):
        # `--inp` would otherwise be read as --input
        d, _ = trained_models
        text = _write(tmp_path / "text.txt", "kawi\n")
        with pytest.raises(SystemExit) as exc:
            run("segment", "--model", str(d / "crf"), "--inp", text)
        assert exc.value.code == 2

    @pytest.mark.parametrize("l2", ("nan", "inf", "-inf", "-1", "-1e-300"))
    def test_crf_bad_l2_is_2(self, tmp_path, capsys, l2):
        data = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        model = tmp_path / "m.crf"
        assert run("train", "--method", "crf", "--input", data, "--model", str(model),
                   "--l2=" + l2) == 2
        assert "l2" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("option,value", [
        ("--max-iters", "0"), ("--max-iters", "-1"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
    ])
    def test_crf_bad_stopping_rule_is_2(self, tmp_path, capsys, option, value):
        data = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        model = tmp_path / "m.crf"
        assert run("train", "--method", "crf", "--input", data, "--model", str(model),
                   "%s=%s" % (option, value)) == 2
        assert option[2:].replace("-", "_") in capsys.readouterr().err
        assert not model.exists()

    def test_crf_zero_tol_trains(self, tmp_path):
        data = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        model = tmp_path / "m.crf"
        assert run("train", "--method", "crf", "--input", data, "--model", str(model),
                   "--tol", "0", "--max-iters", "2") == 0
        assert model.exists()

    @pytest.mark.parametrize("argv", [
        ("eval-seg", "--pred", "{empty}", "--gold", "{gold}", "--metric", "boundary"),
        ("eval-seg", "--pred", "{empty}", "--gold", "{gold}", "--metric", "emma"),
        ("eval-seg", "--pred", "{gold}", "--gold", "{empty}", "--metric", "boundary"),
        ("eval-seg", "--pred", "{gold}", "--gold", "{empty}", "--metric", "emma"),
        ("train", "--method", "crf", "--input", "{empty}", "--model", "{out}"),
        ("seg-stats", "--data", "{empty}", "--out", "{out}"),
        ("seg-stats", "--data", "{gold}", "--train", "{empty}", "--out", "{out}"),
    ])
    def test_empty_segmentation_file_is_3(self, tmp_path, capsys, argv):
        paths = {"empty": _write(tmp_path / "empty.tsv", ""),
                 "gold": _write(tmp_path / "gold.tsv", "kawi\tka wi\n"),
                 "out": str(tmp_path / "out")}
        if argv[0] == "eval-seg":
            argv += ("--out", "{out}")
        assert run(*[arg.format(**paths) for arg in argv]) == 3
        err = capsys.readouterr().err
        assert "%s:1: no segmentation entries" % (paths["empty"],) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_crf_zero_l2_trains(self, tmp_path):
        data = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        model = tmp_path / "m.crf"
        assert run("train", "--method", "crf", "--input", data, "--model", str(model),
                   "--l2", "0", "--max-iters", "2") == 0
        assert model.read_text(encoding="utf-8").startswith("crf v1 3 0.0\n")

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    def test_empty_mt_inputs(self, tmp_path, capsys, metric):
        empty = _write(tmp_path / "empty.txt", "")
        assert run("eval-mt", "--hyp", empty, "--ref", empty, "--metric", metric,
                   "--out", str(tmp_path / "r")) == 0
        assert capsys.readouterr().out.startswith("%s = 0.0000 (" % (metric,))
        assert run("signif", "--sys-a", empty, "--sys-b", empty, "--ref", empty,
                   "--metric", metric, "--out", str(tmp_path / "r")) == 0
        assert capsys.readouterr().out == "p=1.0 (not-significant)\n"

    @pytest.mark.parametrize("old,new", [
        ("flatcat 1.0", "flatcat 1e100"),
        ("flatcat 1.0", "flatcat -1e100"),
        ("STM\tSUF\t-0.7", "STM\tSUF\t-1e100"),
        ("STM\tka\t-0.7", "STM\tka\t1e100"),
    ])
    def test_flatcat_magnitudes_at_the_bound_decode(self, tmp_path, corpus_file, old, new):
        model = _write(tmp_path / "bound.model", FLATCAT.replace(old, new))
        assert run("segment", "--model", model, "--input", corpus_file,
                   "--output", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("old,new,line", [
        pytest.param("ka\t3", "ka\t-1", 2, id="negative-lexicon-count"),
        pytest.param("flatcat 1.0", "flatcat nan", 1, id="nan-alpha"),
        pytest.param("flatcat 1.0", "flatcat inf", 1, id="infinite-alpha"),
        pytest.param("<s>\tSTM\t-0.7", "<s>\tSTM\tnan", 6, id="nan-start"),
        pytest.param("STM\tSUF\t-0.7", "STM\tSUF\t-inf", 8, id="infinite-transition"),
        pytest.param("STM\tka\t-0.7", "STM\tka\tnan", 11, id="nan-emission"),
        pytest.param("SUF\twi", "AFX\twi", 12, id="unknown-emission-category"),
        pytest.param("STM\tSTM", "STM\tROOT", 9, id="unknown-transition-category"),
        pytest.param("<s>\tPRE", "<s>\tSUF", 5, id="start-with-a-suffix"),
        pytest.param("PRE\tSTM", "PRE\tSUF", 7, id="transition-not-allowed"),
        pytest.param("<s>\tSTM\t-0.7\n", "", 5, id="no-final-start-category"),
        pytest.param("STM\tSTM\t-0.7", "STM\tSUF\t-0.2", 9, id="repeated-transition"),
        pytest.param("STM\twi\t-0.7", "STM\tka\t-0.3", 13, id="repeated-emission"),
        pytest.param("flatcat 1.0", "flatcat 1e308", 1, id="huge-alpha"),
        pytest.param("flatcat 1.0", "flatcat -1.5e100", 1, id="huge-negative-alpha"),
        pytest.param("<s>\tSTM\t-0.7", "<s>\tSTM\t-1e101", 6, id="huge-start"),
        pytest.param("STM\tSUF\t-0.7", "STM\tSUF\t-1e308", 8, id="huge-transition"),
        pytest.param("STM\tka\t-0.7", "STM\tka\t1e200", 11, id="huge-emission"),
    ])
    def test_hostile_morf_model_is_3_naming_the_line(self, tmp_path, corpus_file, capsys,
                                                      old, new, line):
        assert run("segment", "--model", _write(tmp_path / "legal.model", FLATCAT),
                   "--input", corpus_file, "--output", str(tmp_path / "out")) == 0
        assert FLATCAT.count(old) == 1
        model = _write(tmp_path / "hostile.model", FLATCAT.replace(old, new))
        assert run("segment", "--model", model, "--input", corpus_file) == 3
        err = capsys.readouterr().err
        assert "%s:%d:" % (model, line) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("stats", "--source", "{bad}", "--target", "{bad}"),
        ("seg-stats", "--data", "{bad}"),
        ("train", "--method", "bpe", "--input", "{bad}", "--model", "{t}/m"),
        ("segment", "--model", "{bad}", "--input", "{d}/corpus.txt"),
        ("segment", "--model", "{d}/bpe", "--input", "{bad}"),
        ("eval-mt", "--hyp", "{bad}", "--ref", "{d}/corpus.txt", "--metric", "chrf"),
    ])
    @pytest.mark.parametrize("content", [b"ka\xffwi\n", b"bpe v1 \xff\n", None],
                             ids=["undecodable", "undecodable-header", "directory"])
    def test_unreadable_file_is_3_naming_it(self, trained_models, tmp_path, capsys,
                                            command, content):
        d, _ = trained_models
        bad = tmp_path / "bad"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        assert run(*(a.format(bad=bad, d=d, t=tmp_path) for a in command)) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


class TestInputErrorsNameTheirFiles:
    """Misaligned inputs and bad segmented text exit 3 naming each file
    involved, with the line where it can be told."""

    def test_eval_seg_surface_mismatch(self, tmp_path, capsys):
        pred = _write(tmp_path / "p.tsv", "kawi\tka wi\nsuto\tsu to\n")
        gold = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        assert run("eval-seg", "--pred", pred, "--gold", gold) == 3
        assert capsys.readouterr().err == (
            "polyseg: surface mismatch: %s:2 has 'suto', %s:2 has 'suta'\n" % (pred, gold))

    def test_eval_mt_line_counts(self, tmp_path, capsys):
        hyp = _write(tmp_path / "h.txt", "ka wi\n")
        ref = _write(tmp_path / "r.txt", "ka wi\nsu ta\n")
        assert run("eval-mt", "--hyp", hyp, "--ref", ref, "--metric", "bleu") == 3
        assert capsys.readouterr().err == (
            "polyseg: line count mismatch: %s has 1 lines, %s has 2\n" % (hyp, ref))

    @pytest.mark.parametrize("short", ("--sys-a", "--sys-b"))
    def test_signif_names_the_short_system(self, tmp_path, capsys, short):
        full = _write(tmp_path / "full.txt", "ka wi\nsu ta\n")
        cut = _write(tmp_path / "cut.txt", "ka wi\n")
        systems = {"--sys-a": full, "--sys-b": full, short: cut}
        assert run("signif", "--sys-a", systems["--sys-a"], "--sys-b", systems["--sys-b"],
                   "--ref", full, "--metric", "chrf") == 3
        assert capsys.readouterr().err == (
            "polyseg: line count mismatch: %s has 1 lines, %s has 2\n" % (cut, full))

    def test_richness_with_an_empty_scores_file(self, trained_models, tmp_path, capsys):
        d, _ = trained_models
        text = _write(tmp_path / "text.txt", "kawi suta\nwisu\nkawi\n")
        scores = _write(tmp_path / "scores.txt", "")
        assert run("analyze", "richness", "--probe-model", str(d / "morfessor"),
                   "--input", text, "--scores", scores) == 3
        assert capsys.readouterr().err == (
            "polyseg: line count mismatch: %s has 0 lines, %s has 3\n" % (scores, text))

    @pytest.mark.parametrize("text,message", [
        ("kawi\nka@@\n", "2: column 5: unterminated word 'ka' at end of line"),
        ("ka@@ wi\nka@@wi su\n", "2: column 1: marker inside piece 'ka@@wi'"),
    ])
    def test_desegment_names_file_and_line(self, tmp_path, capsys, text, message):
        path = _write(tmp_path / "seg.txt", text)
        assert run("desegment", "--style", "cont", "--input", path) == 3
        assert capsys.readouterr().err == "polyseg: %s:%s\n" % (path, message)

    @pytest.mark.parametrize("sides", ("evaluated", "reference"))
    def test_stats_on_an_empty_corpus(self, tmp_path, corpus_file, capsys, sides):
        empty = _write(tmp_path / "empty.txt", "")
        argv = ["--source", empty, "--target", empty]
        if sides == "reference":
            argv = ["--source", corpus_file, "--target", corpus_file,
                    "--train-source", empty, "--train-target", empty]
        assert run("stats", *argv) == 3
        assert capsys.readouterr().err == "polyseg: %s:1: empty corpus\n" % (empty,)


class TestMalformedModelFiles:
    @pytest.mark.parametrize("text,line", [
        pytest.param("morf v1 baseline\nka\t3\n", 1, id="short-morf-header"),
        pytest.param("crf v1 2 0.01\n0:k\tX\t0.5\ntransitions:\n", 2,
                     id="unknown-crf-label"),
        pytest.param("morf v1 baseline 1.0\nka\t3\nwi\tmany\n", 3, id="non-integer-count"),
        pytest.param("crf v1 2 0.01\n0k\tB\t0.5\n", 2, id="crf-key-without-colon"),
        pytest.param("crf v1 2 0.01\n0:w\tB\tnan\ntransitions:\n", 2,
                     id="non-finite-crf-weight"),
        pytest.param("bpe v1 thirty </w>\nk\ta\n", 1, id="non-numeric-bpe-header"),
        pytest.param("bpe v1 30 \nk\ta\n", 1, id="empty-header-field"),
        pytest.param("bpe v1 30 @@\nk\ta\n", 1, id="foreign-bpe-marker"),
        pytest.param("", 1, id="empty-file"),
        pytest.param("lzw v1 30\n", 1, id="unknown-family"),
        pytest.param("crf v1 0 0.01\n0:k\tB\t0.5\ntransitions:\n", 1, id="crf-delta-zero"),
        pytest.param("crf v1 2 nan\n0:k\tB\t0.5\ntransitions:\n", 1, id="crf-l2-nan"),
        pytest.param("crf v1 2 inf\n0:k\tB\t0.5\ntransitions:\n", 1, id="crf-l2-inf"),
        pytest.param("crf v1 2 -0.5\n0:k\tB\t0.5\ntransitions:\n", 1,
                     id="crf-l2-negative"),
        pytest.param("morf v1 flatkat 1.0\nka\t3\n", 1, id="unknown-morf-variant"),
        pytest.param("morf v1 baseline 1.0\nka\t3\nwi\t2\nka\t5\n", 4,
                     id="repeated-lexicon-morph"),
        pytest.param("morf v1 baseline 1.0\nka\t3\ntransitions:\n<s>\tSTM\t0.0\n", 4,
                     id="baseline-with-transition-rows"),
        pytest.param("morf v1 lmvr 1.0 12\nka\t3\nemissions:\nSTM\tka\t0.0\n", 4,
                     id="lmvr-with-emission-rows"),
        pytest.param("crf v1 2 0.01\n0:k\tB\t0.5\n1:a\tB\t0.1\n0:k\tB\t0.7\n"
                     "transitions:\n", 4, id="repeated-crf-feature-row"),
        pytest.param("crf v1 2 0.01\n0:k\tB\t0.5\ntransitions:\nB\tE\t0.1\nE\tB\t0.0\n"
                     "B\tE\t0.3\n", 6, id="repeated-crf-transition"),
        pytest.param("morf v1 flatcat 1.0\nka\t3\nwi\t2\n", 1,
                     id="flatcat-cut-before-transitions"),
        pytest.param("morf v1 flatcat 1.0\nka\t3\nwi\t2\ntransitions:\nSTM\tSUF\t-0.5\n",
                     1, id="flatcat-cut-before-start-rows"),
        pytest.param("morf v1 flatcat 1.0\nka\t3\nwi\t2\ntransitions:\n<s>\tSTM\t0.0\n"
                     "STM\tSTM\t0.0\n", 1, id="flatcat-cut-before-emissions"),
        pytest.param("crf v1 2 0.01\n0:k\tB\t0.5\n1:a\tE\t0.1\n", 1,
                     id="crf-cut-before-transitions"),
    ])
    def test_segment_exits_3_naming_file_and_line(self, tmp_path, corpus_file, capsys,
                                                  text, line):
        model = _write(tmp_path / "bad.model", text)
        assert run("segment", "--model", model, "--input", corpus_file) == 3
        err = capsys.readouterr().err
        assert "%s:%d:" % (model, line) in err
        assert "Traceback" not in err

    def test_desegment_reads_only_the_family(self, tmp_path, capsys):
        # cut short in its feature rows: segment rejects it, desegment
        # needs no more than the header's first word
        model = _write(tmp_path / "cut.crf", "crf v1 2 0.01\n0:k\tB\t0.5\n1:a\tE\t0.1\n")
        text = _write(tmp_path / "text.txt", "kawi suta\n")
        assert run("segment", "--model", model, "--input", text) == 3
        assert "%s:1:" % (model,) in capsys.readouterr().err
        segmented = _write(tmp_path / "segmented.txt", "ka@@ wi su@@ ta\n")
        restored = tmp_path / "restored.txt"
        assert run("desegment", "--model", model, "--input", segmented,
                   "--output", str(restored)) == 0
        assert restored.read_text(encoding="utf-8") == "kawi suta\n"

    @pytest.mark.parametrize("content", [b"", None], ids=["empty", "directory"])
    def test_desegment_with_an_unusable_model_is_3(self, tmp_path, corpus_file, capsys,
                                                   content):
        model = tmp_path / "bad"
        if content is None:
            model.mkdir()
        else:
            model.write_bytes(content)
        assert run("desegment", "--model", str(model), "--input", corpus_file) == 3
        err = capsys.readouterr().err
        assert str(model) in err and "Traceback" not in err


class TestCrfWindow:
    @pytest.mark.parametrize("delta", [crf.MAX_DELTA + 1, 20000])
    def test_window_above_the_bound_exits_3_quickly(self, tmp_path, capsys, delta):
        # the loader refuses the header before any slot table is built
        model = _write(tmp_path / "wide.crf",
                       "crf v1 %d 0.01\n0:k\tB\t0.5\ntransitions:\n" % (delta,))
        text = _write(tmp_path / "kawi.txt", "kawi\n")
        start = time.perf_counter()
        assert run("segment", "--model", model, "--input", text,
                   "--output", str(tmp_path / "out.txt")) == 3
        assert time.perf_counter() - start < 1.0
        assert ("%s:1: window radius delta must be between 1 and %d, got %d"
                % (model, crf.MAX_DELTA, delta)) in capsys.readouterr().err


@st.composite
def hostile_tsv_bytes(draw):
    """The bytes of a segmentation TSV that may break any line rule: good
    lines, text with whitespace and TABs where they do not belong, and raw
    bytes (invalid UTF-8 among them), ended by LF, CRLF or CR, after an
    optional byte-order mark."""
    morphs = st.lists(st.text("kaw", min_size=1, max_size=3), min_size=1, max_size=3)
    line = st.one_of(
        morphs.map(lambda ms: "".join(ms) + "\t" + " ".join(ms)).map(str.encode),
        st.text("kaw\t \u00a0\u0085\u2028\u200b", max_size=8).map(str.encode),
        st.binary(max_size=4),
    )
    lines = draw(st.lists(st.tuples(line, st.sampled_from((b"\n", b"\r\n", b"\r"))),
                          max_size=4))
    return draw(st.sampled_from((b"", b"\xef\xbb\xbf"))) + b"".join(a + b for a, b in lines)


class TestHostileSegmentationFiles:
    """Every command that reads a segmentation TSV exits 0 or 3 on any
    bytes, and a refused file is named with the line at fault."""

    @pytest.mark.parametrize("argv", [
        ("seg-stats", "--data", "{tsv}", "--out", "{out}"),
        ("eval-seg", "--metric", "boundary", "--pred", "{tsv}", "--gold", "{gold}",
         "--out", "{out}"),
        ("eval-seg", "--metric", "emma", "--pred", "{tsv}", "--gold", "{gold}",
         "--out", "{out}"),
        ("train", "--method", "crf", "--input", "{tsv}", "--model", "{out}",
         "--max-iters", "1"),
    ], ids=("seg-stats", "eval-seg-boundary", "eval-seg-emma", "train-crf"))
    @settings(max_examples=25, deadline=None)
    @given(content=hostile_tsv_bytes())
    def test_exits_0_or_3_naming_the_line(self, tmp_path_factory, argv, content):
        d = tmp_path_factory.mktemp("hostile_tsv")
        files = {"tsv": str(d / "data.tsv"), "gold": str(d / "gold.tsv"), "out": str(d / "out")}
        for name in ("tsv", "gold"):
            Path(files[name]).write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run(*(arg.format(**files) for arg in argv))
        assert rc in (0, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 3:
            assert re.search(re.escape(files["tsv"]) + r":\d+: ", err.getvalue())


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A directory with the corpus and the text of one trained model file
    per method."""
    d = tmp_path_factory.mktemp("models")
    corpus = _write(d / "corpus.txt", "kawi suta kawi\nwisu kawi\nsuta wisu kawi\n")
    gold = _write(d / "gold.tsv", "kawi\tka wi\nsuta\tsu ta\nwisu\twi su\n")
    texts = {}
    for method, data, extra in (
        ("bpe", corpus, ("--vocab-size", "30")),
        ("morfessor", corpus, ()),
        ("lmvr", corpus, ("--cap", "12")),
        ("flatcat", corpus, ()),
        ("crf", gold, ("--delta", "2", "--max-iters", "30")),
    ):
        model = d / method
        assert run("train", "--method", method, "--input", data,
                   "--model", str(model), *extra) == 0
        texts[method] = model.read_text(encoding="utf-8")
    return d, texts


@st.composite
def hostile_text_bytes(draw):
    """The bytes of a plain-text file: lines of tokens (a number and both
    families' markers among them), text with TABs, NUL, U+2028 and U+0085,
    blank lines, and raw bytes (invalid UTF-8 among them), ended by LF,
    CRLF or CR."""
    tokens = st.sampled_from(("kawi", "suta", "wi", "1.5", "ka@@", "su</w>"))
    line = st.one_of(
        st.lists(tokens, max_size=4).map(" ".join).map(str.encode),
        st.text("kaw \t\x00\u2028\u0085", max_size=8).map(str.encode),
        st.binary(max_size=4),
    )
    lines = draw(st.lists(st.tuples(line, st.sampled_from((b"\n", b"\r\n", b"\r"))),
                          max_size=4))
    return b"".join(a + b for a, b in lines)


class TestHostileTextFiles:
    """Every command that reads plain text exits 0, 2 or 3 on any bytes,
    and a refused file is named with the line at fault."""

    @pytest.mark.parametrize("argv", [
        ("stats", "--source", "{txt}", "--target", "{txt}", "--out", "{out}"),
        ("train", "--method", "bpe", "--input", "{txt}", "--model", "{out}",
         "--vocab-size", "30"),
        ("train", "--method", "morfessor", "--input", "{txt}", "--model", "{out}"),
        ("segment", "--model", "{morf}", "--input", "{txt}", "--output", "{out}"),
        ("desegment", "--style", "cont", "--input", "{txt}", "--output", "{out}"),
        ("eval-mt", "--metric", "bleu", "--hyp", "{txt}", "--ref", "{txt}", "--out", "{out}"),
        ("signif", "--metric", "chrf", "--sys-a", "{txt}", "--sys-b", "{txt}",
         "--ref", "{txt}", "--trials", "20", "--out", "{out}"),
        ("analyze", "unk", "--vocab", "{txt}", "--input", "{txt}", "--out", "{out}"),
        ("analyze", "richness", "--probe-model", "{morf}", "--input", "{txt}",
         "--scores", "{txt}", "--out", "{out}"),
    ], ids=("stats", "train-bpe", "train-morfessor", "segment", "desegment", "eval-mt",
            "signif", "analyze-unk", "analyze-richness"))
    @settings(max_examples=25, deadline=None)
    @given(content=hostile_text_bytes())
    def test_exits_0_2_or_3_naming_the_line(self, trained_models, tmp_path_factory, argv,
                                            content):
        d = tmp_path_factory.mktemp("hostile_text")
        files = {"txt": str(d / "text.txt"), "out": str(d / "out"),
                 "morf": str(trained_models[0] / "morfessor")}
        Path(files["txt"]).write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run(*(arg.format(**files) for arg in argv))
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 3:
            assert re.search(re.escape(files["txt"]) + r":\d+: ", err.getvalue())


# runs CLI commands in one fresh process and prints, after the import and
# after each command, whether scipy.optimize has been loaded
_IMPORT_PROBE = """
import json, sys
import polyseg.cli
loaded = ["scipy.optimize" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert polyseg.cli.main(argv) == 0, argv
    loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy_optimize(trained_models, tmp_path):
    d, _ = trained_models
    text = _write(tmp_path / "text.txt", "kawi suta\nwisu\n")
    model = str(tmp_path / "m.crf")
    commands = [
        ["train", "--method", "crf", "--input", str(d / "gold.tsv"), "--model", model,
         "--max-iters", "5"],
        ["segment", "--model", model, "--input", text, "--output", str(tmp_path / "seg")],
        ["eval-mt", "--metric", "bleu", "--hyp", text, "--ref", text,
         "--out", str(tmp_path / "bleu.tsv")],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [False] * 4


class TestDamagedModelFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_segment_never_raises(self, trained_models, data):
        d, texts = trained_models
        method = data.draw(st.sampled_from(sorted(texts)))
        text = texts[method]
        hows = ("truncate", "delete", "replace") + (("pad",) if method == "crf" else ())
        how = data.draw(st.sampled_from(hows))
        if how == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            lines = text.splitlines()
            if how == "pad":
                # move a pad row to an offset in or out of the window
                delta = int(lines[0].split(" ")[2])
                i = data.draw(st.sampled_from(
                    [k for k, line in enumerate(lines) if ":%s\t" % (crf.PAD,) in line]))
                offset = data.draw(st.integers(-3 * delta, 3 * delta))
                lines[i] = "%d:%s" % (offset, lines[i].split(":", 1)[1])
            else:
                i = data.draw(st.integers(0, len(lines) - 1))
            if how == "delete":
                del lines[i]
            elif how == "replace":
                sep = " " if i == 0 else "\t"
                fields = lines[i].split(sep)
                fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.text())
                lines[i] = sep.join(fields)
            text = "".join(line + "\n" for line in lines)
        model = _write(d / "damaged", text)
        output = d / "segmented.txt"
        rc = run("segment", "--model", model, "--input", str(d / "corpus.txt"),
                 "--output", str(output))
        # the loader leaves every word of every morf model a legal path whose
        # cost stays finite, so decoding never fails
        assert rc in (0, 3)
        if rc == 0 and modelfile.family(model) == "crf":
            loaded = crf.load_model(model)
            want = [render_segmented([crf_oracle_decode(loaded, tok).morphs
                                      for tok in line.split()], "cont")
                    for line in (d / "corpus.txt").read_text(encoding="utf-8").splitlines()]
            assert output.read_text(encoding="utf-8") == "".join(l + "\n" for l in want)


@pytest.mark.parametrize("method", ["bpe", "morfessor", "lmvr", "flatcat", "crf"])
def test_model_with_a_byte_order_mark_reads_as_without(trained_models, tmp_path, method):
    d, texts = trained_models
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        model = _write(tmp_path / name, bom + texts[method])
        seg, back = tmp_path / (name + ".seg"), tmp_path / (name + ".txt")
        assert run("segment", "--model", model, "--input", str(d / "corpus.txt"),
                   "--output", str(seg)) == 0
        assert run("desegment", "--model", model, "--input", str(seg),
                   "--output", str(back)) == 0
        outputs.append((seg.read_bytes(), back.read_bytes()))
    assert outputs[0] == outputs[1]


def test_every_option_is_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    missing = [(name, option) for name, sub in commands.items()
               for action in sub._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               # a whole option, so --mode is not found inside --model
               and not re.search(re.escape(option) + r"(?![\w-])", readme)]
    assert missing == []


# tokens over this alphabet hold every character of both families' markers
HOSTILE = "ka@</w>"


@pytest.fixture(scope="module")
def hostile_models(tmp_path_factory):
    """A directory holding one model per family trained on words with
    ``@``, ``<``, ``/`` and ``>`` in them, but no marker."""
    d = tmp_path_factory.mktemp("hostile")
    corpus = _write(d / "corpus.txt", "ka@wi k<a/w> ka@wi wa>k\nk@a ka</ wa@ ka@wi\n"
                                      "k<a/w> wa>k ka</ k@a\n")
    gold = _write(d / "gold.tsv", "ka@wi\tka@ wi\nk<a/w>\tk<a /w>\nwa>k\twa >k\n"
                                  "k@a\tk@a\nka</\tka </\n")
    for method, data, extra in (
        ("bpe", corpus, ("--vocab-size", "30")),
        ("morfessor", corpus, ()),
        ("flatcat", corpus, ()),
        ("crf", gold, ("--delta", "2", "--max-iters", "30")),
    ):
        assert run("train", "--method", method, "--input", data,
                   "--model", str(d / method), *extra) == 0
    return d


def _hostile_lines(marker):
    """Up to three single-space lines of ``HOSTILE`` tokens without ``marker``."""
    token = st.text(HOSTILE, min_size=1, max_size=6).filter(lambda tok: marker not in tok)
    return st.lists(st.lists(token, max_size=4).map(" ".join), min_size=1, max_size=3)


@pytest.mark.parametrize("method,marker", [
    ("bpe", "</w>"), ("morfessor", "@@"), ("flatcat", "@@"), ("crf", "@@"),
])
class TestMarkerRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_desegment_restores_what_segment_wrote(self, hostile_models, method, marker,
                                                   data):
        d = hostile_models
        text = "".join(line + "\n" for line in data.draw(_hostile_lines(marker)))
        source = _write(d / (method + ".txt"), text)
        segmented, restored = d / (method + ".seg"), d / (method + ".out")
        assert run("segment", "--model", str(d / method), "--input", source,
                   "--output", str(segmented)) == 0
        assert run("desegment", "--model", str(d / method), "--input", str(segmented),
                   "--output", str(restored)) == 0
        assert restored.read_bytes() == text.encode("utf-8")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_token_holding_the_marker_is_3_at_its_line(self, hostile_models, method,
                                                         marker, data):
        d = hostile_models
        lines = data.draw(_hostile_lines(marker))
        i = data.draw(st.integers(0, len(lines) - 1))
        ends = st.text(HOSTILE, max_size=3)
        before, after = data.draw(st.tuples(ends, ends))
        lines[i] = " ".join(filter(None, (lines[i], before + marker + after)))
        source = _write(d / (method + ".bad"), "".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run("segment", "--model", str(d / method), "--input", source) == 3
        assert "%s:%d:" % (source, i + 1) in err.getvalue()


class TestSummaryLines:
    """The one-line summary every subcommand prints, pinned byte for byte."""

    @pytest.mark.parametrize("method,data,extra,line", [
        ("bpe", "corpus.txt", ("--vocab-size", "30"),
         "trained bpe: vocab size 19, 9 merges -> {model}"),
        ("morfessor", "corpus.txt", (), "trained morfessor: 4 morphs -> {model}"),
        ("lmvr", "corpus.txt", ("--cap", "12"), "trained lmvr: 4 morphs (cap 12) -> {model}"),
        ("lmvr", "corpus.txt", (), "trained lmvr: 4 morphs (cap None) -> {model}"),
        ("flatcat", "corpus.txt", (), "trained flatcat: 4 morphs -> {model}"),
        ("crf", "gold.tsv", ("--delta", "2", "--max-iters", "30"),
         "trained crf: 62 features -> {model}"),
    ])
    def test_train(self, trained_models, tmp_path, capsys, method, data, extra, line):
        d, _ = trained_models
        model = str(tmp_path / "m")
        assert run("train", "--method", method, "--input", str(d / data),
                   "--model", model, *extra) == 0
        assert capsys.readouterr() == (line.format(model=model) + "\n", "")

    @pytest.mark.parametrize("argv,out,err", [
        (("segment", "--model", "{d}/bpe", "--input", "{d}/corpus.txt",
          "--output", "{t}/seg.txt"), "", "segmented 3 lines (eow style, marker '</w>')\n"),
        (("segment", "--model", "{d}/crf", "--input", "{d}/corpus.txt",
          "--output", "{t}/seg.txt"), "", "segmented 3 lines (cont style, marker '@@')\n"),
        (("desegment", "--style", "cont", "--input", "{d}/corpus.txt",
          "--output", "{t}/de.txt"), "", "desegmented 3 lines\n"),
        (("stats", "--source", "{d}/corpus.txt", "--target", "{d}/corpus.txt",
          "--out", "{t}/r"), "stats: S=3 N=[8, 8] V=[3, 3]\n", ""),
        (("seg-stats", "--data", "{d}/gold.tsv", "--out", "{t}/r"),
         "seg-stats: words=3 morphs=6 morphs/word=2.00\n", ""),
        (("eval-seg", "--pred", "{d}/gold.tsv", "--gold", "{d}/gold.tsv",
          "--metric", "boundary", "--out", "{t}/r"),
         "boundary-f1: f1=1.0000 accuracy=1.0000\n", ""),
        (("eval-seg", "--pred", "{d}/gold.tsv", "--gold", "{d}/gold.tsv", "--out", "{t}/r"),
         "emma-f1: f1=1.0000 accuracy=1.0000\n", ""),
        (("eval-mt", "--hyp", "{d}/corpus.txt", "--ref", "{d}/corpus.txt",
          "--metric", "chrf", "--out", "{t}/r"),
         "chrf = 100.0000 (chrF2+numchars.6+space.false)\n", ""),
        (("signif", "--sys-a", "{d}/corpus.txt", "--sys-b", "{d}/corpus.txt",
          "--ref", "{d}/corpus.txt", "--metric", "bleu", "--out", "{t}/r"),
         "p=1.0 (not-significant)\n", ""),
        (("analyze", "richness", "--probe-model", "{d}/morfessor", "--input",
          "{d}/corpus.txt", "--scores", "{d}/scores.txt", "--out", "{t}/r"),
         "richness: 3 records\n", ""),
        (("analyze", "unk", "--vocab", "{d}/gold.tsv", "--input", "{d}/corpus.txt",
          "--out", "{t}/r"),
         "unk: 8/8 pieces out of vocabulary (rate 1.0000)\n", ""),
    ])
    def test_command(self, trained_models, tmp_path, capsys, argv, out, err):
        d, _ = trained_models
        _write(d / "scores.txt", "1.0\n2.0\n3.0\n")
        assert run(*(a.format(d=d, t=tmp_path) for a in argv)) == 0
        assert capsys.readouterr() == (out, err)

    def test_reports_on_stdout(self, trained_models, capsys):
        d, _ = trained_models
        assert run("eval-mt", "--hyp", str(d / "corpus.txt"), "--ref", str(d / "corpus.txt"),
                   "--metric", "bleu", "--format", "csv") == 0
        assert capsys.readouterr().out == (
            "metric,score,signature\n"
            "bleu,0.0000,BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a\n"
            "bleu = 0.0000 (BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a)\n")
        assert run("segment", "--model", str(d / "crf"), "--input", str(d / "corpus.txt")) == 0
        assert capsys.readouterr() == (
            "ka@@ wi su@@ ta ka@@ wi\nwi@@ su ka@@ wi\nsu@@ ta wi@@ su ka@@ wi\n",
            "segmented 3 lines (cont style, marker '@@')\n")

    @pytest.mark.parametrize("argv,table", [
        (("eval-seg", "--pred", "{d}/gold.tsv", "--gold", "{d}/gold.tsv",
          "--metric", "boundary"),
         "metric\tprecision\trecall\tf1\taccuracy\n"
         "boundary-f1\t1.0000\t1.0000\t1.0000\t1.0000\n"),
        (("eval-mt", "--hyp", "{d}/corpus.txt", "--ref", "{d}/corpus.txt",
          "--metric", "chrf"),
         "metric\tscore\tsignature\nchrf\t100.0000\tchrF2+numchars.6+space.false\n"),
        (("signif", "--sys-a", "{d}/corpus.txt", "--sys-b", "{d}/corpus.txt",
          "--ref", "{d}/corpus.txt", "--metric", "chrf", "--trials", "50", "--seed", "3",
          "--format", "csv"),
         "metric,score_a,score_b,delta,p_value,trials,seed,classification,signature\n"
         "chrf,100.0000,100.0000,0.0000,1.0,50,3,not-significant,"
         "chrF2+numchars.6+space.false\n"),
    ])
    def test_report_table(self, trained_models, tmp_path, argv, table):
        d, _ = trained_models
        out = tmp_path / "report"
        assert run(*(a.format(d=d) for a in argv), "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == table


class TestReportBytes:
    """Every TSV and CSV report, pinned byte for byte on inputs that fill
    each column with a value of its own."""

    @pytest.fixture
    def inputs(self, tmp_path):
        files = {
            "src": "a b a\nb c\nd a e\n", "tgt": "x y\nz z\ny w v\n",
            "train_src": "a b\n", "train_tgt": "x z\n",
            "pred": "kawi\tka wi\nsuta\tsuta\nwisu\tw i su\nkasu\tk a s u\n",
            "gold": "kawi\tka wi\nsuta\tsu ta\nwisu\twi su\nkasu\tkas u\n",
            "train_seg": "kawi\tka wi\nsuta\tsu ta\nwisu\twi su\n",
            "hyp": "ka wi su ta\nmi pe ka wi\nsu su ta\n",
            "ref": "ka wi su ta\nmi pe ka ka\nsu ta ta\n",
            "sys_b": "ka wi su\nmi ka wi\nta su ta\n",
            "corpus": "kawi suta kawi\nwisu kawi\nsuta wisu kawi\n",
            "probe": "kawi suta\nzz\nkawi zz wisu\n",
            "scores": "1.5\n20.0\n7.25\n",
            "vocab": "ka\nwi\nsu\n",
        }
        return {name: _write(tmp_path / name, text) for name, text in files.items()}

    @pytest.mark.parametrize("argv,report", [
        (("stats", "--source", "{src}", "--target", "{tgt}",
          "--train-source", "{train_src}", "--train-target", "{train_tgt}"),
         b"side\tS\tN\tV\tV1\tV/N\tV1/N\tOOV\tpctOOV\n"
         b"source\t3\t8\t5\t3\t0.625\t0.375\t3\t0.600\n"
         b"target\t3\t7\t5\t3\t0.714\t0.429\t3\t0.600\n"),
        (("stats", "--source", "{src}", "--target", "{tgt}", "--format", "csv"),
         b"side,S,N,V,V1,V/N,V1/N,OOV,pctOOV\n"
         b"source,3,8,5,3,0.625,0.375,-,-\n"
         b"target,3,7,5,3,0.714,0.429,-,-\n"),
        (("seg-stats", "--data", "{pred}", "--train", "{train_seg}"),
         b"Words\tSegWords\tMorphs\tUniMorphs\tSeg/W\tMorphs/W\tMaxMorphs\tOOV-M\n"
         b"4\t3\t10\t10\t0.75\t2.50\t4\t7\n"),
        (("eval-seg", "--pred", "{pred}", "--gold", "{gold}", "--metric", "boundary"),
         b"metric\tprecision\trecall\tf1\taccuracy\n"
         b"boundary-f1\t0.5000\t0.7500\t0.6000\t0.2500\n"),
        (("eval-mt", "--hyp", "{hyp}", "--ref", "{ref}", "--metric", "bleu"),
         b"metric\tscore\tsignature\n"
         b"bleu\t65.5025\tBLEU+case.mixed+numrefs.1+smooth.exp+tok.13a\n"),
        (("signif", "--sys-a", "{hyp}", "--sys-b", "{sys_b}", "--ref", "{ref}",
          "--metric", "chrf", "--trials", "200", "--seed", "5"),
         b"metric\tscore_a\tscore_b\tdelta\tp_value\ttrials\tseed\tclassification\tsignature\n"
         b"chrf\t70.3565\t41.1581\t29.1984\t0.5\t200\t5\tnot-significant\t"
         b"chrF2+numchars.6+space.false\n"),
        (("analyze", "unk", "--vocab", "{vocab}", "--input", "{hyp}", "--system", "bpe"),
         b"system,total,unk,rate\nbpe,11,4,0.36363636363636365\n"),
    ])
    def test_report(self, inputs, tmp_path, argv, report):
        out = tmp_path / "report"
        assert run(*(a.format(**inputs) for a in argv), "--out", str(out)) == 0
        assert out.read_bytes() == report

    def test_richness_and_bins(self, inputs, tmp_path):
        model = str(tmp_path / "m.morf")
        assert run("train", "--method", "morfessor", "--input", inputs["corpus"],
                   "--model", model) == 0
        out, bins_out = tmp_path / "rich.csv", tmp_path / "bins.csv"
        assert run("analyze", "richness", "--probe-model", model, "--input", inputs["probe"],
                   "--scores", inputs["scores"], "--bins", "2", "--out", str(out),
                   "--bins-out", str(bins_out)) == 0
        assert out.read_bytes() == (b"idx,richness,score\n"
                                    b"1,1.0,20.0\n2,1.6666666666666667,7.25\n0,2.0,1.5\n")
        assert bins_out.read_bytes() == (b"bin_lo,bin_hi,count,mean_score\n"
                                         b"1.0,1.5,1,20.0\n1.5,2.0,2,4.375\n")
