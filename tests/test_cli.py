import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg import bpe, cli, crf, metrics, morf
from polyseg.cli import desegment_line, main, render_segmented
from polyseg.errors import FormatError


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


class TestSegmentCache:
    @pytest.mark.parametrize("method,decoder", [
        ("bpe", (bpe, "encode")),
        ("morfessor", (morf, "viterbi_segment")),
        ("crf", (crf, "decode_words")),
    ])
    def test_each_distinct_word_decoded_once(self, trained_models, monkeypatch, tmp_path,
                                             method, decoder):
        d, _ = trained_models
        model = str(d / method)
        text = _write(tmp_path / "text.txt", "kawi suta kawi\nkawi\n\nwisu suta kawi tawi\n")
        segment_words, style, marker = cli._segmenter(model)
        expected = "".join(
            render_segmented(segment_words(line.split()), style, marker) + "\n"
            for line in open(text, encoding="utf-8").read().splitlines())

        module, attr = decoder
        calls = []
        real_segmenter = cli._segmenter

        def counting_segmenter(path):
            found = real_segmenter(path)
            real = getattr(module, attr)
            if attr == "decode_words":  # one call for the whole list
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


class TestDesegmentHelpers:
    def test_eow_rendering(self):
        line = render_segmented([["ka", "wi</w>"], ["su</w>"]], "eow", "</w>")
        assert line == "ka wi</w> su</w>"
        assert desegment_line(line, "eow", "</w>") == "kawi su"

    def test_cont_rendering(self):
        line = render_segmented([["ka", "wi"], ["su"]], "cont", "@@")
        assert line == "ka@@ wi su"
        assert desegment_line(line, "cont", "@@") == "kawi su"

    def test_stray_marker_reports_position(self):
        with pytest.raises(FormatError) as exc:
            desegment_line("ka</w>wi su</w>", "eow", "</w>", lineno=3)
        assert "line 3" in str(exc.value)

    def test_dangling_word_rejected(self):
        with pytest.raises(FormatError):
            desegment_line("ka wi</w> su", "eow", "</w>")
        with pytest.raises(FormatError):
            desegment_line("ka@@", "cont", "@@")


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

    def test_crf_canonical_training_exits_3(self, tmp_path):
        data = _write(tmp_path / "c.tsv", "kawi\tkaw i2\n")
        model = str(tmp_path / "m.crf")
        assert run("train", "--method", "crf", "--input", data, "--model", model,
                   "--mode", "canonical") == 3

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

    @pytest.mark.parametrize("alpha", ["1e200", "-1.5e100"])
    def test_flatcat_alpha_above_the_file_bound_is_2(self, tmp_path, corpus_file, capsys,
                                                    alpha):
        model = tmp_path / "m"
        assert run("train", "--method", "flatcat", "--input", corpus_file,
                   "--model", str(model), "--alpha=" + alpha) == 2
        assert "flatcat alpha" in capsys.readouterr().err
        assert not model.exists()

    def test_stray_marker_is_3(self, tmp_path):
        bad = _write(tmp_path / "bad.txt", "ka</w>wi\n")
        assert run("desegment", "--style", "eow", "--input", bad) == 3

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
        scores = _write(tmp_path / "scores.txt", "10.0\nnot-a-number\n1.0\n")
        assert run("analyze", "richness", "--probe-model", model,
                   "--input", corpus_file, "--scores", scores) == 3
        assert "%s:2: bad field 'not-a-number'" % (scores,) in capsys.readouterr().err

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
        assert "line 2" in capsys.readouterr().err

    def test_crf_delta_zero_is_2(self, trained_models, tmp_path):
        d, _ = trained_models
        assert run("train", "--method", "crf", "--input", str(d / "gold.tsv"),
                   "--model", str(tmp_path / "m.crf"), "--delta", "0") == 2

    @pytest.mark.parametrize("l2", ("nan", "inf", "-inf", "-1", "-1e-300"))
    def test_crf_bad_l2_is_2(self, tmp_path, capsys, l2):
        data = _write(tmp_path / "g.tsv", "kawi\tka wi\nsuta\tsu ta\n")
        model = tmp_path / "m.crf"
        assert run("train", "--method", "crf", "--input", data, "--model", str(model),
                   "--l2=" + l2) == 2
        assert "l2" in capsys.readouterr().err
        assert not model.exists()

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
    ])
    def test_segment_exits_3_naming_file_and_line(self, tmp_path, corpus_file, capsys,
                                                  text, line):
        model = _write(tmp_path / "bad.model", text)
        assert run("segment", "--model", model, "--input", corpus_file) == 3
        err = capsys.readouterr().err
        assert "%s:%d:" % (model, line) in err
        assert "Traceback" not in err


class TestCrfWindow:
    def test_wide_window_segments_quickly(self, tmp_path):
        # the window is clamped to the word: the cost no longer grows with
        # delta squared per character
        model = _write(tmp_path / "wide.crf",
                       "crf v1 20000 0.01\n0:k\tB\t0.5\n-20000:\u27e8pad\u27e9\tS\t0.1\n"
                       "transitions:\n")
        text = _write(tmp_path / "kawi.txt", "kawi\n")
        out = tmp_path / "out.txt"
        start = time.perf_counter()
        assert run("segment", "--model", model, "--input", text, "--output", str(out)) == 0
        assert time.perf_counter() - start < 1.0
        assert out.read_text(encoding="utf-8").replace("@@ ", "") == "kawi\n"


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


class TestDamagedModelFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_segment_never_raises(self, trained_models, data):
        d, texts = trained_models
        text = texts[data.draw(st.sampled_from(sorted(texts)))]
        how = data.draw(st.sampled_from(("truncate", "delete", "replace")))
        if how == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            lines = text.splitlines()
            i = data.draw(st.integers(0, len(lines) - 1))
            if how == "delete":
                del lines[i]
            else:
                sep = " " if i == 0 else "\t"
                fields = lines[i].split(sep)
                fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.text())
                lines[i] = sep.join(fields)
            text = "".join(line + "\n" for line in lines)
        model = _write(d / "damaged", text)
        rc = run("segment", "--model", model, "--input", str(d / "corpus.txt"),
                 "--output", str(d / "segmented.txt"))
        # the loader leaves every flatcat word a legal category path whose
        # cost stays finite, so decoding never fails
        assert rc in (0, 3)


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
