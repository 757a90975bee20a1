import importlib.util
import math
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyseg import metrics
from polyseg.cli import main
from polyseg.corpus import CANONICAL, SURFACE, SegmentationDataset, SegmentedWord, read_lines
from polyseg.errors import AlignmentError, DataError, UnsupportedModeError
from oracles import (
    emma_datasets,
    emma_oracle_dense,
    emma_oracle_matching,
    mt_corpus,
    mt_lines,
    mt_oracle_clipped_matches,
    mt_oracle_scores,
    mt_oracle_stats,
    mt_oracle_tokenize_13a,
    random_emma_instance,
)
from polyseg.metrics import (
    BLEU_SIGNATURE,
    CHRF_SIGNATURE,
    _METRICS,
    SegScore,
    _clipped_matches,
    bleu,
    boundary_f1,
    chrf,
    emma_f1,
    metric_report,
    metric_reports,
    tokenize_13a,
)


def seg_dataset(pairs, mode=SURFACE):
    return SegmentationDataset(
        tuple(SegmentedWord(surface, tuple(morphs), mode=mode) for surface, morphs in pairs),
        mode=mode,
    )


class TestBoundaryF1:
    def test_identity(self):
        ds = seg_dataset([("abc", ("ab", "c")), ("de", ("d", "e"))])
        score = boundary_f1(ds, ds)
        assert score == SegScore(1.0, 1.0, 1.0, 1.0)

    def test_disjoint_boundaries(self):
        gold = seg_dataset([("abc", ("ab", "c"))])
        pred = seg_dataset([("abc", ("a", "bc"))])
        score = boundary_f1(pred, gold)
        assert score == SegScore(0.0, 0.0, 0.0, 0.0)

    def test_partial_overlap_hand_counted(self):
        gold = seg_dataset([("abc", ("a", "b", "c"))])  # boundaries {1, 2}
        pred = seg_dataset([("abc", ("a", "bc"))])  # boundaries {1}
        score = boundary_f1(pred, gold)
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f1 == pytest.approx(2 / 3)

    def test_surface_mismatch_reports_index(self):
        gold = seg_dataset([("abc", ("ab", "c")), ("xy", ("x", "y"))])
        pred = seg_dataset([("abc", ("ab", "c")), ("xz", ("x", "z"))])
        with pytest.raises(AlignmentError) as exc:
            boundary_f1(pred, gold)
        assert "index 1" in str(exc.value)
        assert exc.value.index == 1

    def test_alignment_is_checked_before_the_mode(self):
        surf = seg_dataset([("ab", ("a", "b"))])
        canon = seg_dataset([("ac", ("aX", "c"))], mode=CANONICAL)
        with pytest.raises(AlignmentError, match="index 0"):
            boundary_f1(surf, canon)

    def test_canonical_mode_rejected(self):
        surf = seg_dataset([("ab", ("a", "b"))])
        canon = seg_dataset([("ab", ("aX", "b"))], mode=CANONICAL)
        with pytest.raises(UnsupportedModeError):
            boundary_f1(surf, canon)


@pytest.mark.parametrize("scorer", (boundary_f1, emma_f1))
def test_empty_datasets_rejected(scorer):
    empty = seg_dataset([])
    with pytest.raises(DataError, match="empty dataset"):
        scorer(empty, empty)


def _paper_scale_instance(n_words=12000, seed=12):
    """Agglutinative words (a stem and up to three suffixes) with their
    gold morphs, and predictions cut at random positions: a few thousand
    gold types and many more predicted ones."""
    rng = random.Random(seed)
    letters = "aeikmnostuw"
    stems = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 7))) for _ in range(2500)]
    suffixes = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(60)]
    pred, gold = [], []
    for _ in range(n_words):
        morphs = [rng.choice(stems)] + rng.sample(suffixes, rng.randint(0, 3))
        word = "".join(morphs)
        cuts = sorted(rng.sample(range(1, len(word)), min(len(word) - 1, rng.randint(0, 4))))
        gold.append((word, morphs))
        pred.append((word, [word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])]))
    return seg_dataset(pred), seg_dataset(gold)


class TestEmmaF1:
    def test_identity_saturates(self):
        ds = seg_dataset([("kawi", ("ka", "wi")), ("kasu", ("ka", "su"))])
        score = emma_f1(ds, ds)
        assert score.f1 == 1.0 and score.accuracy == 1.0

    def test_matching_equals_brute_force_on_random_instances(self):
        rng = random.Random(8)
        for _ in range(100):
            surfaces, preds, golds = random_emma_instance(rng)
            pred = seg_dataset(list(zip(surfaces, preds)))
            gold = seg_dataset(list(zip(surfaces, golds)))
            score = emma_f1(pred, gold)
            n_pred = sum(len(m) for m in preds)
            matched = score.precision * n_pred
            assert matched == pytest.approx(emma_oracle_matching(preds, golds), abs=1e-9)

    def test_collapsed_prediction_bounds_recall(self):
        gold = seg_dataset([("abcd", ("ab", "cd")), ("efgh", ("ef", "gh"))])
        pred = seg_dataset([("abcd", ("abcd",)), ("efgh", ("efgh",))])
        score = emma_f1(pred, gold)
        assert score.recall <= 0.5

    def test_canonical_gold_supported(self):
        pred = seg_dataset([("kawi", ("ka", "wi"))])
        gold = seg_dataset([("kawi", ("kaw", "i2"))], mode=CANONICAL)
        score = emma_f1(pred, gold)
        assert 0.0 <= score.f1 <= 1.0

    @settings(max_examples=120, deadline=None)
    @given(data=emma_datasets())
    @example(data=(seg_dataset([("aab", ("a", "a", "b"))]), seg_dataset([("aab", ("a", "ab"))])))
    @example(data=(seg_dataset([("ab", ("a", "b")), ("ba", ("ba",))]),
                   seg_dataset([("ab", ("ab2",)), ("ba", ("b", "a"))], mode=CANONICAL)))
    def test_equals_dense_oracle(self, data):
        pred, gold = data
        assert emma_f1(pred, gold) == emma_oracle_dense(pred, gold)

    def test_paper_scale_is_fast_and_sparse(self):
        pred, gold = _paper_scale_instance()
        assert len({m for e in pred.entries for m in e.morphs}) > 5000
        assert len({m for e in gold.entries for m in e.morphs}) > 2000
        start = time.perf_counter()
        score = emma_f1(pred, gold)
        elapsed = time.perf_counter() - start
        assert 0.0 < score.f1 < 1.0
        assert elapsed < 5.0, "emma_f1 took %.2fs at 12k words" % elapsed
        tracemalloc.start()
        try:
            assert emma_f1(pred, gold) == score
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, "emma_f1 peaked at %.0f MB at 12k words" % (peak / 1e6)


class Test13aTokenizer:
    # goldens pinned against the mteval-v13a rule set, byte for byte
    GOLDENS = {
        "Hello, world!": "Hello , world !",
        "&quot;Nice&quot; &amp; good.": '" Nice " & good .',
        "2.5 cats, 3,000 dogs 7-9": "2.5 cats , 3,000 dogs 7 - 9",
        "a-b c- d don't": "a-b c- d don't",
        "(x) [y] {z} @home #tag 50% a/b": "( x ) [ y ] { z } @ home # tag 50 % a / b",
        "<skipped> tag here": "tag here",
        "ends with digits 2021.": "ends with digits 2021 .",
        "semi;colon:and?question!bang": "semi ; colon : and ? question ! bang",
        "  spaced   out  ": "spaced out",
        "mixed 3.14159, value=42; ok?": "mixed 3.14159 , value = 42 ; ok ?",
    }

    def test_goldens_byte_exact(self):
        for raw, expected in self.GOLDENS.items():
            assert tokenize_13a(raw) == expected

    def test_every_latin1_code_point_as_the_rules_treat_it(self):
        # rule 1's character class lies within U+0000-U+00FF; the four
        # wider code points are whitespace or outside every rule
        for point in [*range(0x100), 0xA0, 0x2028, 0x3000, 0x1F642]:
            c = chr(point)
            for line in (c, "a%sb" % c, "1%s2" % c):
                assert tokenize_13a(line) == mt_oracle_tokenize_13a(line), hex(point)

    def test_split_whitespace_is_exactly_the_rules_whitespace(self):
        # rules 5-7 run as str.split, which holds only if re's \s and
        # str.isspace agree on every code point, lone surrogates included
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", text) == [c for c in text if c.isspace()]
        rules = re.sub(r"\s+$", "", re.sub(r"^\s+", "", re.sub(r"\s+", " ", text)))
        assert " ".join(text.split()) == rules


class TestBleu:
    def test_identity_is_exactly_100(self):
        lines = ["a b c d e", "the cat sat on the mat"]
        assert bleu(lines, list(lines)).score == 100.0

    def test_hand_counted_fixture(self):
        # p1=3/4 p2=2/3 p3=1/2 p4=0 - smoothed to 1/2; BP=1
        report = bleu(["a b c d"], ["a b c c"])
        hand = 100 * math.exp(
            (math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2) + math.log(1 / 2)) / 4
        )
        assert report.score == pytest.approx(hand, abs=1e-9)
        assert round(report.score, 4) == 59.4604

    def test_empty_hypothesis_line_defined(self):
        report = bleu(["", "a b c d"], ["a b", "a b c d"])
        assert 0.0 <= report.score <= 100.0

    def test_signature(self):
        report = bleu(["a"], ["a"])
        assert report.signature == BLEU_SIGNATURE == "BLEU+case.mixed+numrefs.1+smooth.exp+tok.13a"

    def test_case_preserved(self):
        assert bleu(["A b C d"], ["a b c d"]).score < 100.0

    def test_alignment_error(self):
        with pytest.raises(AlignmentError):
            bleu(["a"], ["a", "b"])

    def test_identity_stable_under_concatenation(self):
        lines = ["a b c d", "e f g h i"]
        once = bleu(lines, list(lines)).score
        twice = bleu(lines * 2, lines * 2).score
        assert once == twice == 100.0

    def test_empty_input_scores_zero(self):
        report = bleu([], [])
        assert report.score == 0.0 and report.sentence_scores == ()

    def test_brevity_penalty(self):
        # hyp 4 tokens vs ref 5: BP = exp(1 - 5/4)
        short = bleu(["a b c d"], ["a b c d e"])
        assert short.score == pytest.approx(
            100 * math.exp(1 - 5 / 4) * math.exp(
                (math.log(4 / 4) + math.log(3 / 3) + math.log(2 / 2) + math.log(1 / 1)) / 4
            ),
            abs=1e-9,
        )


class TestChrf:
    def test_identity_is_exactly_100(self):
        lines = ["abc def", "ghij"]
        assert chrf(lines, list(lines)).score == 100.0

    def test_hand_counted_fixture(self):
        # orders 1..3 present: precisions 2/3, 1/2, 0; recalls equal; F2 = P
        report = chrf(["abc"], ["abd"])
        assert report.score == pytest.approx(100 * (7 / 18), abs=1e-9)
        assert round(report.score, 4) == 38.8889

    def test_whitespace_invisible(self):
        spaced = chrf(["a b c d e f"], ["ab cdef"])
        stripped = chrf(["abcdef"], ["abcdef"])
        assert spaced.score == stripped.score == 100.0

    def test_signature(self):
        report = chrf(["a"], ["a"])
        assert report.signature == CHRF_SIGNATURE == "chrF2+numchars.6+space.false"

    def test_empty_input_scores_zero(self):
        report = chrf([], [])
        assert report.score == 0.0 and report.sentence_scores == ()

    def test_scores_within_range_and_per_sentence(self):
        report = chrf(["abc", "xyz"], ["abd", "xyw"])
        assert 0.0 <= report.score <= 100.0
        assert len(report.sentence_scores) == 2
        for s in report.sentence_scores:
            assert 0.0 <= s <= 100.0


class TestStatisticsMatchOracle:
    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    @settings(max_examples=150, deadline=None)
    @given(corpus=mt_corpus(systems=2))
    def test_stats_and_scores(self, metric, corpus):
        sys_a, sys_b, refs = corpus
        reports = metric_reports(metric, [sys_a, sys_b], refs)
        for hyps, report in zip((sys_a, sys_b), reports):
            expected = mt_oracle_stats(metric, hyps, refs)
            assert report.stats.shape == expected.shape
            assert np.array_equal(report.stats, expected)
            score, sentence_scores = mt_oracle_scores(metric, hyps, refs)
            assert report.score == score
            assert report.sentence_scores == sentence_scores
            assert metric_report(metric, hyps, refs) == report

    @settings(max_examples=200, deadline=None)
    @given(line=mt_lines())
    def test_13a_tokenizer(self, line):
        assert tokenize_13a(line) == mt_oracle_tokenize_13a(line)


class TestClippedMatchesMatchOracle:
    """``_clipped_matches`` against the dict-coded, two-sorts-per-order
    counter it replaced."""

    @staticmethod
    def _assert_same(metric, refs, systems):
        m = _METRICS[metric]
        ref_symbols = [m.symbols(line) for line in refs]
        hyp_symbols = [[m.symbols(line) for line in hyps] for hyps in systems]
        got = _clipped_matches(ref_symbols, hyp_symbols, m.order)
        want = mt_oracle_clipped_matches(ref_symbols, hyp_symbols, m.order)
        assert len(got) == len(want) == len(systems)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    @settings(max_examples=100, deadline=None)
    @given(corpus=st.integers(1, 3).flatmap(lambda systems: mt_corpus(systems)))
    def test_hostile_corpora(self, metric, corpus):
        *systems, refs = corpus
        self._assert_same(metric, refs, systems)

    @pytest.mark.parametrize("metric", ("bleu", "chrf"))
    @pytest.mark.parametrize("refs,systems", [
        # lone surrogates: no UTF-8 file holds them, a library caller may
        (["a\ud800b\udfff", "\udc00"], [["a\ud800b", "x\udc00"], ["\udfff", ""]]),
        # blank lines only
        (["", " ", "\t\u3000"], [["", "  ", ""], [" ", "\u2028", ""], ["", "", "\n"]]),
        # code points beyond the BMP, in the reference and the systems
        (["\U0001f642\U0001f600 \U0001f642x\U00010348", "\U000e0001"],
         [["\U0001f642\U0001f600\U0001f642", "\U000e0001\U000e0001"]]),
    ])
    def test_examples(self, metric, refs, systems):
        self._assert_same(metric, refs, systems)
        for hyps, report in zip(systems, metric_reports(metric, systems, refs)):
            assert np.array_equal(report.stats, mt_oracle_stats(metric, hyps, refs))

    def test_wide_alphabet_takes_64_bit_keys(self):
        # some 16k distinct characters take 15 bits of code, and the ids of
        # 150k positions shifted by 15 bits pass int32
        rng = random.Random(7)
        alphabet = [chr(0x4E00 + i) for i in range(20000)]
        refs = ["".join(rng.choices(alphabet[: rng.choice((50, 20000))], k=80))
                for _ in range(625)]
        systems = [["".join(c if rng.random() < 0.9 else rng.choice(alphabet) for c in line)
                    for line in refs] for _ in range(2)]
        text = "".join(refs) + "".join(line for hyps in systems for line in hyps)
        assert len(text) << (len(set(text)) - 1).bit_length() >= 2**31
        self._assert_same("chrf", refs, systems)


def test_statistics_of_the_benchmark_text(tmp_path):
    # the bpe-mt benchmark's references and systems: Zipfian lines of plain
    # words, with no '.', ',' or '-' for the 13a number rules
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.gen_bpe_mt(str(tmp_path), 1001)
    refs, sys_a, sys_b = (read_lines(tmp_path / name)
                          for name in ("test.tgt", "hyp_a.tgt", "hyp_b.tgt"))
    for metric in ("bleu", "chrf"):
        for hyps, report in zip((sys_a, sys_b), metric_reports(metric, [sys_a, sys_b], refs)):
            assert np.array_equal(report.stats, mt_oracle_stats(metric, hyps, refs))


def test_benchmark_reports_as_the_rule_by_rule_tokenizer(tmp_path, monkeypatch):
    # the bpe-mt benchmark's BLEU report and significance test, byte for
    # byte as with every 13a rule applied as its own substitution
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.gen_bpe_mt(str(tmp_path), 1001)
    d = lambda name: str(tmp_path / name)  # noqa: E731
    outputs = []
    for tokenize in (metrics.tokenize_13a, mt_oracle_tokenize_13a):
        monkeypatch.setattr(metrics, "tokenize_13a", tokenize)
        out = tmp_path / tokenize.__name__
        out.mkdir()
        assert main(["eval-mt", "--hyp", d("hyp_a.tgt"), "--ref", d("test.tgt"),
                     "--metric", "bleu", "--out", str(out / "bleu.tsv")]) == 0
        assert main(["signif", "--sys-a", d("hyp_a.tgt"), "--sys-b", d("hyp_b.tgt"),
                     "--ref", d("test.tgt"), "--metric", "bleu", "--trials", "1000",
                     "--out", str(out / "signif.tsv")]) == 0
        outputs.append([(out / name).read_bytes() for name in ("bleu.tsv", "signif.tsv")])
    assert outputs[0] == outputs[1]
