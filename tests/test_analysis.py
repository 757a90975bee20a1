import random

import pytest

from polyseg import analysis, morf
from polyseg.analysis import (
    bin_richness,
    richness_csv,
    richness_table,
    unk_csv,
    unk_report,
)
from polyseg.bpe import encode, train_bpe
from polyseg.errors import AlignmentError, ConfigError
from polyseg.morf import MorfModel, segment_words
from polyseg.analysis import RichnessRecord


WHOLE_WORD_MODEL = MorfModel.from_segmentations(
    {"kawi": ("kawi",), "suta": ("suta",), "mipe": ("mipe",)}
)

SPLIT_MODEL = MorfModel.from_segmentations(
    {"kawi": ("ka", "wi"), "kasuwi": ("ka", "su", "wi")}
)


class TestRichness:
    def test_unsegmented_probe_gives_one(self):
        sentences = [["kawi", "suta"], ["mipe"]]
        records = richness_table(WHOLE_WORD_MODEL, sentences, [10.0, 20.0])
        assert all(r.morphs_per_token == 1.0 for r in records)

    def test_two_tokens_five_morphs(self):
        records = richness_table(SPLIT_MODEL, [["kawi", "kasuwi"]], [42.0])
        assert records[0].morphs_per_token == pytest.approx(2.5)

    def test_sorted_by_richness(self):
        sentences = [["kasuwi", "kasuwi"], ["kawi"]]
        records = richness_table(SPLIT_MODEL, sentences, [1.0, 2.0])
        ordered = [r.morphs_per_token for r in records]
        assert ordered == sorted(ordered)

    def test_each_distinct_token_segmented_once(self, monkeypatch):
        sentences = [["kawi", "kasuwi", "kawi"], ["kasuwi", "suta"], ["kawi"]]
        real = morf.segment_words
        per_token = [sum(map(len, real(SPLIT_MODEL, sent))) / len(sent) for sent in sentences]
        calls = []
        monkeypatch.setattr(morf, "segment_words",
                            lambda model, toks: calls.append(list(toks)) or real(model, toks))
        records = richness_table(SPLIT_MODEL, sentences, [1.0, 2.0, 3.0])
        assert calls == [["kawi", "kasuwi", "suta"]]
        assert sorted((r.index, r.morphs_per_token) for r in records) == list(
            enumerate(per_token))

    def test_score_alignment_checked(self):
        with pytest.raises(AlignmentError):
            richness_table(SPLIT_MODEL, [["kawi"]], [1.0, 2.0])

    def test_binned_means_match_recomputation(self):
        rng = random.Random(4)
        records = [
            RichnessRecord(i, 1.0 + rng.random() * 3, rng.random() * 100)
            for i in range(200)
        ]
        n_bins = 10
        bins = bin_richness(records, bins=n_bins)
        assert sum(b.count for b in bins) == len(records)
        # recompute per-bin means from the raw records under the equal-width
        # floor-assignment definition
        lo = min(r.morphs_per_token for r in records)
        hi = max(r.morphs_per_token for r in records)
        width = (hi - lo) / n_bins
        groups = [[] for _ in range(n_bins)]
        for r in records:
            k = min(int((r.morphs_per_token - lo) / width), n_bins - 1)
            groups[k].append(r.score)
        for b, members in zip(bins, groups):
            assert b.count == len(members)
            if members:
                assert b.mean_score == pytest.approx(sum(members) / len(members))

    def test_degenerate_range_single_bin(self):
        records = [RichnessRecord(0, 2.0, 5.0), RichnessRecord(1, 2.0, 7.0)]
        bins = bin_richness(records)
        assert len(bins) == 1 and bins[0].mean_score == pytest.approx(6.0)

    def test_csv_header(self):
        csv = richness_csv([RichnessRecord(0, 1.5, 30.0)])
        assert csv.splitlines()[0] == "idx,richness,score"


class TestUnk:
    def test_full_coverage_gives_zero(self):
        segged = [segment_words(SPLIT_MODEL, ["kawi", "kasuwi"])]
        vocab = {"ka", "wi", "su"}
        report = unk_report(segged, vocab)
        assert report.unk_tokens == 0
        assert report.total_tokens == 5

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ConfigError):
            unk_report([[["ka"]]], set())

    def test_idempotent_after_desegment_resegment(self):
        sentences = [["kawi", "kasuwi"], ["kawi"]]
        first = [segment_words(SPLIT_MODEL, sent) for sent in sentences]
        rebuilt = [["".join(m) for m in sent] for sent in first]
        second = [segment_words(SPLIT_MODEL, sent) for sent in rebuilt]
        vocab = {"ka", "wi"}
        assert unk_report(first, vocab) == unk_report(second, vocab)

    def test_character_fallback_beats_novel_string_segmenter(self):
        corpus = {"kawi": 4, "suta": 3, "wisu": 2}
        model = train_bpe(corpus, 40)
        text = [["kawi", "suta"], ["wisu", "kawi"]]
        bpe_segged = [[encode(model, tok) for tok in sent] for sent in text]
        bpe_rate = unk_report(bpe_segged, model.vocab, system="bpe").unk_rate
        # a generative segmenter that invents strings outside the alphabet
        novel_segged = [[["kaw", "iQ"], ["su", "ta"]], [["wi", "suX"], ["kawi"]]]
        novel_rate = unk_report(novel_segged, model.vocab, system="novel").unk_rate
        assert bpe_rate == 0.0
        assert bpe_rate <= novel_rate
        assert novel_rate > 0

    def test_csv_header_and_rate(self):
        report = unk_report([[["ka", "xx"]]], {"ka"}, system="sys")
        csv = unk_csv([report])
        assert csv.splitlines()[0] == "system,total,unk,rate"
        assert report.unk_rate == pytest.approx(0.5)
