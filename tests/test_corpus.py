import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyseg import bpe, crf, morf
from polyseg.corpus import (
    SURFACE,
    CANONICAL,
    ParallelCorpus,
    SegmentationDataset,
    SegmentedWord,
    Sentence,
    corpus_stats,
    load_parallel,
    load_segmentation,
    read_lines,
    round_half_up,
    seg_stats,
    seg_stats_table,
    stats_table,
    truncate,
)
from polyseg.errors import AlignmentError, DataError, ParseError


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadParallel:
    def test_single_pair_tokenization(self, tmp_path):
        src = _write(tmp_path / "a.tar", "ne p+tiweiya\n")
        tgt = _write(tmp_path / "a.spa", "yo no quiero\n")
        pc = load_parallel(src, tgt)
        assert len(pc) == 1
        assert len(pc.pairs[0][0]) == 2
        assert len(pc.pairs[0][1]) == 3

    def test_line_count_mismatch(self, tmp_path):
        src = _write(tmp_path / "a", "x\ny\nz\n")
        tgt = _write(tmp_path / "b", "x\ny\n")
        with pytest.raises(AlignmentError) as exc:
            load_parallel(src, tgt)
        assert "3" in str(exc.value) and "2" in str(exc.value)

    def test_empty_line_rejected_with_number(self, tmp_path):
        src = _write(tmp_path / "a", "x\n\nz\n")
        tgt = _write(tmp_path / "b", "x\ny\nz\n")
        with pytest.raises(ParseError) as exc:
            load_parallel(src, tgt)
        assert "line 2" in str(exc.value)


class TestLoadSegmentation:
    def test_surface_entry(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wi\n")
        ds = load_segmentation(path, mode=SURFACE)
        assert ds.entries[0] == SegmentedWord("kawi", ("ka", "wi"), mode=SURFACE)

    def test_surface_violation(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wa\n")
        with pytest.raises(DataError) as exc:
            load_segmentation(path, mode=SURFACE)
        assert "line 1" in str(exc.value)
        assert "wa" in str(exc.value)

    def test_canonical_skips_concatenation_check(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wa\n")
        ds = load_segmentation(path, mode=CANONICAL)
        assert ds.entries[0].morphs == ("ka", "wa")

    def test_missing_tab(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi ka wi\n")
        with pytest.raises(ParseError) as exc:
            load_segmentation(path)
        assert "TAB" in str(exc.value)


class TestReadLines:
    # every character str.splitlines breaks at but "\n" and "\r"
    OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="ab \n\r" + OTHER_BREAKS, max_size=30))
    def test_lines_are_those_of_file_iteration(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as f:
            want = [line[:-1] if line.endswith("\n") else line for line in f]
        assert read_lines(path) == want

    @pytest.mark.parametrize("text,lines", [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\n\n", ["a", ""]),
        ("a\r\nb\rc\n", ["a", "b", "c"]),
        ("a\u2028b\x85c\n", ["a\u2028b\x85c"]),
    ])
    def test_examples(self, tmp_path, text, lines):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_lines(path) == lines

    def test_errors_name_the_file_line(self, tmp_path):
        path = _write(tmp_path / "d.tsv", "kawi\tka wi\u2028\nsuta\tsu ta\nsu\n")
        with pytest.raises(ParseError, match="line 3 has no TAB"):
            load_segmentation(path)


def _corpus(pairs):
    return ParallelCorpus(
        tuple(
            (Sentence(tuple(s.split())), Sentence(tuple(t.split())))
            for s, t in pairs
        )
    )


class TestUnreadableFiles:
    @pytest.mark.parametrize("load", [
        lambda path: load_parallel(path, path),
        load_segmentation,
        bpe.load_model,
        morf.load_model,
        crf.load_model,
    ], ids=["parallel", "segmentation", "bpe", "morf", "crf"])
    def test_loaders_raise_parse_error_naming_the_path(self, tmp_path, load):
        missing = tmp_path / "missing"
        with pytest.raises(ParseError, match="missing"):
            load(missing)
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\n")
        with pytest.raises(ParseError, match="undecodable"):
            load(undecodable)


class TestCorpusStats:
    def test_hand_counted(self):
        stats = corpus_stats(_corpus([("a b a", "x y")]))
        assert stats.s == 1
        assert stats.n == (3, 2)
        assert stats.v == (2, 2)
        assert stats.v1 == (1, 2)
        assert stats.v_over_n[0] == pytest.approx(2 / 3)
        assert stats.v_over_n[1] == pytest.approx(1.0)

    def test_oov_type_based_over_eval_vocab(self):
        train = _corpus([("a b", "x y")])
        dev = _corpus([("a c c", "x z")])
        stats = corpus_stats(dev, reference_train=train)
        assert stats.oov == (1, 1)
        assert stats.pct_oov[0] == pytest.approx(1 / 2)

    def test_invariants_and_permutation_independence(self):
        rng = random.Random(5)
        pairs = [
            (" ".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))),
             " ".join(rng.choice("wxyz") for _ in range(rng.randint(1, 6))))
            for _ in range(40)
        ]
        stats = corpus_stats(_corpus(pairs))
        for i in range(2):
            assert stats.v1[i] <= stats.v[i] <= stats.n[i]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert corpus_stats(_corpus(shuffled)) == stats

    def test_token_ratio(self):
        stats = corpus_stats(_corpus([("a b a", "x y")]))
        assert stats.token_ratio == pytest.approx(3 / 2)


class TestSegStats:
    def test_single_multimorph_entry(self):
        ds = SegmentationDataset(
            (SegmentedWord("ab", ("a", "b")),), mode=SURFACE
        )
        stats = seg_stats(ds)
        assert stats.words == 1
        assert stats.seg_words == 1
        assert stats.morphs == 2
        assert stats.morphs_per_word == pytest.approx(2.0)

    def test_ratios_recomputable(self):
        entries = tuple(
            SegmentedWord("".join(m), tuple(m))
            for m in (("a",), ("b", "c"), ("d", "e", "f"))
        )
        stats = seg_stats(SegmentationDataset(entries, mode=SURFACE))
        assert abs(stats.seg_per_word - stats.seg_words / stats.words) < 1e-9
        assert abs(stats.morphs_per_word - stats.morphs / stats.words) < 1e-9

    def test_oov_morphs(self):
        train = SegmentationDataset(
            (SegmentedWord("ab", ("a", "b")),), mode=SURFACE
        )
        test = SegmentationDataset((SegmentedWord("ac", ("a", "c")),), mode=SURFACE)
        assert seg_stats(test, reference_train=train).oov_morphs == 1


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.2605, 3) == 0.261
        assert round_half_up(2.0116, 2) == 2.01
        assert round_half_up(0.72351, 2) == 0.72

    def test_truncate(self):
        assert truncate(0.334500875, 3) == 0.334
        assert truncate(0.27792, 3) == 0.277


class TestSyntheticTables:
    def test_parallel_train_counts(self, parallel_fixture):
        pc = load_parallel(parallel_fixture["train.tar"], parallel_fixture["train.spa"])
        stats = corpus_stats(pc)
        assert stats.s == 13102
        assert stats.n == (73022, 93410)
        assert stats.v == (19044, 16220)
        assert stats.v1 == (12894, 10021)

    def test_parallel_dev_oov(self, parallel_fixture):
        train = load_parallel(parallel_fixture["train.tar"], parallel_fixture["train.spa"])
        dev = load_parallel(parallel_fixture["dev.tar"], parallel_fixture["dev.spa"])
        stats = corpus_stats(dev, reference_train=train)
        assert stats.s == 587
        assert stats.n == (3183, 4133)
        assert stats.v == (1713, 1771)
        assert stats.v1 == (1402, 1365)
        assert stats.oov == (573, 434)
        table = stats_table(stats)
        row = table.splitlines()[1].split("\t")
        assert row[-2] == "573"
        assert row[-1] == "0.334"

    def test_seg_dataset_counts(self, segmentation_fixture):
        shp = load_segmentation(segmentation_fixture["shp.train"])
        stats = seg_stats(shp)
        assert (stats.words, stats.seg_words) == (604, 437)
        assert (stats.morphs, stats.uni_morphs) == (1215, 476)
        assert stats.max_morphs == 5
        table = seg_stats_table(stats)
        row = table.splitlines()[1].split("\t")
        assert row[4] == "0.72" and row[5] == "2.01"

    def test_seg_oovm(self, segmentation_fixture):
        train = load_segmentation(segmentation_fixture["tar.train"])
        test = load_segmentation(segmentation_fixture["tar.test"])
        assert seg_stats(test, reference_train=train).oov_morphs == 163
