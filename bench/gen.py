"""Deterministic synthetic inputs for the benchmark workloads.

Each workload has an agglutinative language: CV syllables, a small set
of prefixes, a Zipfian stem inventory and a Zipfian suffix inventory.
Words are an optional prefix, one stem and 0-3 suffixes; the generator
keeps each word's gold morphs, so held-out words can be scored against
the analysis that produced them.  The language is fixed per workload; the
``--seed`` of a run draws the corpora from it (which words, how often, in
which sentences, which held-out words), so runs with different seeds do
comparable work.  Only the files written here are ever shown to polyseg.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter

CONSONANTS = "ptkmnswhry"
VOWELS = "aeiou"
# an analytic second language for the parallel side of the MT workload
TGT_CONSONANTS = "bdgflvzcj"
TGT_VOWELS = "aeio"

# the fixed seed of each workload's language; --seed draws the corpora
LANGUAGE_SEEDS = {"bpe-mt": 2203, "morph-unsup": 8954, "crf-sup": 1917}

SUFFIX_COUNT_WEIGHTS = (0.3, 0.35, 0.23, 0.12)  # 0, 1, 2, 3 suffixes
PREFIX_RATE = 0.25


def _cum_zipf(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))


class Language:
    """A morph inventory and a ranked lexicon of words with gold morphs."""

    def __init__(self, rng: random.Random, n_prefixes: int, n_stems: int,
                 n_suffixes: int, consonants: str = CONSONANTS, vowels: str = VOWELS):
        self.rng = rng
        syllables = [c + v for c in consonants for v in vowels]
        rng.shuffle(syllables)
        self.syllables = syllables
        used: set[str] = set()
        self.prefixes = self._morphs(n_prefixes, (1,), used)
        self.suffixes = self._morphs(n_suffixes, (1, 1, 2), used)
        self.stems = self._morphs(n_stems, (2, 2, 3), used)
        self._stem_cum = _cum_zipf(n_stems, 1.0)
        self._suffix_cum = _cum_zipf(n_suffixes, 1.1)
        self._prefix_cum = _cum_zipf(n_prefixes, 1.0)
        self.words: list[str] = []
        self.gold: dict[str, tuple[str, ...]] = {}

    def _morphs(self, n: int, lengths, used: set[str]) -> list[str]:
        out = []
        while len(out) < n:
            k = self.rng.choice(lengths)
            m = "".join(self.rng.choice(self.syllables) for _ in range(k))
            if m not in used:
                used.add(m)
                out.append(m)
        return out

    def _compose(self) -> tuple[str, ...]:
        rng = self.rng
        morphs = []
        if rng.random() < PREFIX_RATE:
            morphs.append(rng.choices(self.prefixes, cum_weights=self._prefix_cum)[0])
        morphs.append(rng.choices(self.stems, cum_weights=self._stem_cum)[0])
        k = rng.choices(range(4), weights=SUFFIX_COUNT_WEIGHTS)[0]
        for _ in range(k):
            suf = rng.choices(self.suffixes, cum_weights=self._suffix_cum)[0]
            if suf != morphs[-1]:
                morphs.append(suf)
        return tuple(morphs)

    def grow_lexicon(self, n_words: int) -> None:
        """Extend the ranked lexicon to ``n_words`` distinct words.  Words
        built from frequent morphs tend to appear first, so low ranks are
        also the words made of frequent stems and suffixes."""
        while len(self.words) < n_words:
            morphs = self._compose()
            word = "".join(morphs)
            if word not in self.gold:
                self.gold[word] = morphs
                self.words.append(word)

    def sample_tokens(self, rng: random.Random, n_tokens: int, ranks: range,
                      s: float = 1.0) -> list[str]:
        """Zipfian draws over the lexicon words with the given ranks."""
        pool = self.words[ranks.start:ranks.stop]
        cum = _cum_zipf(len(pool), s)
        return rng.choices(pool, cum_weights=cum, k=n_tokens)


def chop(tokens: list[str], rng: random.Random, lo: int, hi: int) -> list[str]:
    """Cut a token stream into single-space sentences of lo..hi tokens."""
    lines = []
    pos = 0
    while pos < len(tokens):
        k = rng.randint(lo, hi)
        lines.append(" ".join(tokens[pos:pos + k]))
        pos += k
    return lines


def perturb(line: str, rng: random.Random, vocab: list[str], rate: float) -> str:
    """A synthetic system output: each token kept, replaced or dropped."""
    out = []
    for tok in line.split():
        r = rng.random()
        if r < rate / 2:
            out.append(rng.choice(vocab))
        elif r < rate * 0.75:
            continue
        else:
            out.append(tok)
    return " ".join(out) if out else line.split()[0]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def _write_gold(path: str, words, gold) -> None:
    _write_lines(path, ("%s\t%s" % (w, " ".join(gold[w])) for w in words))


def _text_facts(lines: list[str], train_types=None) -> dict:
    counts = Counter(tok for line in lines for tok in line.split())
    facts = {
        "lines": len(lines),
        "tokens": sum(counts.values()),
        "types": len(counts),
        "hapaxes": sum(1 for c in counts.values() if c == 1),
    }
    facts["tokens_per_type"] = round(facts["tokens"] / facts["types"], 4)
    if train_types is not None:
        unseen = sum(1 for w in counts if w not in train_types)
        facts["unseen_type_share"] = round(unseen / len(counts), 4)
    return facts


def _heldout_types(lang: Language, rng: random.Random, n: int,
                   exclude: set[str]) -> list[str]:
    """``n`` random lexicon words absent from ``exclude``, drawn from the
    less frequent half of the lexicon."""
    pool = [w for w in lang.words[len(lang.words) // 2:] if w not in exclude]
    return rng.sample(pool, n)


# -- workloads ------------------------------------------------------------------
#
# Sizes are chosen so that one pipeline of each workload takes a few
# seconds at the first benchmarked commit, which lets one run of the
# benchmark repeat it several times and report medians.


def gen_bpe_mt(root: str, seed: int) -> dict:
    src = Language(random.Random(LANGUAGE_SEEDS["bpe-mt"]), 10, 3000, 30)
    src.grow_lexicon(30000)
    tgt = Language(random.Random(LANGUAGE_SEEDS["bpe-mt"] + 1), 4, 2000, 6,
                   TGT_CONSONANTS, TGT_VOWELS)
    tgt.grow_lexicon(6000)

    rng = random.Random(seed)
    ranks = range(0, 24000)
    train_src = chop(src.sample_tokens(rng, 20000, ranks, 0.9), rng, 4, 11)
    test_src = chop(src.sample_tokens(rng, 4000, ranks, 0.9), rng, 4, 11)

    def target_side(lines):
        """Target sentences aligned with ``lines``, one target token per
        source token."""
        toks = iter(tgt.sample_tokens(rng, sum(len(l.split()) for l in lines),
                                      range(0, len(tgt.words)), 1.1))
        return [" ".join(next(toks) for _ in l.split()) for l in lines]

    train_tgt = target_side(train_src)
    test_tgt = target_side(test_src)
    tgt_vocab = tgt.words[:2000]
    hyp_a = [perturb(l, rng, tgt_vocab, 0.30) for l in test_tgt]
    hyp_b = [perturb(l, rng, tgt_vocab, 0.34) for l in test_tgt]

    train_types = {t for l in train_src for t in l.split()}
    gold_words = _heldout_types(src, rng, 1000, train_types)

    files = {
        "train.src": train_src, "train.tgt": train_tgt,
        "test.src": test_src, "test.tgt": test_tgt,
        "hyp_a.tgt": hyp_a, "hyp_b.tgt": hyp_b,
        "gold_words.txt": gold_words,
    }
    for name, lines in files.items():
        _write_lines(os.path.join(root, name), lines)
    _write_gold(os.path.join(root, "gold.tsv"), gold_words, src.gold)
    return {
        "train.src": _text_facts(train_src),
        "segment:test.src": _text_facts(test_src, train_types),
        "segment:gold_words.txt": _text_facts(gold_words, train_types),
        "signif": {"sentences": len(test_tgt)},
    }


def gen_morph_unsup(root: str, seed: int) -> dict:
    lang = Language(random.Random(LANGUAGE_SEEDS["morph-unsup"]), 8, 1500, 25)
    lang.grow_lexicon(6000)
    rng = random.Random(seed)
    train = chop(lang.sample_tokens(rng, 5000, range(0, 3000)), rng, 4, 11)
    train_types = {t for l in train for t in l.split()}
    # every held-out word is distinct and has gold morphs, so the segmented
    # held-out text is also the scored set (gold.tsv follows text order)
    heldout = _heldout_types(lang, rng, 3000, train_types)
    text = chop(heldout, rng, 4, 11)
    scores = ["%.4f" % rng.uniform(20.0, 60.0) for _ in text]

    for name, lines in {"train.txt": train, "heldout.txt": text,
                        "scores.txt": scores}.items():
        _write_lines(os.path.join(root, name), lines)
    _write_gold(os.path.join(root, "gold.tsv"), heldout, lang.gold)
    return {
        "train.txt": _text_facts(train),
        "segment:heldout.txt": _text_facts(text, train_types),
    }


def gen_crf_sup(root: str, seed: int) -> dict:
    lang = Language(random.Random(LANGUAGE_SEEDS["crf-sup"]), 8, 2000, 25)
    lang.grow_lexicon(8000)
    rng = random.Random(seed)
    train_words = rng.sample(lang.words[:1000], 150)
    text = chop(lang.sample_tokens(rng, 4000, range(0, 4000)), rng, 4, 11)
    gold_words = _heldout_types(lang, rng, 2000, set(train_words))

    _write_gold(os.path.join(root, "train.tsv"), train_words, lang.gold)
    _write_gold(os.path.join(root, "gold.tsv"), gold_words, lang.gold)
    _write_lines(os.path.join(root, "text.txt"), text)
    _write_lines(os.path.join(root, "gold_words.txt"), gold_words)
    train_set = set(train_words)
    return {
        "train.tsv": {"words": len(train_words)},
        "segment:text.txt": _text_facts(text, train_set),
        "segment:gold_words.txt": _text_facts(gold_words, train_set),
    }


GENERATORS = {
    "bpe-mt": gen_bpe_mt,
    "morph-unsup": gen_morph_unsup,
    "crf-sup": gen_crf_sup,
}
