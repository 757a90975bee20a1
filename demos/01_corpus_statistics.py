# Corpus and segmentation-dataset statistics.
#
# Loads a tiny parallel corpus and a segmentation dataset built inline,
# then prints the same tables the `polyseg stats` / `polyseg seg-stats`
# commands emit: sentence/token/vocabulary counts, hapaxes, vocabulary
# growth rate, OOV against a training split, and morphs-per-word figures.

import tempfile
from pathlib import Path

from polyseg import corpus_stats, load_parallel, load_segmentation, seg_stats
from polyseg.corpus import seg_stats_table, stats_table

root = Path(tempfile.mkdtemp())

(root / "train.src").write_text(
    "ne nekuxiri tewime\nwa zeiyata kuxi\nne tewime kuxi wa\n", encoding="utf-8"
)
(root / "train.tgt").write_text(
    "yo corro mucho\nel mira algo\nyo corro y el\n", encoding="utf-8"
)
(root / "dev.src").write_text("ne kuxi petumi\n", encoding="utf-8")
(root / "dev.tgt").write_text("yo corro lejos\n", encoding="utf-8")

train = load_parallel(root / "train.src", root / "train.tgt")
dev = load_parallel(root / "dev.src", root / "dev.tgt")

print("== train ==")
print(stats_table(corpus_stats(train)))
print("== dev vs train (note the OOV column) ==")
print(stats_table(corpus_stats(dev, reference_train=train)))

# a segmentation dataset: surface form TAB space-separated morphs
(root / "seg.tsv").write_text(
    "nekuxiri\tne kuxi ri\ntewime\ttewi me\nkuxi\tkuxi\nzeiyata\tzeiya ta\n",
    encoding="utf-8",
)
dataset = load_segmentation(root / "seg.tsv")
print("== segmentation dataset ==")
print(seg_stats_table(seg_stats(dataset)))
