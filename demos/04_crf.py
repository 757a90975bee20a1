# Supervised segmentation with a character-tagging CRF.
#
# Characters carry BMES labels; transitions are hard-constrained to
# well-formed sequences, so decoded morphs always concatenate back to the
# word.  Features are windowed character substrings keyed by offset.

import numpy as np

from polyseg import SegmentationDataset, SegmentedWord, crf_decode, train_crf
from polyseg.crf import LABELS
from polyseg.corpus import SURFACE

pairs = [
    ("nekuxiri", ("ne", "kuxi", "ri")),
    ("nekuxi", ("ne", "kuxi")),
    ("tewime", ("tewi", "me")),
    ("tewiri", ("tewi", "ri")),
    ("kuxime", ("kuxi", "me")),
]
train = SegmentationDataset(
    tuple(SegmentedWord(s, m) for s, m in pairs), mode=SURFACE
)

model = train_crf(train, delta=2, l2=0.01, max_iters=120)
print("likelihood per iteration:", [round(float(v), 3) for v in model.objective_history[:6]], "...")

# each feature is a (offset, text) window key with one weight per label
print("%d window features; the five with the largest weights:" % len(model.feat_index))
strongest = sorted(model.feat_index.items(), key=lambda kv: -model.weights[kv[1]].max())
for (offset, text), k in strongest[:5]:
    label = int(np.argmax(model.weights[k]))
    print("  offset %+d %-6r -> %s %+.3f" % (offset, text, LABELS[label], model.weights[k, label]))

for word in ("nekuxime", "tewi", "kuxiri"):
    print("%-9s -> %s" % (word, "+".join(crf_decode(model, word).morphs)))
