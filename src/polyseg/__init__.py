"""polyseg: subword and morphological segmentation with MT evaluation.

Segmenters: frequency-based byte-pair encoding, description-length
segmentation (baseline, lexicon-restricted, and category-HMM variants) and
a supervised character-tagging CRF.  Evaluation: boundary and
morph-matching F1, BLEU and chrF with reference-implementation semantics,
and paired randomization significance testing, plus corpus statistics and
richness/UNK diagnostics.
"""

from .analysis import (
    RichnessBin,
    RichnessRecord,
    UnkReport,
    bin_richness,
    richness_table,
    unk_report,
)
from .bpe import BpeModel, decode as bpe_decode, encode as bpe_encode, train_bpe
from .corpus import (
    CANONICAL,
    SURFACE,
    CorpusStats,
    ParallelCorpus,
    SegDatasetStats,
    SegmentationDataset,
    SegmentedWord,
    Sentence,
    corpus_stats,
    load_parallel,
    load_segmentation,
    seg_stats,
)
from .crf import (
    CrfModel,
    decode as crf_decode,
    extract_features,
    log_likelihood_and_gradient,
    train_crf,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ParseError,
    PolysegError,
    UnsupportedModeError,
)
from .metrics import (
    ScoreReport,
    SegScore,
    bleu,
    boundary_f1,
    chrf,
    emma_f1,
    paired_randomization_test,
    tokenize_13a,
)
from .morf import (
    CategoryModel,
    MdlCost,
    MorfModel,
    mdl_cost,
    train_baseline,
    train_flatcat,
    train_lmvr,
    viterbi_segment,
)

__version__ = "0.1.0"
