"""Company-level recombination measures over one embedding slice and its
discourse atoms: local/global distances, the technology-application
variants, centroid spread, balance entropy, familiarity, and text
controls."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .atoms import UNASSIGNED
from .corpus import read_csv, read_lines

# degenerate-measure flags attached to MeasureRow
FLAG_NO_VALID_TOKENS = "no_valid_tokens"
FLAG_ZERO_CENTROID = "zero_centroid"
FLAG_EMPTY_PAIR_POOL = "empty_pair_pool"
FLAG_SINGLE_MODULE = "single_module"
FLAG_SINGLE_ATOM = "single_atom"
FLAG_NO_TECH_APP_PAIRS = "no_tech_app_pairs"
FLAG_SLICE_CLAMPED = "slice_clamped"

TECHNOLOGY = "technology"
APPLICATION = "application"

# the measures return their flags as frozensets; a value without any
# shares this one, as a block holds one per value
_NO_FLAGS = frozenset()


@dataclass
class LexiconSet:
    """Technical-term dictionary union plus two relative-frequency tables."""

    tech_terms: frozenset
    general_freq: dict
    patent_freq: dict
    general_total: float = field(init=False)
    patent_total: float = field(init=False)

    def __post_init__(self):
        self.tech_terms = frozenset(t.lower() for t in self.tech_terms)
        self.general_total = float(sum(self.general_freq.values())) or 1.0
        self.patent_total = float(sum(self.patent_freq.values())) or 1.0

    @classmethod
    def load(cls, terms_path, general_csv, patent_csv) -> "LexiconSet":
        return cls(tech_terms=frozenset(read_lines(terms_path, str.strip)),
                   general_freq=_read_freq_csv(general_csv),
                   patent_freq=_read_freq_csv(patent_csv))


def _read_freq_csv(path) -> dict:
    """term -> summed count of a `term,count` CSV."""
    freq = {}
    for term, count in read_csv(path, "term",
                                lambda row: (row[0].lower(), float(row[1]))):
        freq[term] = freq.get(term, 0.0) + count
    return freq


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to np.linalg.norm of that
    row: both take sqrt of the row's dot with itself; np.linalg.norm(X,
    axis=1) sums in another order."""
    return np.sqrt(np.vecdot(X, X))


def cosine_distance(A: np.ndarray, B: np.ndarray):
    """Cosine distance of each row of A to the matching row of B, which
    broadcast, so two vectors give one distance. Every measure's distances
    come from here: np.vecdot makes one BLAS dot call per row, the call
    ``a @ b`` makes on two vectors, where a Gram product or einsum would sum
    in another order."""
    na, nb = row_norms(A), row_norms(B)
    if not (na.all() and nb.all()):
        raise ValueError("cosine distance undefined for zero vector")
    return 1.0 - np.vecdot(A, B) / (na * nb)


# Descriptions are measured in blocks of about BLOCK_WORDS in-vocab tokens,
# and each kernel call gathers the rows of at most BLOCK_PAIRS pairs, so the
# measure stage's working set does not grow with the company book
BLOCK_WORDS, BLOCK_PAIRS = 4096, 256


def _run_means(X, ids, sizes, scale=None):
    """Per run of consecutive ids, of the given sizes, the mean of the rows
    X[i], divided by scale[i] when scale is given, over its ids i (zero for
    an empty run). Runs add one rank at a time, longest first so that the
    runs still adding are a prefix; each so sums its rows in order, as
    ndarray.mean(axis=0) does, and gives that mean bitwise."""
    order = np.argsort(-sizes, kind="stable")
    start = (np.cumsum(sizes) - sizes)[order]
    total = np.zeros((len(sizes), X.shape[1]))
    live = np.searchsorted(-sizes[order], -np.arange(sizes.max(initial=0)))
    for r, n in enumerate(live.tolist()):
        at = ids[start[:n] + r]
        total[:n] += X[at] if scale is None else X[at] / scale[at, None]
    total[order] = total / np.maximum(sizes[order], 1)[:, None]
    return total


# A block of descriptions in slice X. A
# description's modules are the atoms holding at least min_module_size of its
# distinct in-vocab words, in order of their lowest word. words holds each
# module's word ids, ascending, module after module; per module: sizes,
# atoms, owner (its description) and centroids (the mean of its words' unit
# rows). Per description: occupied counts its words on each occupied atom in
# that order, marginal ones included; n_valid counts its in-vocab tokens and
# zero_mean tells if their mean row is zero.
ModuleBlock = namedtuple("ModuleBlock", "X words sizes atoms owner "
                         "centroids occupied n_valid zero_mean")


def module_blocks(token_ids, X, assignment, min_module_size):
    """The ModuleBlocks, in order, of the descriptions whose in-vocab word
    ids, in token order, token_ids lists; assignment maps word id -> atom
    id. A block takes descriptions while it holds BLOCK_WORDS tokens."""
    # the norms atoms._normalize_rows divides by, bitwise, taken for a
    # kernel call's worth of rows at a time
    unit = np.concatenate([np.linalg.norm(X[r:r + BLOCK_PAIRS], axis=1)
                           for r in range(0, max(len(X), 1), BLOCK_PAIRS)])
    unit[unit == 0] = 1.0
    lengths = np.array([len(ids) for ids in token_ids], dtype=np.int64)
    ends, start = np.cumsum(lengths), 0
    while start < len(token_ids):
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - lengths[start] + BLOCK_WORDS, "right")))
        yield _module_block(token_ids[start:stop], lengths[start:stop], X,
                            unit, assignment, min_module_size)
        start = stop


def _module_block(token_ids, n_valid, X, unit, assignment, min_module_size):
    """The ModuleBlock of descriptions of n_valid[d] in-vocab word ids each,
    token_ids[d]; unit holds the norms that unit-normalize the rows of X.
    Its working arrays are freed on return, before the block is measured."""
    n, D, tokens = len(X), len(n_valid), np.concatenate(token_ids)
    zero_mean = row_norms(_run_means(X, tokens, n_valid)) == 0
    # each description's distinct words, ascending, grouped by atom; every
    # sort is a stable int64 argsort or lexsort, as each other numpy sort
    # kernel maps its own code, 0.1-0.3 MB of resident memory
    key = np.repeat(np.arange(D), n_valid) * n + tokens
    key = key[np.argsort(key, kind="stable")]
    owner, words = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    atoms = assignment[words]
    keep = atoms != UNASSIGNED
    span = int(assignment.max(initial=0)) + 1
    order = np.argsort(owner[keep] * span + atoms[keep], kind="stable")
    owner, words, atoms = (a[keep][order] for a in (owner, words, atoms))
    first = np.flatnonzero(np.diff(owner, prepend=-1)
                           | np.diff(atoms, prepend=-1))
    sizes = np.diff(first, append=len(words))
    mods = np.argsort(owner[first] * n + words[first], kind="stable")
    first, sizes = first[mods], sizes[mods]
    words = words[np.repeat(first - np.cumsum(sizes) + sizes, sizes)
                  + np.arange(len(words))]
    owner, atoms = owner[first], atoms[first]
    occupied = [s.tolist() for s in np.split(
        sizes, np.cumsum(np.bincount(owner, minlength=D))[:-1])]
    keep = sizes >= min_module_size
    words, sizes = words[np.repeat(keep, sizes)], sizes[keep]
    return ModuleBlock(X, words, sizes, atoms[keep], owner[keep],
                       _run_means(X, words, sizes, unit), occupied,
                       n_valid.tolist(), zero_mean.tolist())


def _pooled(A, lead, B, follow, start, count, segments):
    """The cosine distances of a block's pairs, in order, and each
    segment's count of them. Lead q pairs row lead[q] of A with rows
    follow[start[q]], ..., follow[start[q] + count[q] - 1] of B; segments
    counts each segment's consecutive leads. A kernel call gathers at most BLOCK_PAIRS pairs, as
    C-contiguous row copies."""
    end = np.cumsum(count)
    dist = np.empty(end[-1] if len(end) else 0)
    # pair p, of lead q, takes row follow[offset[q] + p] of B
    offset = start - end + count
    for p0 in range(0, len(dist), BLOCK_PAIRS):
        p = np.arange(p0, min(p0 + BLOCK_PAIRS, len(dist)))
        q = np.searchsorted(end, p, side="right")
        dist[p0:p0 + len(p)] = cosine_distance(A[lead[q]],
                                               B[follow[offset[q] + p]])
    return dist, np.diff(np.r_[0, end][np.cumsum(np.r_[0, segments])])


def _means(values, counts):
    """Per run of consecutive values, of the given counts, np.mean of the
    run, bitwise (0.0 for an empty run). numpy sums fewer than 8 values
    from left to right, so those runs add one rank at a time; longer ones
    are summed one by one."""
    start, sums = np.cumsum(counts) - counts, np.zeros(len(counts))
    for r in range(min(7, counts.max(initial=0))):
        live = (counts > r) & (counts < 8)
        sums[live] += values[start[live] + r]
    long = np.flatnonzero(counts >= 8)
    for d, a, c in zip(long.tolist(), start[long].tolist(),
                       counts[long].tolist()):
        sums[d] = np.add.reduce(values[a:a + c])
    return sums / np.maximum(counts, 1)


def _mean_of(values, counts, flag):
    """Per run of consecutive values, of the given counts, (its mean, no
    flag), or (0.0, flag) when it is empty."""
    return [(v, _NO_FLAGS) if c else (0.0, frozenset({flag}))
            for v, c in zip(_means(values, counts).tolist(), counts.tolist())]


def _later(sizes):
    """For runs of the given sizes end to end, each position's count of
    later positions in its run."""
    return np.repeat(np.cumsum(sizes), sizes) - np.arange(sizes.sum()) - 1


def local_distance(block: ModuleBlock):
    """Per description, (mean cosine distance, flags) over all within-module
    pairs of its words, pooled across modules in combinations order."""
    b = block
    return _mean_of(*_pooled(b.X, b.words, b.X, b.words,
                             np.arange(1, len(b.words) + 1), _later(b.sizes),
                             np.bincount(np.repeat(b.owner, b.sizes),
                                         minlength=len(b.occupied))),
                    FLAG_EMPTY_PAIR_POOL)


def global_distance(block: ModuleBlock):
    """Per description, (mean cosine distance, flags) over all pairs of its
    modules' centroids in atom order, zero centroids left out. Centroids
    average unit-normalized member vectors so the measure is invariant to
    per-word rescaling."""
    C, norms = block.centroids, row_norms(block.centroids)
    mods = np.lexsort((block.atoms, block.owner))
    mods = mods[norms[mods] > 0]
    per = np.bincount(block.owner[mods], minlength=len(block.occupied))
    return _mean_of(*_pooled(C, mods, C, mods,
                             np.arange(1, len(mods) + 1),
                             _later(per[per > 0]), per), FLAG_SINGLE_MODULE)


def classify_tech_app(tokens, lexicon: LexiconSet,
                      freq_ratio_threshold: float) -> dict:
    """Label each distinct token technology or application.

    Technology when in the dictionary union, or when its patent relative
    frequency exceeds its general relative frequency by the threshold factor.
    """
    labels = {}
    for tok in set(tokens):
        if tok in lexicon.tech_terms:
            labels[tok] = TECHNOLOGY
            continue
        g = lexicon.general_freq.get(tok)
        p = lexicon.patent_freq.get(tok)
        if g is None and p is None:
            labels[tok] = APPLICATION
            continue
        g_rel = (g or 0.0) / lexicon.general_total
        p_rel = (p or 0.0) / lexicon.patent_total
        if g_rel == 0.0:
            labels[tok] = TECHNOLOGY if p_rel > 0 else APPLICATION
        else:
            labels[tok] = TECHNOLOGY if p_rel / g_rel > freq_ratio_threshold \
                else APPLICATION
    return labels


def tech_app_local_distance(block: ModuleBlock, labels, vocab):
    """Per description, (mean cosine distance, flags) over its technology-
    application cross pairs within modules, pooled: each module's
    technology words in id order, each against its application words in id
    order."""
    b = block
    module = np.repeat(np.arange(len(b.sizes)), b.sizes)
    kind = np.array([labels.get(vocab.id_to_token[w])
                     for w in b.words.tolist()], dtype=object)
    tech, app = (np.flatnonzero(kind == k) for k in (TECHNOLOGY, APPLICATION))
    apps = np.bincount(module[app], minlength=len(b.sizes))
    return _mean_of(*_pooled(
        b.X, b.words[tech], b.X, b.words[app],
        (np.cumsum(apps) - apps)[module[tech]], apps[module[tech]],
        np.bincount(b.owner[module[tech]], minlength=len(b.occupied))),
        FLAG_NO_TECH_APP_PAIRS)


def centroid_spread(block: ModuleBlock):
    """Per description, (mean over its modules of the mean cosine distance
    of member words from the module's centroid, flags). Modules whose
    centroid collapses to zero are skipped."""
    b, C, norms = block, block.centroids, row_norms(block.centroids)
    module = np.repeat(np.arange(len(b.sizes)), b.sizes)
    live = np.flatnonzero(norms[module] > 0)
    per_module = _means(*_pooled(
        b.X, b.words[live], C, module[live],
        np.arange(len(live)), np.ones(len(live), np.int64),
        b.sizes[norms > 0]))
    zero = set(b.owner[norms == 0].tolist())
    return [(v, f | {FLAG_ZERO_CENTROID} if d in zero else f)
            for d, (v, f) in enumerate(_mean_of(per_module, np.bincount(
                b.owner[norms > 0], minlength=len(b.occupied)),
                FLAG_EMPTY_PAIR_POOL))]


def negentropy_balance(block: ModuleBlock):
    """Per description, the normalized negative entropy of its word counts
    across occupied atoms, in [-1, 0], with its flags; a single occupied
    atom returns 0 by convention. The entropy sums atoms in the order of
    block.occupied, so it does not depend on the string hash seed."""
    def balance(counts):
        if len(counts) < 2:
            return 0.0, frozenset({FLAG_SINGLE_ATOM} if counts
                                  else {FLAG_NO_VALID_TOKENS})
        total = sum(counts)
        ent = sum((c / total) * math.log(c / total) for c in counts)
        return ent / math.log(len(counts)), _NO_FLAGS
    return [balance(counts) for counts in block.occupied]


def valid_elements(block: ModuleBlock):
    """Per description, its count of in-vocab tokens, with no_valid_tokens
    when it has none and zero_centroid when their mean row is zero."""
    return [(n, frozenset({FLAG_NO_VALID_TOKENS}) if n == 0 else
             frozenset({FLAG_ZERO_CENTROID}) if zero else _NO_FLAGS)
            for n, zero in zip(block.n_valid, block.zero_mean)]


def element_familiarity(tokens, labels, vocab, t: int, lookback_years: int,
                        years, known=None):
    """Mean over technology tokens of ln(1 + count over the slices that start
    within lookback_years before slice t's start year); years holds each
    slice's start year. known, a dict shared by calls with the same vocab,
    lookback_years and years, keeps each (token, t) term once computed."""
    tech = sorted({tok for tok in tokens if labels.get(tok) == TECHNOLOGY})
    if not tech:
        return 0.0, 1  # value, no_tech_dummy
    known = {} if known is None else known
    window = [s for s in range(t) if years[s] >= years[t] - lookback_years]
    for tok in tech:
        if (tok, t) not in known:
            known[tok, t] = math.log1p(vocab.count_in_window(tok, window))
    vals = [known[tok, t] for tok in tech]
    # np.mean, bitwise: it sums fewer than 8 values from left to right
    return (sum(vals) / len(vals) if len(vals) < 8
            else float(np.mean(vals))), 0


def text_controls(tokens, vocab, threshold: float):
    """(text_length, rare_word_dummy); a token is rare when it is out of
    vocabulary or its global count is below threshold."""
    text_length = len(tokens)
    if text_length == 0:
        return 0, 1
    rare = 0
    for tok in tokens:
        if tok not in vocab.token_to_id:
            rare = 1
            break
        if vocab.global_counts[vocab.token_to_id[tok]] < threshold:
            rare = 1
            break
    return text_length, rare
