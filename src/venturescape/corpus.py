"""Corpus ingestion: tokenization, vocabulary, weighted co-occurrence, PPMI."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

SOURCES = ("news", "patent", "other")

_PUNCT_RE = re.compile(r"[^\w\s]")
_NUM_RE = re.compile(r"^\d+$")


class InputError(ValueError):
    """An input file that no stage can be built from: a malformed corpus,
    company or CPI record."""


class EmptyVocabularyError(InputError):
    """No token of the corpus reaches min_count in any slice."""


@dataclass(frozen=True)
class DocumentRecord:
    id: str
    year: int
    source: str
    text: str

    @classmethod
    def from_json(cls, line: str) -> "DocumentRecord":
        obj = json.loads(line)
        source = obj.get("source") or "other"
        if source not in SOURCES:
            source = "other"
        return cls(id=str(obj["id"]), year=int(obj["year"]), source=source,
                   text=str(obj["text"]))


@dataclass(frozen=True)
class TokenRules:
    """Deterministic tokenization rules applied to every document."""

    lowercase: bool = True
    strip_punct: bool = True
    strip_numbers: bool = False
    min_token_len: int = 1
    stopwords: frozenset = frozenset()
    # phrases joined into single tokens, e.g. ("real", "estate") -> "real_estate"
    bigrams: tuple = ()


@dataclass(frozen=True)
class SliceSpec:
    """Maps calendar years onto time-slice indices."""

    year_min: int
    year_max: int
    width: int = 1

    def __post_init__(self):
        if self.year_max < self.year_min:
            raise ValueError("year_max < year_min")
        if self.width < 1:
            raise ValueError("slice width must be >= 1")

    @property
    def n_slices(self) -> int:
        return (self.year_max - self.year_min) // self.width + 1

    def index(self, year: int):
        """Slice index for a calendar year, or None when out of range."""
        if year < self.year_min or year > self.year_max:
            return None
        return (year - self.year_min) // self.width

    def labels(self) -> list:
        """Representative (starting) year of each slice."""
        return [self.year_min + t * self.width for t in range(self.n_slices)]


def tokenize(text: str, rules: TokenRules) -> list:
    """Tokenize one text. Empty result is valid, not an error."""
    if rules.lowercase:
        text = text.lower()
    if rules.strip_punct:
        text = _PUNCT_RE.sub(" ", text)
    tokens = text.split()
    if rules.strip_numbers:
        tokens = [t for t in tokens if not _NUM_RE.match(t)]
    if rules.min_token_len > 1:
        tokens = [t for t in tokens if len(t) >= rules.min_token_len]
    if rules.bigrams:
        pairs = set(tuple(p) for p in rules.bigrams)
        joined = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in pairs:
                joined.append(tokens[i] + "_" + tokens[i + 1])
                i += 2
            else:
                joined.append(tokens[i])
                i += 1
        tokens = joined
    if rules.stopwords:
        tokens = [t for t in tokens if t not in rules.stopwords]
    return tokens


@dataclass
class Vocabulary:
    """Dense token ids with per-slice and global counts."""

    token_to_id: dict
    id_to_token: list
    slice_counts: np.ndarray  # T x n token occurrence counts
    global_counts: np.ndarray  # length n
    slice_totals: np.ndarray  # length T, total tokens per slice

    def __len__(self) -> int:
        return len(self.id_to_token)

    def count_in_window(self, token: str, slices) -> float:
        """Total occurrences of a token over an iterable of slice indices."""
        if token not in self.token_to_id:
            return 0.0
        i = self.token_to_id[token]
        T = self.slice_counts.shape[0]
        return float(sum(self.slice_counts[t, i] for t in slices if 0 <= t < T))

    def rare_threshold(self, percentile: float) -> float:
        """Global-count value below which a token counts as very rare."""
        return float(np.quantile(self.global_counts, percentile))


def build_vocab(docs, rules: TokenRules, slices: SliceSpec,
                min_count: int = 10) -> Vocabulary:
    """Build the joint vocabulary across slices.

    Tokens are retained when they reach min_count in at least one slice.
    Ids are assigned by descending global frequency, ties lexicographic.
    """
    per_slice = [Counter() for _ in range(slices.n_slices)]
    for doc in docs:
        t = slices.index(doc.year)
        if t is None:
            continue
        per_slice[t].update(tokenize(doc.text, rules))

    keep = set()
    for counter in per_slice:
        for token, c in counter.items():
            if c >= min_count:
                keep.add(token)
    if not keep:
        raise EmptyVocabularyError(
            f"empty vocabulary: no token reaches min_count {min_count} in "
            "any slice")

    totals = Counter()
    for counter in per_slice:
        totals.update(counter)
    ordered = sorted(keep, key=lambda w: (-totals[w], w))
    token_to_id = {w: i for i, w in enumerate(ordered)}

    T, n = slices.n_slices, len(ordered)
    slice_counts = np.zeros((T, n), dtype=np.float64)
    for t, counter in enumerate(per_slice):
        for token, c in counter.items():
            i = token_to_id.get(token)
            if i is not None:
                slice_counts[t, i] = c
    global_counts = slice_counts.sum(axis=0)
    slice_totals = np.array([sum(c.values()) for c in per_slice], dtype=np.float64)
    return Vocabulary(token_to_id, ordered, slice_counts, global_counts, slice_totals)


@dataclass
class SliceCooccurrence:
    """Sparse symmetric weighted pair counts for one slice."""

    t: int
    n: int
    upper: sp.coo_matrix  # canonical COO of the i < j pairs; diagonal excluded
    marginals: np.ndarray  # row sums of the symmetric matrix
    total_mass: float  # D: sum over all ordered pairs
    skipped_docs: int = 0


def count_cooccurrence(docs, vocab: Vocabulary, rules: TokenRules,
                       slices: SliceSpec, window: int = 5,
                       source_weights=None) -> list:
    """Weighted symmetric co-occurrence counts per slice.

    Each unordered in-window token pair adds the document's source weight to
    both ordered cells. Self-pairs are excluded; no distance decay. Each
    slice's token ids are concatenated; for every offset d = 1..window the
    pairs (ids[:-d], ids[d:]) that lie in one document are collected, and
    all of them are summed per distinct pair in one reduction.
    """
    weights = {"news": 1.0, "patent": 1.0, "other": 1.0}
    if source_weights:
        weights.update(source_weights)

    T = slices.n_slices
    ids = [[] for _ in range(T)]  # per slice: token ids of every document
    lengths = [[] for _ in range(T)]
    doc_weights = [[] for _ in range(T)]
    out_of_range = 0
    lookup = vocab.token_to_id.get
    for doc in docs:
        t = slices.index(doc.year)
        if t is None:
            out_of_range += 1
            continue
        doc_ids = [i for i in map(lookup, tokenize(doc.text, rules))
                   if i is not None]
        ids[t].extend(doc_ids)
        lengths[t].append(len(doc_ids))
        doc_weights[t].append(weights.get(doc.source, weights["other"]))

    import scipy.sparse as sp  # lazy: only ingest and train load scipy

    n = len(vocab)
    # pair keys i * n + j; 32-bit keys sort faster where they fit
    key_type = np.int32 if n * n < 2 ** 31 else np.int64
    results = []
    for t in range(T):
        tok = np.array(ids[t], dtype=key_type)
        # tokens from each position to the end of its document
        left = (np.repeat(np.cumsum(lengths[t]), lengths[t])
                - np.arange(tok.size))
        w_of = np.repeat(np.array(doc_weights[t], dtype=np.float64),
                         lengths[t])
        keys, vals = [], []
        for d in range(1, window + 1):
            a, b = tok[:-d], tok[d:]
            keep = (left[:-d] > d) & (a != b)
            a, b = a[keep], b[keep]
            keys.append(np.minimum(a, b) * n + np.maximum(a, b))
            vals.append(w_of[:-d][keep])
        pairs, slot = np.unique(np.concatenate(keys), return_inverse=True)
        sums = np.bincount(slot, weights=np.concatenate(vals))
        upper = sp.coo_matrix((sums, (pairs // n, pairs % n)), shape=(n, n))
        upper.has_canonical_format = True  # np.unique sorted the pairs
        marginals = (np.bincount(upper.row, weights=upper.data, minlength=n)
                     + np.bincount(upper.col, weights=upper.data, minlength=n))
        results.append(SliceCooccurrence(
            t=t, n=n, upper=upper, marginals=marginals,
            total_mass=2.0 * float(upper.data.sum()),
            skipped_docs=out_of_range))
    return results


@dataclass
class PpmiMatrix:
    """Sparse symmetric positive PMI matrix for one slice."""

    t: int
    n: int
    matrix: sp.csr_matrix


def build_ppmi(counts: SliceCooccurrence, shift: float = 1.0) -> PpmiMatrix:
    """Shifted positive PMI: max(ln(#(w,c) D / (#(w)#(c))) - ln(shift), 0).

    The ratio is formed elementwise over the nonzero pairs; the log is taken
    per pair with math.log so every value matches the scalar formula bit for
    bit.
    """
    import scipy.sparse as sp  # lazy: only ingest and train load scipy

    n = counts.n
    upper = counts.upper
    mi, mj = counts.marginals[upper.row], counts.marginals[upper.col]
    bad = (mi <= 0) | (mj <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError("zero marginal with nonzero pair count at "
                         f"({upper.row[k]},{upper.col[k]})")
    ratio = upper.data * counts.total_mass / (mi * mj)
    pmi = np.fromiter(map(math.log, ratio.tolist()), dtype=np.float64,
                      count=ratio.size) - math.log(shift)
    keep = pmi > 0
    i, j, v = upper.row[keep], upper.col[keep], pmi[keep]
    mat = sp.csr_matrix((np.concatenate((v, v)),
                         (np.concatenate((i, j)), np.concatenate((j, i)))),
                        shape=(n, n))
    return PpmiMatrix(t=counts.t, n=n, matrix=mat)


def read_jsonl(path, parse) -> list:
    """parse(line) for each nonblank line of a JSONL file; a line it cannot
    parse raises InputError naming path:line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise InputError(
                    f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return records


def read_documents(path) -> list:
    """The DocumentRecords of a JSONL corpus file that have text."""
    return [doc for doc in read_jsonl(path, DocumentRecord.from_json)
            if doc.text.strip()]
