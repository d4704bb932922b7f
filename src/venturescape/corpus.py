"""Corpus ingestion: tokenization, vocabulary, weighted co-occurrence, PPMI."""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .config import SOURCES, Failure, SliceSpec, TokenRules, typed

_PUNCT_RE = re.compile(r"[^\w\s]")
_NUM_RE = re.compile(r"^\d+$")


class InputError(Failure, ValueError):
    """An input file that no stage can be built from: a malformed line of
    any input file, or evidence too thin to train or measure on."""

    code, label = 65, "input error"  # EX_DATAERR in sysexits.h


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
        source = obj.get("source", "other")
        if source not in SOURCES:
            raise InputError(f"source must be one of {', '.join(SOURCES)}, "
                             f"got {source!r}")
        return cls(id=typed(obj["id"], "str", "id"),
                   year=typed(obj["year"], "int", "year"),
                   source=source, text=typed(obj["text"], "str", "text"))


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

    id_to_token: list
    slice_counts: np.ndarray  # T x n token occurrence counts
    slice_totals: np.ndarray  # length T, total tokens per slice
    token_to_id: dict = field(init=False)
    global_counts: np.ndarray = field(init=False)  # length n

    def __post_init__(self):
        self.token_to_id = {w: i for i, w in enumerate(self.id_to_token)}
        self.global_counts = self.slice_counts.sum(axis=0)

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


@dataclass
class TokenizedCorpus:
    """The in-range documents, each tokenized once, with tokens numbered in
    first-seen order. Per slice: the ids of all its documents end to end,
    each document's length and each document's index into SOURCES."""

    token_to_id: dict
    ids: list  # per slice: int32 array
    lengths: list  # per slice: int64 array
    sources: list  # per slice: int8 array


def tokenize_corpus(docs, rules: TokenRules,
                    slices: SliceSpec) -> TokenizedCorpus:
    """Tokenize every document whose year falls in a slice, once."""
    token_to_id = {}
    # per slice: int32 token ids, int64 document lengths, int8 sources
    ids, lengths, sources = ([array(code) for _ in range(slices.n_slices)]
                             for code in "iqb")
    for doc in docs:
        t = slices.index(doc.year)
        if t is not None:
            tokens = tokenize(doc.text, rules)
            ids[t].extend([token_to_id.setdefault(w, len(token_to_id))
                           for w in tokens])
            lengths[t].append(len(tokens))
            sources[t].append(SOURCES.index(doc.source))
    return TokenizedCorpus(token_to_id, *([np.asarray(a) for a in arrays]
                                          for arrays in (ids, lengths, sources)))


def build_vocab(corpus: TokenizedCorpus, min_count: int) -> Vocabulary:
    """Build the joint vocabulary across slices.

    Tokens are retained when they reach min_count in at least one slice.
    Ids are assigned by descending global frequency, ties lexicographic.
    """
    m = len(corpus.token_to_id)
    counts = np.array([np.bincount(ids, minlength=m) for ids in corpus.ids])
    keep = np.flatnonzero((counts >= min_count).any(axis=0))
    if not keep.size:
        raise EmptyVocabularyError(
            f"empty vocabulary: no token reaches min_count {min_count} in "
            "any slice")

    tokens = list(corpus.token_to_id)
    totals = counts.sum(axis=0).tolist()
    order = sorted(keep.tolist(), key=lambda k: (-totals[k], tokens[k]))
    ordered = [tokens[k] for k in order]
    return Vocabulary(ordered, counts[:, order].astype(np.float64),
                      counts.sum(axis=1).astype(np.float64))


@dataclass
class SliceCooccurrence:
    """Sparse symmetric weighted pair counts for one slice: the distinct
    pairs i < j sorted by (i, j), the diagonal excluded."""

    t: int
    n: int
    row: np.ndarray  # i of each pair
    col: np.ndarray  # j of each pair
    data: np.ndarray  # weight of each pair
    marginals: np.ndarray  # row sums of the symmetric matrix
    total_mass: float  # D: sum over all ordered pairs


def count_cooccurrence(corpus: TokenizedCorpus, vocab: Vocabulary, t: int,
                       window: int, source_weights: dict) -> SliceCooccurrence:
    """Weighted symmetric co-occurrence counts of slice t.

    Each unordered in-window pair of in-vocabulary tokens adds its
    document's source weight (1.0 for a source without one) to both ordered
    cells; self-pairs are excluded, with no distance decay. For each offset
    d = 1..window the in-document pairs (ids[:-d], ids[d:]) are collected,
    and all of them are summed per distinct pair in one reduction.
    """
    n = len(vocab)
    # pair keys i * n + j; 32-bit keys sort faster where they fit
    key_type = np.int32 if n * n < 2 ** 31 else np.int64
    # corpus token id -> vocabulary id, -1 out of vocabulary
    remap = np.full(len(corpus.token_to_id), -1, dtype=key_type)
    remap[[corpus.token_to_id[w] for w in vocab.id_to_token]] = np.arange(n)
    tok = remap[corpus.ids[t]]
    # in-vocabulary tokens before each position, then per document
    kept = np.concatenate(([0], np.cumsum(tok >= 0)))
    lengths = np.diff(kept[np.cumsum(corpus.lengths[t])], prepend=0)
    tok = tok[tok >= 0]
    doc_weights = np.array([source_weights.get(s, 1.0) for s in SOURCES],
                           dtype=np.float64)[corpus.sources[t]]

    # tokens from each position to the end of its document
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(tok.size)
    w_of = np.repeat(doc_weights, lengths)
    keys, vals = [], []
    for d in range(1, window + 1):
        a, b = tok[:-d], tok[d:]
        keep = (left[:-d] > d) & (a != b)
        a, b = a[keep], b[keep]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
        vals.append(w_of[:-d][keep])
    pairs, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(slot, weights=np.concatenate(vals))
    row, col = pairs // n, pairs % n
    marginals = (np.bincount(row, weights=sums, minlength=n)
                 + np.bincount(col, weights=sums, minlength=n))
    return SliceCooccurrence(t=t, n=n, row=row, col=col, data=sums,
                             marginals=marginals, total_mass=2.0 * sums.sum())


@dataclass(frozen=True)
class CsrMatrix:
    """A square sparse matrix in canonical CSR form: row r holds the column
    indices indices[indptr[r]:indptr[r + 1]], sorted and distinct, and
    their values in data."""

    indptr: np.ndarray  # int64, length n + 1
    indices: np.ndarray  # int32, length nnz
    data: np.ndarray  # float64, length nnz

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass
class PpmiMatrix:
    """Sparse symmetric positive PMI matrix for one slice."""

    t: int
    matrix: CsrMatrix
    # the largest unshifted PMI of any counted pair, -inf for none; set by
    # build_ppmi, None for a slice read from its file, which does not store it
    max_pmi: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.n


def build_ppmi(counts: SliceCooccurrence, shift: float) -> PpmiMatrix:
    """Shifted positive PMI: max(ln(#(w,c) D / (#(w)#(c))) - ln(shift), 0).

    The ratio is formed elementwise over the nonzero pairs; the log is taken
    per pair with math.log so every value matches the scalar formula bit for
    bit.
    """
    mi, mj = counts.marginals[counts.row], counts.marginals[counts.col]
    bad = (mi <= 0) | (mj <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError("zero marginal with nonzero pair count at "
                         f"({counts.row[k]},{counts.col[k]})")
    ratio = counts.data * counts.total_mass / (mi * mj)
    pmi = np.fromiter(map(math.log, ratio.tolist()), dtype=np.float64,
                      count=ratio.size)
    max_pmi = float(pmi.max()) if pmi.size else -math.inf
    pmi -= math.log(shift)
    keep = pmi > 0
    mat = symmetric_csr(counts.n, counts.row[keep], counts.col[keep],
                        pmi[keep])
    return PpmiMatrix(t=counts.t, matrix=mat, max_pmi=max_pmi)


def symmetric_csr(n: int, i, j, v) -> CsrMatrix:
    """The canonical CSR of the n x n symmetric matrix with value v[p] at
    (i[p], j[p]) and (j[p], i[p]), for distinct pairs i[p] < j[p]. Both
    halves are sorted together by the key row * n + column; the pairs are
    distinct, so the keys are too, and the values are only moved."""
    rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
    order = np.argsort(rows.astype(np.int64) * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrMatrix(indptr=indptr, indices=cols[order].astype(np.int32),
                     data=np.concatenate((v, v))[order])


def read_lines(path, parse) -> list:
    """parse(line) for each nonblank line of a UTF-8 text file, without its
    LF or CRLF line end; a line for which parse returns None is left out. A
    line that is not UTF-8 or that parse cannot parse raises InputError
    naming path:line. Every input file is read through here."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").rstrip("\r\n")
                record = parse(line) if line.strip() else None
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise InputError(
                    f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
            if record is not None:
                records.append(record)
    return records


def read_csv(path, header: str, parse) -> list:
    """parse(row) for each row of a CSV file read by read_lines, but for
    rows whose first cell is header or starts with #."""
    def parse_line(line):
        row = next(csv.reader([line]))
        if row[0] != header and not row[0].startswith("#"):
            return parse(row)
    return read_lines(path, parse_line)


def read_documents(path) -> list:
    """The DocumentRecords of a JSONL corpus file that have text."""
    return [doc for doc in read_lines(path, DocumentRecord.from_json)
            if doc.text.strip()]
