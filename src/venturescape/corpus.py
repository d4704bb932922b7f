"""Corpus ingestion: tokenization, vocabulary, weighted co-occurrence, PPMI."""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .config import (SOURCES, Failure, SliceSpec, TokenRules, build,
                     declared)

_PUNCT_RE = re.compile(r"[^\w\s]")
_NUM_RE = re.compile(r"^\d+$")
# values per math.log call batch in build_ppmi, and entries per move in
# symmetric_csr: bounds each block temporary and the list of floats
LOG_BLOCK = 8192


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
    text: str
    source: str = declared("other", choices=SOURCES)


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
        """Global-count value below which a token counts as very rare: the
        percentile of the global counts, interpolated as np.quantile's
        default "linear" method does, bit for bit. np.quantile itself would
        load numpy.ma, and numpy's sort the code of another kernel, 1.9 MB
        and 0.2 MB of the measure stage's peak memory."""
        counts = sorted(self.global_counts.tolist())
        at = (len(counts) - 1) * percentile
        lo = min(math.floor(at), len(counts) - 1)
        a, b = counts[lo], counts[min(lo + 1, len(counts) - 1)]
        t = at - lo
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
    row: np.ndarray  # int32 i of each pair
    col: np.ndarray  # int32 j of each pair
    data: np.ndarray  # weight of each pair
    marginals: np.ndarray  # row sums of the symmetric matrix
    total_mass: float  # D: sum over all ordered pairs


def count_cooccurrence(corpus: TokenizedCorpus, vocab: Vocabulary, t: int,
                       window: int, source_weights: dict) -> SliceCooccurrence:
    """Weighted symmetric co-occurrence counts of slice t.

    Each unordered in-window pair of in-vocabulary tokens adds its
    document's source weight, source_weights[source], to both ordered
    cells; self-pairs are excluded, with no distance decay. For each offset
    d = 1..window the in-document pairs (ids[:-d], ids[d:]) are collected
    into one int64 per pair: its key i * n + j, then its place in that
    collection, then its document's source. One in-place sort of these
    puts equal keys together in collection order, and np.bincount over the
    runs of equal keys sums each pair's weights in that order from 0.0.
    """
    n = len(vocab)
    # corpus token id -> vocabulary id, -1 out of vocabulary
    remap = np.full(len(corpus.token_to_id), -1, dtype=np.int32)
    remap[[corpus.token_to_id[w] for w in vocab.id_to_token]] = np.arange(n)
    tok = remap[corpus.ids[t]]
    # in-vocabulary tokens before each position, then per document
    kept = np.concatenate(([0], np.cumsum(tok >= 0)))
    lengths = np.diff(kept[np.cumsum(corpus.lengths[t])], prepend=0)
    del kept
    tok = tok[tok >= 0]
    # tokens from each position to the end of its document, and its source
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(tok.size)
    src = np.repeat(corpus.sources[t], lengths)

    # the in-document pairs of every offset, self-pairs included, bound the
    # pairs kept; each pair's place among them takes size.bit_length() bits
    size = sum(int(np.maximum(lengths - d, 0).sum())
               for d in range(1, window + 1))
    source_bits = (len(SOURCES) - 1).bit_length()
    low = size.bit_length() + source_bits  # the bits below the key
    if n * n > 2 ** (63 - low):
        raise InputError(f"slice {t}: {size} in-window pairs over {n} words "
                         "overflow a 63-bit pair key; raise vocab.min_count")
    packed = np.empty(size, dtype=np.int64)
    end = 0
    for d in range(1, window + 1):
        a, b = tok[:-d], tok[d:]
        keep = (left[:-d] > d) & (a != b)
        a, b = a[keep], b[keep]
        start, end = end, end + a.size
        part = packed[start:end]
        np.minimum(a, b, out=part)
        part *= n
        part += np.maximum(a, b)
        part <<= low - source_bits
        part += np.arange(start, end)
        part <<= source_bits
        part += np.compress(keep, src[:-d])
    del tok, left, src, a, b, keep, part  # per-token arrays, before dedupe
    packed = packed[:end]
    packed.sort()
    source = (packed & 2 ** source_bits - 1).astype(np.uint8)
    weight = np.array([source_weights[s] for s in SOURCES])[source]
    del source
    packed >>= low
    # each run of equal keys: its first entry, then its id, in place
    first = np.empty(end, dtype=bool)
    first[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    pairs = packed[first]
    packed[:] = first
    del first
    packed[:1] = 0
    np.cumsum(packed, out=packed)
    sums = np.bincount(packed, weights=weight)
    del packed, weight
    row = (pairs // n).astype(np.int32)
    pairs %= n
    col = pairs.astype(np.int32)
    del pairs
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

    The ratio is formed elementwise over the nonzero pairs and its log taken
    per pair with math.log, LOG_BLOCK pairs at a time, so every value
    matches the scalar formula bit for bit and no other whole-slice
    temporary exists while the logs are taken.
    """
    zero = counts.marginals <= 0
    bad = zero[counts.row] | zero[counts.col]
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError("zero marginal with nonzero pair count at "
                         f"({counts.row[k]},{counts.col[k]})")
    del zero, bad  # each whole-slice temporary goes once it is used
    m = counts.marginals
    pmi = np.empty(counts.data.size)
    for start in range(0, pmi.size, LOG_BLOCK):
        block = slice(start, start + LOG_BLOCK)
        ratio = counts.data[block] * counts.total_mass
        ratio /= m[counts.row[block]] * m[counts.col[block]]
        pmi[block] = list(map(math.log, ratio.tolist()))
    max_pmi = float(pmi.max()) if pmi.size else -math.inf
    pmi -= math.log(shift)
    keep = pmi > 0
    i, j, v = counts.row[keep], counts.col[keep], pmi[keep]
    t, n = counts.t, counts.n
    # a caller that passed its counts without keeping them frees them here
    del counts, m, pmi, keep
    return PpmiMatrix(t=t, matrix=symmetric_csr(n, i, j, v), max_pmi=max_pmi)


def symmetric_csr(n: int, i, j, v) -> CsrMatrix:
    """The canonical CSR of the n x n symmetric matrix with value v[p] at
    (i[p], j[p]) and (j[p], i[p]), for distinct pairs i[p] < j[p] in any
    order. Row r is its lower half, the pairs with j = r in order of i,
    then its upper half, the pairs with i = r in order of j; _place_half
    puts each half in place, and the values are only moved."""
    lower, upper = np.bincount(j, minlength=n), np.bincount(i, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    csr = CsrMatrix(indptr=indptr,
                    indices=np.empty(2 * v.size, dtype=np.int32),
                    data=np.empty(2 * v.size))
    # the q-th entry of a half, in row r, goes to q plus the other half's
    # entries in the rows before r (lower half) or up to r (upper half)
    _place_half(csr, j, i, v, np.cumsum(upper) - upper)
    _place_half(csr, i, j, v, np.cumsum(lower))
    return csr


def _place_half(csr: CsrMatrix, rows, cols, v, before):
    """Write the distinct entries (rows[p], cols[p]) = v[p] into csr, the
    q-th in order of (row, column) at q + before[row]. One in-place sort of
    an int64 per entry, row * n + column and then p, puts them in order;
    they are moved LOG_BLOCK at a time."""
    n, size = csr.n, v.size
    bits = size.bit_length()
    if n * n > 2 ** (63 - bits):
        raise ValueError(f"{size} entries of an n = {n} matrix overflow a "
                         "63-bit sort key")
    packed = np.multiply(rows, n, dtype=np.int64)
    packed += cols
    packed <<= bits
    for start in range(0, size, LOG_BLOCK):
        block = packed[start:start + LOG_BLOCK]
        block += np.arange(start, start + block.size)
    packed.sort()
    packed &= 2 ** bits - 1
    for start in range(0, size, LOG_BLOCK):
        p = packed[start:start + LOG_BLOCK]
        to = before[rows[p]]
        to += np.arange(start, start + p.size)
        csr.indices[to] = cols[p]
        csr.data[to] = v[p]


def read_lines(path, parse, ids=False) -> list:
    """parse(line) for each nonblank line of a UTF-8 text file, without its
    LF or CRLF line end; a line for which parse returns None is left out. A
    line that is not UTF-8 or that parse cannot parse raises InputError
    naming path:line, and so, with ids, does a record whose id an earlier
    line's record has. Every input file is read through here."""
    records, first = [], {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").rstrip("\r\n")
                record = parse(line) if line.strip() else None
            except (ValueError, LookupError, TypeError) as exc:
                raise InputError(
                    f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
            if record is not None:
                if ids and first.setdefault(record.id, lineno) != lineno:
                    raise InputError(f"{path}:{lineno}: id {record.id} "
                                     f"repeats line {first[record.id]}")
                records.append(record)
    return records


def read_records(path, cls) -> list:
    """The records of a JSONL file, each nonblank line read by config.build
    as one cls with an id of its own; see read_lines."""
    return read_lines(path, lambda line: build(cls, json.loads(line)),
                      ids=True)


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
    return [doc for doc in read_records(path, DocumentRecord)
            if doc.text.strip()]
