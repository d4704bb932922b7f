"""Embedding sanity instruments: semantic axes, drift traces, analogies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingTensor, nearest_neighbors, top_cosine


class AxisError(ValueError):
    pass


@dataclass
class SemanticAxis:
    vector: np.ndarray  # unit norm
    dropped: list = field(default_factory=list)  # out-of-vocab seeds


def build_axis(U: EmbeddingTensor, t: int, pos_words, neg_words,
               vocab) -> SemanticAxis:
    """Unit-norm difference of pole means; out-of-vocab seeds are dropped
    with a record, not an error."""
    dropped = [w for w in list(pos_words) + list(neg_words)
               if w not in vocab.token_to_id]
    pos = [vocab.token_to_id[w] for w in pos_words if w in vocab.token_to_id]
    neg = [vocab.token_to_id[w] for w in neg_words if w in vocab.token_to_id]
    if not pos or not neg:
        raise AxisError("each pole needs at least one in-vocabulary seed")
    X = U.slices[t]
    diff = X[pos].mean(axis=0) - X[neg].mean(axis=0)
    norm = np.linalg.norm(diff)
    if norm == 0:
        raise AxisError("poles coincide: zero difference vector")
    return SemanticAxis(vector=diff / norm, dropped=dropped)


def project_on_axis(vec: np.ndarray, axis: SemanticAxis):
    """Cosine similarity between a vector (word or centroid) and the axis;
    None for zero-norm vectors."""
    norm = np.linalg.norm(vec)
    if norm == 0:
        return None
    return float(vec @ axis.vector) / norm


@dataclass
class DriftReport:
    word: str
    years: list
    neighbors: list  # per slice: list of (word, similarity)

    def to_long_rows(self):
        rows = []
        for year, neigh in zip(self.years, self.neighbors):
            for rank, (w, sim) in enumerate(neigh, start=1):
                rows.append((year, self.word, w, rank, sim))
        return rows


def drift_trace(U: EmbeddingTensor, word: str, vocab, N: int = 10) -> DriftReport:
    """Per-slice nearest neighbors of one word, assembled chronologically."""
    if word not in vocab.token_to_id:
        close = sorted(vocab.token_to_id, key=lambda w: (abs(len(w) - len(word)), w))[:5]
        raise KeyError(f"word not in vocabulary: {word}; near spellings: {close}")
    neighbors = [nearest_neighbors(U, t, word, vocab, N=N)
                 for t in range(U.T)]
    return DriftReport(word=word, years=list(U.years), neighbors=neighbors)


def analogy_query(U: EmbeddingTensor, t: int, a: str, b: str, c: str, vocab,
                  N: int = 10, exclude_operands: bool = True) -> list:
    """Ranked candidates nearest to v(a) - v(b) + v(c) by cosine."""
    for w in (a, b, c):
        if w not in vocab.token_to_id:
            raise KeyError(f"analogy operand not in vocabulary: {w}")
    X = U.slices[t]
    target = (X[vocab.token_to_id[a]] - X[vocab.token_to_id[b]]
              + X[vocab.token_to_id[c]])
    exclude = ({vocab.token_to_id[w] for w in (a, b, c)} if exclude_operands
               else ())
    return top_cosine(X, target, vocab, N, exclude)
