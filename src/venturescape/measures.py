"""Company-level recombination measures over one embedding slice and its
discourse atoms: centroid projection, local/global distances, the
technology-application variants, balance entropy, familiarity, and text
controls."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .atoms import UNASSIGNED, _normalize_rows
from .corpus import InputError

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
        with open(terms_path, encoding="utf-8") as fh:
            terms = {line.strip().lower() for line in fh if line.strip()}
        return cls(tech_terms=frozenset(terms),
                   general_freq=_read_freq_csv(general_csv),
                   patent_freq=_read_freq_csv(patent_csv))


def _read_freq_csv(path) -> dict:
    """term -> summed count of a `term,count` CSV; a malformed row raises
    InputError naming path:line."""
    freq = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "term":
                continue
            try:
                count = float(row[1])
            except (ValueError, IndexError) as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
            freq[row[0].lower()] = freq.get(row[0].lower(), 0.0) + count
    return freq


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine distance undefined for zero vector")
    return 1.0 - float(a @ b) / (na * nb)


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the np.linalg.norm call that
    cosine_distance makes on one row, so each is bitwise equal to its norm;
    np.linalg.norm(X, axis=1) sums in another order."""
    return np.array([np.linalg.norm(x) for x in X])


def description_centroid(tokens, vocab, U, t: int):
    """Mean vector of in-vocabulary tokens (duplicates counted).

    Returns (centroid, n_valid, flags); zero in-vocab tokens yields the zero
    vector plus a degenerate flag.
    """
    ids = [vocab.token_to_id[tok] for tok in tokens if tok in vocab.token_to_id]
    flags = set()
    if not ids:
        return np.zeros(U.k), 0, {FLAG_NO_VALID_TOKENS}
    centroid = U.slices[t][ids].mean(axis=0)
    if np.linalg.norm(centroid) == 0:
        flags.add(FLAG_ZERO_CENTROID)
    return centroid, len(ids), flags


def _module_groups(tokens, vocab, atoms, min_module_size: int):
    """Distinct in-vocab words grouped by atom; atoms with fewer than
    min_module_size company words ("marginal modules") are dropped."""
    distinct = sorted({tok for tok in tokens if tok in vocab.token_to_id},
                      key=vocab.token_to_id.get)
    groups = {}
    for tok in distinct:
        wid = vocab.token_to_id[tok]
        a = int(atoms.assignment[wid])
        if a == UNASSIGNED:
            continue
        groups.setdefault(a, []).append(wid)
    return {a: ids for a, ids in groups.items() if len(ids) >= min_module_size}


@dataclass(frozen=True)
class ModuleView:
    """One description's modules in one embedding slice, shared by the
    local, global, tech-app and spread measures.

    X is the slice and norms its row_norms. groups maps each surviving atom
    to the ascending ids of the description's distinct words on it (see
    _module_groups); centroids maps it to the mean of those words' unit
    rows."""

    X: np.ndarray
    norms: np.ndarray
    groups: dict
    centroids: dict


def module_view(tokens, vocab, X, norms, atoms,
                min_module_size: int) -> ModuleView:
    groups = _module_groups(tokens, vocab, atoms, min_module_size)
    centroids = {a: _normalize_rows(X[ids]).mean(axis=0)
                 for a, ids in groups.items()}
    return ModuleView(X=X, norms=norms, groups=groups, centroids=centroids)


def _distances_from(view, i, js) -> np.ndarray:
    """cosine_distance(X[i], X[j]) for each j in js, by the same operations
    on the same operands, so the values are bitwise equal: np.vecdot makes
    one BLAS dot call per row, the call ``a @ b`` makes on two 1-D rows,
    where a Gram product or einsum would sum in another order."""
    ni, nj = view.norms[i], view.norms[js]
    if ni == 0 or not nj.all():
        raise ValueError("cosine distance undefined for zero vector")
    return 1.0 - np.vecdot(view.X[i], view.X[js]) / (ni * nj)


def local_distance(view: ModuleView):
    """Mean cosine distance over all within-atom pairs of company words,
    pooled across surviving atoms."""
    # combinations order: each word against the later words of its atom
    dists = [_distances_from(view, ids[r], ids[r + 1:])
             for ids in view.groups.values() for r in range(len(ids) - 1)]
    if not dists:
        return 0.0, {FLAG_EMPTY_PAIR_POOL}
    return float(np.mean(np.concatenate(dists))), set()


def global_distance(view: ModuleView):
    """Mean cosine distance over all pairs of per-atom company-word
    centroids. Centroids average unit-normalized member vectors so the
    measure is invariant to per-word rescaling."""
    centroids = [view.centroids[a] for a in sorted(view.groups)]
    centroids = [c for c in centroids if np.linalg.norm(c) > 0]
    if len(centroids) < 2:
        return 0.0, {FLAG_SINGLE_MODULE}
    dists = [cosine_distance(a, b) for a, b in combinations(centroids, 2)]
    return float(np.mean(dists)), set()


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


def tech_app_local_distance(view: ModuleView, labels, vocab):
    """Mean cosine distance over technology-application cross pairs within
    surviving atoms, pooled."""
    dists = []
    for ids in view.groups.values():
        tech = [i for i in ids if labels.get(vocab.id_to_token[i]) == TECHNOLOGY]
        app = [i for i in ids if labels.get(vocab.id_to_token[i]) == APPLICATION]
        if app:
            dists.extend(_distances_from(view, i, app) for i in tech)
    if not dists:
        return 0.0, {FLAG_NO_TECH_APP_PAIRS}
    return float(np.mean(np.concatenate(dists))), set()


def centroid_spread(view: ModuleView):
    """Per surviving atom, mean cosine distance of member words from the
    atom's company-word centroid; averaged across atoms. Atoms whose centroid
    collapses to zero are skipped."""
    per_atom = []
    flags = set()
    for a, ids in view.groups.items():
        c = view.centroids[a]
        nc = np.linalg.norm(c)
        if nc == 0:
            flags.add(FLAG_ZERO_CENTROID)
            continue
        norms = view.norms[ids]
        if not norms.all():
            raise ValueError("cosine distance undefined for zero vector")
        dists = 1.0 - np.vecdot(view.X[ids], c) / (norms * nc)
        per_atom.append(float(np.mean(dists)))
    if not per_atom:
        flags.add(FLAG_EMPTY_PAIR_POOL)
        return 0.0, flags
    return float(np.mean(per_atom)), flags


def negentropy_balance(tokens, vocab, atoms):
    """Normalized negative entropy of company-word counts across occupied
    atoms, in [-1, 0]; a single occupied atom returns 0 by convention. The
    entropy sums atoms in order of their lowest word id, so it does not
    depend on the process's string hash seed."""
    counts = [len(ids) for ids in _module_groups(tokens, vocab, atoms, 1).values()]
    if not counts:
        return 0.0, {FLAG_NO_VALID_TOKENS}
    C = len(counts)
    if C == 1:
        return 0.0, {FLAG_SINGLE_ATOM}
    total = sum(counts)
    ent = sum((c / total) * math.log(c / total) for c in counts)
    return ent / math.log(C), set()


def element_familiarity(tokens, labels, vocab, t: int, lookback_years: int,
                        years):
    """Mean over technology tokens of ln(1 + count over the slices that start
    within lookback_years before slice t's start year); years holds each
    slice's start year."""
    tech = sorted({tok for tok in tokens if labels.get(tok) == TECHNOLOGY})
    if not tech:
        return 0.0, 1  # value, no_tech_dummy
    window = [s for s in range(t) if years[s] >= years[t] - lookback_years]
    vals = [math.log1p(vocab.count_in_window(tok, window)) for tok in tech]
    return float(np.mean(vals)), 0


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
