"""Simple reference paths and inspection helpers that only tests use."""

from collections import Counter

import numpy as np
import scipy.sparse as sp

from venturescape.atoms import AtomDictionary, assign_words
from venturescape.config import SETTINGS, SOURCES, TrainConfig
from venturescape.corpus import (CsrMatrix, EmptyVocabularyError,
                                 SliceCooccurrence, Vocabulary, build_vocab,
                                 count_cooccurrence, tokenize, tokenize_corpus)
from venturescape.embedding import (_fit_sq, _product, init_embeddings,
                                    solve_slice)
from venturescape.measures import FLAG_NO_VALID_TOKENS, FLAG_ZERO_CENTROID


def unit_rows(M):
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.where(norms == 0, 1.0, norms)


def cosine_distance(a, b) -> float:
    """Cosine distance of two vectors, one pair per call: the reference for
    measures.cosine_distance."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine distance undefined for zero vector")
    return 1.0 - float(a @ b) / (na * nb)


def description_centroid(tokens, vocab, U, t: int):
    """Mean vector of in-vocabulary tokens (duplicates counted): the
    reference for the n_valid_elements and zero_centroid flag that the
    measure stage's blocks yield.

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


def atom_summary(dictionary, vocab, top_m: int = 10) -> dict:
    """Per-atom top-m member words ranked by assignment score."""
    out = {}
    for a in range(dictionary.K):
        members = np.nonzero(dictionary.assignment == a)[0]
        ranked = sorted(members, key=lambda i: (-dictionary.scores[i], i))
        out[a] = [(vocab.id_to_token[i], float(dictionary.scores[i]))
                  for i in ranked[:top_m]]
    return out


def match_atoms_greedy(true_atoms, learned):
    """Greedy one-to-one matching by absolute cosine; sign/permutation
    invariant recovery check."""
    sims = np.abs(unit_rows(np.asarray(true_atoms, dtype=np.float64))
                  @ unit_rows(np.asarray(learned, dtype=np.float64)).T)
    pairs = []
    used_t, used_l = set(), set()
    order = np.dstack(np.unravel_index(np.argsort(-sims, axis=None),
                                       sims.shape))[0]
    for ti, li in order:
        if ti in used_t or li in used_l:
            continue
        pairs.append((int(ti), int(li), float(sims[ti, li])))
        used_t.add(ti)
        used_l.add(li)
        if len(pairs) == min(sims.shape):
            break
    return pairs


# every source's weight where a config sets none
WEIGHTS = SETTINGS["cooccurrence.weights"].default_factory()


def ingest(docs, rules, slices, min_count, window=1, source_weights=None):
    """The vocabulary of docs and every slice's SliceCooccurrence, built the
    way the ingest stage builds them; a source that source_weights leaves
    out weighs its default."""
    corpus = tokenize_corpus(docs, rules, slices)
    vocab = build_vocab(corpus, min_count)
    weights = {**WEIGHTS, **(source_weights or {})}
    return vocab, [count_cooccurrence(corpus, vocab, t, window, weights)
                   for t in range(slices.n_slices)]


def vocab_reference(docs, rules, slices, min_count) -> Vocabulary:
    """The vocabulary from one Counter of tokens per slice: tokens reaching
    min_count in some slice, ids by descending total, ties lexicographic."""
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
    slice_totals = np.array([sum(c.values()) for c in per_slice],
                            dtype=np.float64)
    return Vocabulary(ordered, slice_counts, slice_totals)


def cooccurrence_reference(corpus, vocab, t, window,
                           source_weights) -> SliceCooccurrence:
    """count_cooccurrence through np.unique: the keys i * n + j and weights
    of every in-window pair, offset by offset, then one np.bincount over
    each key's index among the distinct keys, which sums a pair's weights
    in that order from 0.0."""
    n = len(vocab)
    key_type = np.int32 if n * n < 2 ** 31 else np.int64
    remap = np.full(len(corpus.token_to_id), -1, dtype=key_type)
    remap[[corpus.token_to_id[w] for w in vocab.id_to_token]] = np.arange(n)
    tok = remap[corpus.ids[t]]
    kept = np.concatenate(([0], np.cumsum(tok >= 0)))
    lengths = np.diff(kept[np.cumsum(corpus.lengths[t])], prepend=0)
    tok = tok[tok >= 0]
    doc_weights = np.array([source_weights[s] for s in SOURCES],
                           dtype=np.float64)[corpus.sources[t]]
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(tok.size)
    w_of = np.repeat(doc_weights, lengths)
    keys, vals = [np.zeros(0, key_type)], [np.zeros(0)]
    for d in range(1, window + 1):
        a, b = tok[:-d], tok[d:]
        keep = (left[:-d] > d) & (a != b)
        keys.append(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
        vals.append(w_of[:-d][keep])
    pairs, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(slot, weights=np.concatenate(vals))
    row, col = pairs // n, pairs % n
    marginals = (np.bincount(row, weights=sums, minlength=n)
                 + np.bincount(col, weights=sums, minlength=n))
    return SliceCooccurrence(t=t, n=n, row=row, col=col, data=sums,
                             marginals=marginals, total_mass=2.0 * sums.sum())


def pair_counts(cc) -> dict:
    """(i, j) with i < j -> weight, of one SliceCooccurrence."""
    return dict(zip(zip(cc.row.tolist(), cc.col.tolist()), cc.data.tolist()))


def pair(cc, i: int, j: int) -> float:
    """The weight of the unordered pair {i, j} in one SliceCooccurrence."""
    if i > j:
        i, j = j, i
    hit = (cc.row == i) & (cc.col == j)
    return float(cc.data[hit].sum())


def upper_matrix(cc):
    """The i < j pairs of one SliceCooccurrence as a scipy COO matrix."""
    return sp.coo_matrix((cc.data, (cc.row, cc.col)), shape=(cc.n, cc.n))


def to_scipy(mat):
    """A CsrMatrix record as a scipy CSR matrix sharing its arrays."""
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr),
                         shape=(mat.n, mat.n))


def from_scipy(Y):
    """A scipy sparse matrix as a canonical CsrMatrix record: duplicate
    entries summed, column indices sorted, the input left untouched."""
    Y = Y.tocsr(copy=True)
    Y.sum_duplicates()
    return CsrMatrix(indptr=Y.indptr.astype(np.int64),
                     indices=Y.indices.astype(np.int32), data=Y.data)


def omp_reference(x, atoms, s: int):
    """Per-word orthogonal matching pursuit: code x over unit-norm atom rows
    with at most s nonzeros, one least-squares solve per greedy step.
    Returns a dense length-K coefficient vector."""
    K = atoms.shape[0]
    code = np.zeros(K)
    residual = x.copy()
    support = []
    for _ in range(s):
        corr = atoms @ residual
        corr[support] = 0.0
        idx = int(np.argmax(np.abs(corr)))
        if abs(corr[idx]) < 1e-12:
            break
        support.append(idx)
        sub = atoms[support]
        coef, *_ = np.linalg.lstsq(sub.T, x, rcond=None)
        residual = x - sub.T @ coef
    if support:
        code[support] = coef
    return code


def ksvd_reference(U_slice, cfg):
    """k-SVD coding one word at a time with omp_reference and rebuilding
    the residual for every atom update and every dead-atom reseed."""
    X = np.asarray(U_slice, dtype=np.float64)
    n, k = X.shape
    rng = np.random.default_rng(cfg.seed)
    seed_rows = rng.choice(n, size=cfg.K, replace=False)
    atoms = unit_rows(X[seed_rows].copy())
    for i in range(cfg.K):
        if np.linalg.norm(atoms[i]) < 1e-12:
            atoms[i] = rng.normal(size=k)
            atoms[i] /= np.linalg.norm(atoms[i])

    codes = np.zeros((n, cfg.K))
    trace = []
    for it in range(cfg.iterations):
        for i in range(n):
            new = omp_reference(X[i], atoms, cfg.sparsity)
            old_err = np.sum((X[i] - codes[i] @ atoms) ** 2)
            new_err = np.sum((X[i] - new @ atoms) ** 2)
            if it == 0 or new_err <= old_err:
                codes[i] = new

        for a in range(cfg.K):
            users = np.nonzero(np.abs(codes[:, a]) > 1e-12)[0]
            if users.size == 0:
                resid_all = X - codes @ atoms
                worst = int(np.argmax(np.sum(resid_all * resid_all, axis=1)))
                vec = X[worst]
                nv = np.linalg.norm(vec)
                if nv > 1e-12:
                    atoms[a] = vec / nv
                continue
            E = (X[users] - codes[users] @ atoms
                 + np.outer(codes[users, a], atoms[a]))
            try:
                Uv, sv, Vt = np.linalg.svd(E.T, full_matrices=False)
            except np.linalg.LinAlgError:
                continue
            if Vt[0].sum() < 0:
                Uv[:, 0], Vt[0] = -Uv[:, 0], -Vt[0]
            atoms[a] = Uv[:, 0]
            codes[users, a] = sv[0] * Vt[0, :]
        atoms = unit_rows(atoms)
        resid = X - codes @ atoms
        trace.append(float(np.sum(resid * resid)))

    assignment, scores = assign_words(atoms, X)
    return AtomDictionary(atoms=atoms, assignment=assignment, scores=scores,
                          error_trace=trace)


def splitting_objective(Ys, U: np.ndarray, W: np.ndarray, cfg: TrainConfig,
                        products=None) -> float:
    """Variable-splitting surrogate minimized by the sweeps:
    1/2 sum_t ||Y - U W'||^2 + gamma/2 sum_t ||U - W||^2
    + lam/2 sum_t (||U||^2 + ||W||^2)
    + tau/2 sum_{t>=2} (||U(t-1)-U(t)||^2 + ||W(t-1)-W(t)||^2)

    A list of length T given as products receives each Y(t) W(t) it forms.
    """
    total = 0.0
    for t, Y in enumerate(Ys):
        YW = _product(Y, W[t])
        if products is not None:
            products[t] = YW
        total += 0.5 * _fit_sq(Y, YW, U[t], W[t])
        diff = U[t] - W[t]
        total += 0.5 * cfg.gamma * float(np.sum(diff * diff))
        total += 0.5 * cfg.lam * (float(np.sum(U[t] * U[t])) + float(np.sum(W[t] * W[t])))
    for t in range(1, len(Ys)):
        du = U[t - 1] - U[t]
        dw = W[t - 1] - W[t]
        total += 0.5 * cfg.tau * (float(np.sum(du * du)) + float(np.sum(dw * dw)))
    return total


def train_reference(Ys, cfg):
    """embedding.train's sweeps with every product Y(t) W formed by the call
    that uses it, T (3 s + 1) products for s sweeps. Returns the collapsed
    slices and the objective after each sweep."""
    T = len(Ys)
    U = init_embeddings(Ys[0].n, cfg.k, T, cfg.seed)
    W = U.copy()
    trace = []
    prev_obj = splitting_objective(Ys, U, W, cfg)
    for sweep in range(cfg.sweeps):
        newU = np.empty_like(U)
        newW = np.empty_like(W)
        for t in range(T):
            up = U[t - 1] if t > 0 else None
            un = U[t + 1] if t + 1 < T else None
            newU[t] = solve_slice(t, Ys[t], W[t], up, un, cfg)
            wp = W[t - 1] if t > 0 else None
            wn = W[t + 1] if t + 1 < T else None
            newW[t] = solve_slice(t, Ys[t], U[t], wp, wn, cfg)
        U, W = newU, newW
        obj = splitting_objective(Ys, U, W, cfg)
        trace.append(obj)
        if prev_obj > 0 and abs(prev_obj - obj) / prev_obj < cfg.tol:
            break
        prev_obj = obj
    return (U + W) / 2.0, trace
