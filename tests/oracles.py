"""Simple reference paths and inspection helpers that only tests use."""

import numpy as np

from venturescape.atoms import AtomDictionary, assign_words


def unit_rows(M):
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.where(norms == 0, 1.0, norms)


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


def pair_counts(cc) -> dict:
    """(i, j) with i < j -> weight, of one SliceCooccurrence."""
    upper = cc.upper
    return dict(zip(zip(upper.row.tolist(), upper.col.tolist()),
                    upper.data.tolist()))


def pair(cc, i: int, j: int) -> float:
    """The weight of the unordered pair {i, j} in one SliceCooccurrence."""
    if i > j:
        i, j = j, i
    hit = (cc.upper.row == i) & (cc.upper.col == j)
    return float(cc.upper.data[hit].sum())


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
