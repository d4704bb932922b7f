"""Simple reference paths and inspection helpers that only tests use."""

import numpy as np


def _unit_rows(M):
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
    sims = np.abs(_unit_rows(np.asarray(true_atoms, dtype=np.float64))
                  @ _unit_rows(np.asarray(learned, dtype=np.float64)).T)
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
