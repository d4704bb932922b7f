"""Acceptance gate: one test per criterion, pinned tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.
"""

import random
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import spearmanr

from venturescape.atoms import ksvd_train, train_atoms
from venturescape.config import AtomConfig, SliceSpec, TokenRules, TrainConfig
from venturescape.corpus import DocumentRecord, build_ppmi
from venturescape.embedding import EmbeddingTensor, objective_value, train
from venturescape.measures import (APPLICATION, TECHNOLOGY, centroid_spread,
                                   global_distance, local_distance,
                                   negentropy_balance,
                                   tech_app_local_distance)
from venturescape.panel import (CpiTable, Event, InvestorProfile,
                                OUTCOME_IPO_HIGH, OUTCOME_OTHER_ACQ,
                                CompanyRecord, acquisition_price_thresholds,
                                classify_event_outcome, interpolate_measure,
                                vc_diversity)
from conftest import make_atoms, make_space, view_of
from oracles import from_scipy, ingest, match_atoms_greedy, to_scipy

FIXTURES = Path(__file__).parent / "fixtures"


def random_symmetric_sparse(rng, n, density=0.3):
    M = rng.random((n, n)) * (rng.random((n, n)) < density)
    Y = np.triu(M, 1)
    return from_scipy(sp.csr_matrix(Y + Y.T))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def migration_corpus():
    """3-slice corpus: two 20-word clusters plus one word that migrates from
    the first cluster to the second after the first slice."""
    rng = random.Random(11)
    A = [f"alpha{i:02d}" for i in range(20)]
    B = [f"beta{i:02d}" for i in range(20)]
    docs, did = [], 0
    for year in (2000, 2001, 2002):
        for cluster in (A, B):
            for _ in range(60):
                words = rng.choices(cluster, k=10)
                host = A if year == 2000 else B
                if cluster is host and rng.random() < 0.5:
                    words.insert(rng.randrange(len(words)), "mover")
                docs.append(DocumentRecord(str(did), year, "other",
                                           " ".join(words)))
                did += 1
    rules = TokenRules()
    slices = SliceSpec(2000, 2002)
    vocab, counts = ingest(docs, rules, slices, min_count=3, window=5)
    Ys = [build_ppmi(c, 1.0).matrix for c in counts]
    return vocab, Ys, A, B


@pytest.fixture(scope="module")
def venture_fixture():
    """Planted venture geometry: 50 companies, each owning 4 word clusters
    whose mutual spread increases continuously across companies."""
    rng = np.random.default_rng(42)
    k = 20
    spreads = np.linspace(0.05, 1.5, 50)
    rng.shuffle(spreads)
    centers = []
    for c in range(50):
        anchor = rng.normal(size=k)
        anchor /= np.linalg.norm(anchor)
        for _ in range(4):
            v = anchor + spreads[c] * rng.normal(size=k)
            centers.append(v / np.linalg.norm(v))
    centers = np.array(centers)
    words, vecs = [], []
    for ci, center in enumerate(centers):
        for j in range(3):
            words.append(f"w{ci:03d}_{j}")
            vecs.append(center + 0.02 * rng.normal(size=k))
    vocab, U = make_space(np.array(vecs), words)
    companies = [[f"w{ci:03d}_{j}" for ci in range(c * 4, c * 4 + 4)
                  for j in range(3)] for c in range(50)]
    return vocab, U, companies, spreads


# ---------------------------------------------------------------- criteria

def test_c01_objective_matches_dense_oracle():
    """Joint objective equals an explicit-loop dense evaluation, 1e-10."""
    rng = np.random.default_rng(0)
    start = time.time()
    for trial in range(10):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, 6))
        Ys = [random_symmetric_sparse(rng, n) for _ in range(3)]
        U = EmbeddingTensor(rng.normal(size=(3, n, k)), [0, 1, 2])
        cfg = TrainConfig(k=k, lam=float(rng.random() * 5),
                          tau=float(rng.random() * 5))

        expected = 0.0
        for t in range(3):
            Yd = to_scipy(Ys[t]).toarray()
            Ut = U.slices[t]
            for i in range(n):
                for j in range(n):
                    resid = Yd[i, j] - float(Ut[i] @ Ut[j])
                    expected += 0.5 * resid * resid
            expected += 0.5 * cfg.lam * float(np.sum(Ut * Ut))
        for t in range(1, 3):
            d = U.slices[t - 1] - U.slices[t]
            expected += 0.5 * cfg.tau * float(np.sum(d * d))

        assert objective_value(Ys, U, cfg) == pytest.approx(expected,
                                                            abs=1e-10)
    assert time.time() - start < 5.0


def test_c02_splitting_objective_monotone_over_jacobi_sweeps():
    """On 5 random instances, 20 Jacobi sweeps never increase the splitting
    objective by more than 1e-8 relative."""
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = int(rng.integers(10, 40))
        Ys = [random_symmetric_sparse(rng, n) for _ in range(3)]
        trace = []
        train(Ys, TrainConfig(k=4, lam=0.5, tau=1.0, sweeps=20, tol=0.0,
                              seed=trial),
              callback=lambda s, v: trace.append(v))
        assert len(trace) == 20
        for a, b in zip(trace, trace[1:]):
            assert (b - a) / abs(a) <= 1e-8
        trace.clear()


def test_c03_tau_smoothness_monotone(migration_corpus):
    """Mean adjacent-slice Frobenius distance is nonincreasing across
    tau in {0, 0.1, 1, 10} on a fixed corpus and seed."""
    _, Ys, _, _ = migration_corpus
    prev = None
    for tau in (0.0, 0.1, 1.0, 10.0):
        U = train(Ys, TrainConfig(k=10, lam=0.1, tau=tau, sweeps=15, tol=0.0,
                                  seed=0))
        d = float(np.mean([np.linalg.norm(U.slices[t] - U.slices[t - 1])
                           for t in range(1, U.T)]))
        if prev is not None:
            assert d <= prev
        prev = d


def test_c04_planted_temporal_semantics(migration_corpus):
    """Two planted clusters separate by >= 0.2 mean cosine in every slice
    and the migrating word flips its nearest cluster at the planted slice."""
    vocab, Ys, A, B = migration_corpus
    start = time.time()
    U = train(Ys, TrainConfig(k=10, lam=0.1, tau=0.5, sweeps=15, tol=0.0,
                              seed=0), years=[2000, 2001, 2002])
    ids_a = [vocab.token_to_id[w] for w in A]
    ids_b = [vocab.token_to_id[w] for w in B]
    mover = vocab.token_to_id["mover"]
    closest = []
    for t in range(3):
        X = U.slices[t]
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        wa = Xn[ids_a] @ Xn[ids_a].T
        wb = Xn[ids_b] @ Xn[ids_b].T
        na, nb = len(ids_a), len(ids_b)
        within = (wa.sum() - na + wb.sum() - nb) / (na * (na - 1) +
                                                    nb * (nb - 1))
        between = float((Xn[ids_a] @ Xn[ids_b].T).mean())
        assert within - between >= 0.2, f"slice {t}"
        sim_a = float((Xn[mover] @ Xn[ids_a].T).mean())
        sim_b = float((Xn[mover] @ Xn[ids_b].T).mean())
        closest.append("A" if sim_a > sim_b else "B")
    assert closest == ["A", "B", "B"]
    assert time.time() - start < 60.0


def test_c05_ksvd_dictionary_recovery():
    """K=10 planted atoms, s=2, 500 noisy samples: >= 8/10 recovered at
    cosine >= 0.95; reconstruction error trace monotone."""
    rng = np.random.default_rng(5)
    K, k, n, s, sigma = 10, 20, 500, 2, 0.01
    true = rng.normal(size=(K, k))
    true /= np.linalg.norm(true, axis=1, keepdims=True)
    X = np.zeros((n, k))
    for i in range(n):
        idx = rng.choice(K, size=s, replace=False)
        coefs = rng.uniform(0.5, 1.5, size=s) * rng.choice([-1, 1], size=s)
        X[i] = coefs @ true[idx] + sigma * rng.normal(size=k)
    d = ksvd_train(X, AtomConfig(K=K, sparsity=s, iterations=15, seed=1))
    pairs = match_atoms_greedy(true, d.atoms)
    assert sum(1 for _, _, c in pairs if c >= 0.95) >= 8
    for a, b in zip(d.error_trace, d.error_trace[1:]):
        assert b <= a * (1 + 1e-8)


def test_c06_assignment_equals_argmax_oracle(venture_fixture):
    """Hard assignment equals an exhaustive per-word argmax over cosines."""
    vocab, U, _, _ = venture_fixture
    X = U.slices[0]
    d = train_atoms(X, AtomConfig(K=30, sparsity=2, iterations=4, seed=0))
    for i in range(len(vocab)):
        sims = [float(X[i] @ d.atoms[a]) /
                (np.linalg.norm(X[i]) * np.linalg.norm(d.atoms[a]))
                for a in range(d.K)]
        assert d.assignment[i] == int(np.argmax(sims))


def test_c07_distance_measures_match_brute_force_and_scale_invariance():
    """All four distance measures equal explicit pair enumeration within
    1e-10 for 100 small companies, and survive per-word positive rescaling."""
    rng = np.random.default_rng(7)
    k = 12
    centers = rng.normal(size=(30, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs, words = [], []
    for ci, c in enumerate(centers):
        for j in range(5):
            vecs.append(c + 0.05 * rng.normal(size=k))
            words.append(f"c{ci:02d}w{j}")
    X = np.array(vecs)
    vocab, U = make_space(X, words)
    atoms = make_atoms(centers, X)
    labels = {w: (TECHNOLOGY if i % 2 == 0 else APPLICATION)
              for i, w in enumerate(words)}

    def cosd(a, b):
        return 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

    def oracle(tokens, Xm):
        ids = sorted({vocab.token_to_id[t] for t in tokens}, )
        groups = {}
        for i in ids:
            groups.setdefault(int(atoms.assignment[i]), []).append(i)
        groups = {a: g for a, g in groups.items() if len(g) >= 2}
        loc_pairs, ta_pairs, spreads, cents = [], [], [], []
        for g in groups.values():
            for x in range(len(g)):
                for y in range(x + 1, len(g)):
                    loc_pairs.append(cosd(Xm[g[x]], Xm[g[y]]))
            for i in g:
                for j in g:
                    wi = vocab.id_to_token[i]
                    wj = vocab.id_to_token[j]
                    if labels[wi] == TECHNOLOGY and labels[wj] == APPLICATION:
                        ta_pairs.append(cosd(Xm[i], Xm[j]))
            unit = np.array([Xm[i] / np.linalg.norm(Xm[i]) for i in g])
            c = unit.mean(axis=0)
            cents.append(c)
            if np.linalg.norm(c) > 0:
                spreads.append(np.mean([cosd(Xm[i], c) for i in g]))
        loc = float(np.mean(loc_pairs)) if loc_pairs else 0.0
        ta = float(np.mean(ta_pairs)) if ta_pairs else 0.0
        spread = float(np.mean(spreads)) if spreads else 0.0
        glob_pairs = [cosd(a, b) for x, a in enumerate(cents)
                      for b in cents[x + 1:]]
        glob = float(np.mean(glob_pairs)) if len(cents) >= 2 else 0.0
        return loc, glob, ta, spread

    scale = rng.uniform(0.2, 5.0, size=(len(words), 1))
    vocab2, U2 = make_space(X * scale, words)
    atoms2 = make_atoms(centers, X * scale)
    assert np.array_equal(atoms.assignment, atoms2.assignment)

    for _ in range(100):
        n_tok = int(rng.integers(3, 11))
        toks = list(rng.choice(words, size=n_tok, replace=False))
        loc, glob, ta, spread = oracle(toks, X)
        got_loc, _ = local_distance(view_of(toks, vocab, U, 0, atoms))
        got_glob, _ = global_distance(view_of(toks, vocab, U, 0, atoms))
        got_ta, _ = tech_app_local_distance(view_of(toks, vocab, U, 0, atoms),
                                            labels, vocab)
        got_spread, _ = centroid_spread(view_of(toks, vocab, U, 0, atoms))
        assert got_loc == pytest.approx(loc, abs=1e-10)
        assert got_glob == pytest.approx(glob, abs=1e-10)
        assert got_ta == pytest.approx(ta, abs=1e-10)
        assert got_spread == pytest.approx(spread, abs=1e-10)

        assert local_distance(view_of(toks, vocab2, U2, 0, atoms2))[0] == \
            pytest.approx(got_loc, abs=1e-10)
        assert global_distance(view_of(toks, vocab2, U2, 0, atoms2))[0] == \
            pytest.approx(got_glob, abs=1e-10)
        assert tech_app_local_distance(view_of(toks, vocab2, U2, 0, atoms2),
                                       labels, vocab2)[0] == \
            pytest.approx(got_ta, abs=1e-10)
        assert centroid_spread(view_of(toks, vocab2, U2, 0, atoms2))[0] == \
            pytest.approx(got_spread, abs=1e-10)


def test_c08_jaccard_diversity_examples():
    """{a,b},{b,c},{c,d} -> 7/9; identical -> 0; disjoint -> 1."""
    def inv(i, *kw):
        return InvestorProfile(id=str(i), industry_keywords=frozenset(kw))

    assert vc_diversity([inv(1, "a", "b"), inv(2, "b", "c"),
                         inv(3, "c", "d")]) == pytest.approx(7 / 9, abs=1e-12)
    assert vc_diversity([inv(1, "x", "y"), inv(2, "x", "y")]) == 0.0
    assert vc_diversity([inv(1, "x"), inv(2, "y")]) == 1.0


def test_c09_negentropy_examples(clustered_space):
    """Uniform over 2 atoms -> -1; single atom -> 0; (3,1) -> -0.8113."""
    vocab, U, atoms = clustered_space
    two_even = ["c00w0", "c00w1", "c01w0", "c01w1"]
    assert negentropy_balance(view_of(two_even, vocab, U, 0, atoms))[0] == \
        pytest.approx(-1.0, abs=1e-12)
    assert negentropy_balance(
        view_of(["c00w0", "c00w1"], vocab, U, 0, atoms))[0] == 0.0
    split31 = ["c00w0", "c00w1", "c00w2", "c01w0"]
    assert negentropy_balance(view_of(split31, vocab, U, 0, atoms))[0] == \
        pytest.approx(-0.8113, abs=1e-4)


def test_c10_outcome_coding_top_30_percent():
    """Exactly the top 3 of 10 same-industry acquisitions are labeled high;
    missing-price acquisitions are always other_acq."""
    cpi = CpiTable({2015: 100.0}, base_year=2015)
    prices = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    comps = []
    for i, p in enumerate(prices):
        comps.append(CompanyRecord(
            id=f"c{i}", description="", founded=date(2014, 1, 1),
            industry="tech",
            events=[Event(type="acquisition", date=date(2015, 6, 1),
                          price_usd=p)]))
    cutoffs = acquisition_price_thresholds(comps, cpi, 0.3)
    labels = [classify_event_outcome(c.events[0], "tech", cpi, cutoffs)
              for c in comps]
    assert labels.count(OUTCOME_IPO_HIGH) == 3
    assert all(lbl == OUTCOME_IPO_HIGH for lbl in labels[-3:])
    assert all(lbl == OUTCOME_OTHER_ACQ for lbl in labels[:-3])

    no_price = Event(type="acquisition", date=date(2015, 6, 1))
    assert classify_event_outcome(no_price, "tech", cpi, cutoffs) == \
        OUTCOME_OTHER_ACQ


def test_c11_interpolation_examples():
    """(2014,0.2),(2016,0.4): 2015 -> 0.3 exactly; out-of-range queries
    return the nearest endpoint."""
    pts = [(date(2014, 1, 1), 0.2), (date(2016, 1, 1), 0.4)]
    assert interpolate_measure(pts, date(2015, 1, 1)) == \
        pytest.approx(0.3, abs=1e-12)
    assert interpolate_measure(pts, date(2012, 1, 1)) == 0.2
    assert interpolate_measure(pts, date(2019, 1, 1)) == 0.4


def test_c12_robustness_across_atom_configs(venture_fixture):
    """Global distance under K=200 k-SVD, K=100 k-SVD, and K=200 k-means:
    pairwise Spearman >= 0.5 and preserved high/low-spread separation."""
    vocab, U, companies, spreads = venture_fixture
    X = U.slices[0]
    results = {}
    for name, cfg in [
        ("ksvd200", AtomConfig(K=200, sparsity=2, iterations=6, seed=0)),
        ("ksvd100", AtomConfig(K=100, sparsity=2, iterations=6, seed=0)),
        ("kmeans200", AtomConfig(K=200, sparsity=2, iterations=10,
                                 method="kmeans", seed=0)),
    ]:
        d = train_atoms(X, cfg)
        results[name] = np.array(
            [global_distance(view_of(toks, vocab, U, 0, d))[0]
             for toks in companies])

    names = list(results)
    for i in range(3):
        for j in range(i + 1, 3):
            rho = spearmanr(results[names[i]], results[names[j]]).statistic
            assert rho >= 0.5, (names[i], names[j], rho)

    order = np.argsort(spreads)
    low, high = order[:25], order[25:]
    for name in names:
        assert results[name][high].mean() > results[name][low].mean(), name


def test_c13_end_to_end_determinism(tmp_path):
    """run-all on the bundled mini fixtures finishes well under 5 minutes
    and produces byte-identical output trees across two same-seed runs."""
    config = FIXTURES / "config.yaml"
    start = time.time()
    trees = []
    for out in (tmp_path / "run1", tmp_path / "run2"):
        proc = subprocess.run(
            [sys.executable, "-m", "venturescape.cli", "run-all",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert time.time() - start < 300.0
    assert trees[0].keys() == trees[1].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], f"differs: {rel}"
