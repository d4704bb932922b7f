"""The measure kernel against the per-pair loops it replaces.

Local, global, tech-app and spread distances must equal, bit for bit, the
values of the loops that call cosine_distance once per pair; build_panel,
which evaluates each (description, slice) once, must give the rows of a
fresh evaluation per episode."""

from dataclasses import asdict
from datetime import date
from itertools import combinations

import numpy as np
import pytest

import venturescape.measures as measures
from venturescape.atoms import UNASSIGNED, AtomDictionary
from venturescape.config import MeasureConfig, SliceSpec
from venturescape.corpus import Vocabulary
from venturescape.embedding import EmbeddingTensor
from venturescape.measures import (APPLICATION, FLAG_EMPTY_PAIR_POOL,
                                   FLAG_NO_TECH_APP_PAIRS, FLAG_SINGLE_MODULE,
                                   FLAG_SLICE_CLAMPED, FLAG_ZERO_CENTROID,
                                   LexiconSet, TECHNOLOGY, centroid_spread,
                                   classify_tech_app, cosine_distance,
                                   description_centroid, element_familiarity,
                                   global_distance, local_distance,
                                   negentropy_balance,
                                   tech_app_local_distance, text_controls)
from venturescape.panel import (CompanyRecord, CpiTable, Event,
                                InvestorProfile, MeasureRow,
                                OUTCOME_CENSORED, acquisition_price_thresholds,
                                build_episodes, build_panel,
                                classify_event_outcome, interpolate_measure,
                                time_to_market, vc_diversity)
from conftest import make_space, view_of

# ---- the per-pair loops: one cosine_distance call per pair ----------------


def ref_groups(tokens, vocab, atoms, min_module_size):
    ids = sorted({vocab.token_to_id[t] for t in tokens
                  if t in vocab.token_to_id})
    groups = {}
    for i in ids:
        a = int(atoms.assignment[i])
        if a != UNASSIGNED:
            groups.setdefault(a, []).append(i)
    return {a: g for a, g in groups.items() if len(g) >= min_module_size}


def unit_rows(M):
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return M / norms


def ref_local(tokens, vocab, X, atoms, mms):
    dists = [cosine_distance(X[i], X[j])
             for g in ref_groups(tokens, vocab, atoms, mms).values()
             for i, j in combinations(g, 2)]
    if not dists:
        return 0.0, {FLAG_EMPTY_PAIR_POOL}
    return float(np.mean(dists)), set()


def ref_global(tokens, vocab, X, atoms, mms):
    groups = ref_groups(tokens, vocab, atoms, mms)
    cents = [unit_rows(X[groups[a]]).mean(axis=0) for a in sorted(groups)]
    cents = [c for c in cents if np.linalg.norm(c) > 0]
    if len(cents) < 2:
        return 0.0, {FLAG_SINGLE_MODULE}
    return float(np.mean([cosine_distance(a, b)
                          for a, b in combinations(cents, 2)])), set()


def ref_tech_app(tokens, labels, vocab, X, atoms, mms):
    dists = []
    for g in ref_groups(tokens, vocab, atoms, mms).values():
        tech = [i for i in g if labels.get(vocab.id_to_token[i]) == TECHNOLOGY]
        app = [i for i in g if labels.get(vocab.id_to_token[i]) == APPLICATION]
        dists += [cosine_distance(X[i], X[j]) for i in tech for j in app]
    if not dists:
        return 0.0, {FLAG_NO_TECH_APP_PAIRS}
    return float(np.mean(dists)), set()


def ref_spread(tokens, vocab, X, atoms, mms):
    per_atom, flags = [], set()
    for g in ref_groups(tokens, vocab, atoms, mms).values():
        c = unit_rows(X[g]).mean(axis=0)
        if np.linalg.norm(c) == 0:
            flags.add(FLAG_ZERO_CENTROID)
            continue
        per_atom.append(float(np.mean([cosine_distance(X[i], c) for i in g])))
    if not per_atom:
        return 0.0, flags | {FLAG_EMPTY_PAIR_POOL}
    return float(np.mean(per_atom)), flags


def assert_bitwise(tokens, labels, vocab, U, atoms, mms):
    X = U.slices[0]
    pairs = [
        (local_distance(view_of(tokens, vocab, U, 0, atoms, mms)),
         ref_local(tokens, vocab, X, atoms, mms)),
        (global_distance(view_of(tokens, vocab, U, 0, atoms, mms)),
         ref_global(tokens, vocab, X, atoms, mms)),
        (tech_app_local_distance(view_of(tokens, vocab, U, 0, atoms, mms),
                                 labels, vocab),
         ref_tech_app(tokens, labels, vocab, X, atoms, mms)),
        (centroid_spread(view_of(tokens, vocab, U, 0, atoms, mms)),
         ref_spread(tokens, vocab, X, atoms, mms)),
    ]
    for got, want in pairs:
        assert got[0] == want[0]  # bitwise: no tolerance
        assert got[1] == want[1]


def atom_dictionary(assignment, K, k):
    return AtomDictionary(atoms=np.eye(K, k), assignment=assignment,
                          scores=np.ones(len(assignment)), error_trace=[])


def random_case(seed, n, k, K):
    """float32 values cast to float64, random atoms with some words left
    unassigned, and tokens with duplicates and out-of-vocabulary words."""
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(n, k)) * rng.uniform(0.2, 5.0, size=(n, 1)))
    X = X.astype(np.float32).astype(np.float64)
    words = [f"w{i:03d}" for i in range(n)]
    vocab, U = make_space(X, words)
    atoms = atom_dictionary(rng.integers(UNASSIGNED, K, size=n), K, k)
    pool = words + ["oov_a", "oov_b"]
    tokens = [str(w) for w in rng.choice(pool, size=int(rng.integers(0, 45)))]
    labels = {w: [TECHNOLOGY, APPLICATION, None][int(rng.integers(3))]
              for w in set(tokens)}
    return vocab, U, atoms, tokens, labels


@pytest.mark.parametrize("k", [3, 10, 16, 50, 100, 300])
def test_row_norms_equal_the_per_row_norm(k):
    """row_norms gives, bit for bit, the np.linalg.norm of each row that
    cosine_distance takes, on float32 values cast to float64 as
    storage.read_embeddings returns them."""
    rng = np.random.default_rng(k)
    X = (rng.normal(size=(200, k)) * rng.uniform(0.2, 5.0, size=(200, 1)))
    X = X.astype(np.float32).astype(np.float64)
    got = measures.row_norms(X)
    assert got.dtype == np.float64
    assert (got == np.array([np.linalg.norm(x) for x in X])).all()


class TestBitwiseAgainstPairLoops:
    @pytest.mark.parametrize("k", [3, 16, 50])
    @pytest.mark.parametrize("min_module_size", [1, 2, 3])
    def test_random_float32_embeddings(self, k, min_module_size):
        for seed in range(25):
            vocab, U, atoms, tokens, labels = random_case(seed, 40, k, 5)
            assert_bitwise(tokens, labels, vocab, U, atoms, min_module_size)

    def test_duplicates_unassigned_and_singletons(self):
        vocab, U, atoms, _, _ = random_case(7, 12, 16, 3)
        atoms.assignment[:] = [0, 0, 0, 1, 1, 2, UNASSIGNED, UNASSIGNED,
                               0, 1, 2, 2]
        tokens = ["w000", "w000", "w001", "w008", "w003", "w009", "w009",
                  "w005", "w006", "w007", "oov", "w002"]
        labels = {"w000": TECHNOLOGY, "w001": APPLICATION,
                  "w008": APPLICATION, "w003": TECHNOLOGY,
                  "w009": APPLICATION, "w005": TECHNOLOGY}
        for mms in (1, 2, 3, 4):
            assert_bitwise(tokens, labels, vocab, U, atoms, mms)
        # atom 2 holds the singleton w005 here; w006 and w007 are unassigned
        got, flags = local_distance(view_of(tokens, vocab, U, 0, atoms, 2))
        assert got > 0 and not flags

    def test_zero_row_still_raises(self):
        X = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [0.5, -1.0, 2.0],
                      [2.0, 0.1, 0.3], [0.2, 0.4, -1.0]])
        vocab, U = make_space(X, ["a", "zero", "b", "c", "d"])
        atoms = atom_dictionary(np.array([0, 0, 0, 1, 1]), 2, 3)
        tokens = ["a", "zero", "b", "c", "d"]
        labels = {"a": APPLICATION, "zero": TECHNOLOGY, "b": APPLICATION}
        with pytest.raises(ValueError):
            ref_local(tokens, vocab, X, atoms, 2)
        with pytest.raises(ValueError):
            local_distance(view_of(tokens, vocab, U, 0, atoms))
        with pytest.raises(ValueError):
            tech_app_local_distance(view_of(tokens, vocab, U, 0, atoms),
                                    labels, vocab)
        with pytest.raises(ValueError):
            centroid_spread(view_of(tokens, vocab, U, 0, atoms))
        # a zero row adds nothing to its atom's centroid of unit rows
        got = global_distance(view_of(tokens, vocab, U, 0, atoms))
        assert got == ref_global(tokens, vocab, X, atoms, 2)
        assert got[0] > 0


# ---- build_panel against a fresh evaluation per episode --------------------

INTERPOLATED = ("local_distance", "global_distance", "tech_app_local_distance",
                "centroid_spread", "negentropy", "element_familiarity")
YEARS = [2013, 2015, 2017]  # two-year slices
SLICES = SliceSpec(2013, 2018, 2)


def slice_of(year):
    """The slice a year falls in, the first or last one outside the range."""
    return 0 if year < YEARS[0] else max(t for t, y in enumerate(YEARS)
                                         if y <= year)


@pytest.fixture()
def panel_space():
    rng = np.random.default_rng(11)
    n, k, K = 30, 16, 4
    words = [f"v{i:02d}" for i in range(n)]
    slices = rng.normal(size=(len(YEARS), n, k)).astype(np.float32)
    U = EmbeddingTensor(slices=slices.astype(np.float64), years=list(YEARS))
    counts = rng.integers(0, 9, size=(len(YEARS), n)).astype(np.float64)
    vocab = Vocabulary(id_to_token=words, slice_counts=counts,
                       slice_totals=counts.sum(axis=1))
    atom_dicts = {t: atom_dictionary(rng.integers(UNASSIGNED, K, size=n), K, k)
                  for t in range(len(YEARS))}
    lexicon = LexiconSet(tech_terms=frozenset(words[::3]), general_freq={},
                         patent_freq={})
    text = lambda size: " ".join(rng.choice(words, size=size))
    return vocab, U, atom_dicts, lexicon, text


def ev(type, d, price=None, investors=()):
    return Event(type=type, date=date.fromisoformat(d), price_usd=price,
                 investors=tuple(investors))


def reference_measures(text, vocab, U, t, atoms, lexicon, cfg):
    tokens = text.lower().split()
    X, mms = U.slices[t], cfg.min_module_size
    labels = classify_tech_app(tokens, lexicon, cfg.freq_ratio_threshold)
    vals, flags = {}, set()
    for name, (value, f) in (
            ("local_distance", ref_local(tokens, vocab, X, atoms, mms)),
            ("global_distance", ref_global(tokens, vocab, X, atoms, mms)),
            ("tech_app_local_distance",
             ref_tech_app(tokens, labels, vocab, X, atoms, mms)),
            ("centroid_spread", ref_spread(tokens, vocab, X, atoms, mms)),
            ("negentropy", negentropy_balance(
                view_of(tokens, vocab, U, t, atoms, mms)))):
        vals[name] = value
        flags |= f
    vals["element_familiarity"], vals["no_tech_dummy"] = element_familiarity(
        tokens, labels, vocab, t, cfg.lookback_years, U.years)
    _, vals["n_valid_elements"], f = description_centroid(tokens, vocab, U, t)
    flags |= f
    vals["text_length"], vals["rare_word_dummy"] = text_controls(
        tokens, vocab, vocab.rare_threshold(cfg.rare_percentile))
    return vals, flags


def reference_rows(companies, vocab, U, atom_dicts, lexicon, cpi, cfg):
    """build_panel's rows, every description evaluated afresh per episode."""
    cutoffs = acquisition_price_thresholds(companies, cpi, cfg.top_price_share)
    rows = []
    for comp in companies:
        ttm, ttm_flags = time_to_market(comp.events)
        for start, end, event in build_episodes(comp):
            t = slice_of(start.year)
            flags = set(ttm_flags)
            if not SLICES.year_min <= start.year <= SLICES.year_max:
                flags.add(FLAG_SLICE_CLAMPED)
            args = (vocab, U, t, atom_dicts[t], lexicon, cfg)
            if comp.snapshots:
                per_snap = []
                for d, snap in comp.snapshots:
                    vals, f = reference_measures(snap, *args)
                    per_snap.append((d, vals))
                    flags |= f
                vals = dict(per_snap[-1][1])
                for name in INTERPOLATED:
                    vals[name] = interpolate_measure(
                        [(d, v[name]) for d, v in per_snap], start)
            else:
                vals, f = reference_measures(comp.description, *args)
                flags |= f
            outcome, diversity = OUTCOME_CENSORED, None
            if event is not None:
                outcome = classify_event_outcome(event, comp.industry, cpi,
                                                 cutoffs)
                diversity = vc_diversity(event.investors)
            rows.append(MeasureRow(
                company_id=comp.id, episode_start=start, episode_end=end,
                slice_year=U.years[t], time_to_market_months=ttm,
                vc_diversity=diversity, outcome=outcome,
                degenerate_flags=flags, **vals))
    return rows


def test_build_panel_equals_per_episode_evaluation(panel_space, monkeypatch):
    vocab, U, atom_dicts, lexicon, text = panel_space
    shared = text(25)
    snaps = [(date(2013, 6, 1), text(20)), (date(2017, 6, 1), text(30))]
    pair = [InvestorProfile("i1", frozenset({"x", "y"})),
            InvestorProfile("i2", frozenset({"y"}))]
    companies = [
        # four episodes in the 2015 slice
        CompanyRecord("a", shared, date(2015, 1, 10), "tech",
                      [ev("seed", "2015-02-01", investors=pair),
                       ev("early_round_a", "2015-05-01"),
                       ev("later_round", "2016-09-01")]),
        # the same description in another company and other slices
        CompanyRecord("b", shared, date(2012, 3, 1), "tech",
                      [ev("seed", "2017-01-05"),
                       ev("acquisition", "2018-02-01", price=50.0)]),
        # snapshots, re-scored in each slice an episode starts in
        CompanyRecord("c", text(15), date(2013, 2, 1), "bio",
                      [ev("seed", "2013-05-01"),
                       ev("early_round_a", "2015-11-01"),
                       ev("ipo", "2017-03-01")], snapshots=snaps),
        CompanyRecord("d", text(3), date(2016, 4, 1), "bio", []),
    ]
    cpi = CpiTable({y: 100.0 + y - 2010 for y in range(2010, 2020)},
                   base_year=2015)
    cfg = MeasureConfig(lookback_years=3)

    calls = {"local_distance": [], "_module_groups": []}
    for name, log in calls.items():
        def counted(*args, _original=getattr(measures, name), _log=log):
            _log.append(args)
            return _original(*args)
        monkeypatch.setattr(measures, name, counted)
    assignments = [atom_dicts[t].assignment for t in range(len(YEARS))]
    rows, rejected = build_panel(companies, vocab, U, SLICES, assignments,
                                 lexicon, cpi, cfg,
                                 lambda text: text.lower().split())
    monkeypatch.undo()

    want = reference_rows(companies, vocab, U, atom_dicts, lexicon, cpi, cfg)
    assert not rejected and len(rows) == len(want) == 11
    for got, ref in zip(rows, want):
        assert asdict(got) == asdict(ref)  # every field, floats bitwise
    keys = set()
    for comp in companies:
        texts = [s for _, s in comp.snapshots] or [comp.description]
        for start, _, _ in build_episodes(comp):
            keys |= {(s, slice_of(start.year)) for s in texts}
    # one evaluation, and one grouping of its words, per (text, slice)
    assert len(calls["local_distance"]) == len(keys) == 8
    assert len(calls["_module_groups"]) == 8
