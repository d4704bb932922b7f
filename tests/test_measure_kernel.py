"""The measure kernel against the per-pair loops it replaces.

Local, global, tech-app and spread distances must equal, bit for bit, the
values of the loops that call cosine_distance once per pair; build_panel,
which evaluates each (description, slice) once, must give the rows of a
fresh evaluation per episode."""

import gc
import tracemalloc
from dataclasses import asdict
from datetime import date
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import venturescape.measures as measures
from venturescape.atoms import UNASSIGNED, AtomDictionary
from venturescape.config import MeasureConfig, SliceSpec
from venturescape.corpus import Vocabulary
from venturescape.embedding import EmbeddingTensor
from venturescape.measures import (APPLICATION, FLAG_EMPTY_PAIR_POOL,
                                   FLAG_NO_TECH_APP_PAIRS, FLAG_SINGLE_MODULE,
                                   FLAG_SLICE_CLAMPED, FLAG_ZERO_CENTROID,
                                   LexiconSet, TECHNOLOGY, centroid_spread,
                                   classify_tech_app, element_familiarity,
                                   global_distance,
                                   local_distance, negentropy_balance,
                                   tech_app_local_distance, text_controls)
from venturescape.panel import (CompanyRecord, CpiTable, EVENT_TYPES, Event,
                                InvestorProfile, MeasureRow,
                                OUTCOME_CENSORED, acquisition_price_thresholds,
                                build_episodes, build_panel,
                                classify_event_outcome, interpolate_measure,
                                time_to_market, vc_diversity)
from conftest import make_space, view_of
from oracles import cosine_distance, description_centroid, unit_rows

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
        (local_distance(view_of(tokens, vocab, U, 0, atoms, mms))[0],
         ref_local(tokens, vocab, X, atoms, mms)),
        (global_distance(view_of(tokens, vocab, U, 0, atoms, mms))[0],
         ref_global(tokens, vocab, X, atoms, mms)),
        (tech_app_local_distance(view_of(tokens, vocab, U, 0, atoms, mms),
                                 labels, vocab)[0],
         ref_tech_app(tokens, labels, vocab, X, atoms, mms)),
        (centroid_spread(view_of(tokens, vocab, U, 0, atoms, mms))[0],
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
    """row_norms gives, bit for bit, the np.linalg.norm of each row that the
    oracle cosine_distance takes, on float32 values cast to float64 as
    storage.read_embeddings returns them."""
    rng = np.random.default_rng(k)
    X = (rng.normal(size=(200, k)) * rng.uniform(0.2, 5.0, size=(200, 1)))
    X = X.astype(np.float32).astype(np.float64)
    got = measures.row_norms(X)
    assert got.dtype == np.float64
    assert (got == np.array([np.linalg.norm(x) for x in X])).all()


@pytest.mark.parametrize("k", [3, 16, 50, 300])
def test_kernel_equals_the_pair_oracle_row_by_row(k):
    """measures.cosine_distance of two row stacks, or of a stack and one
    vector, gives bit for bit the oracle's distance of each row pair; a zero
    row in either operand raises."""
    rng = np.random.default_rng(k)
    A, B = rng.normal(size=(2, 120, k)) * rng.uniform(0.2, 5.0,
                                                      size=(2, 120, 1))
    A, B = (M.astype(np.float32).astype(np.float64) for M in (A, B))
    got = measures.cosine_distance(A, B)
    assert got.shape == (120,)
    assert (got == [cosine_distance(a, b) for a, b in zip(A, B)]).all()
    assert (measures.cosine_distance(A, B[5])
            == [cosine_distance(a, B[5]) for a in A]).all()
    for side in range(2):
        operands = [A.copy(), B.copy()]
        operands[side][17] = 0.0
        with pytest.raises(ValueError):
            measures.cosine_distance(*operands)


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
        got, flags = local_distance(view_of(tokens, vocab, U, 0, atoms, 2))[0]
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
            local_distance(view_of(tokens, vocab, U, 0, atoms))[0]
        with pytest.raises(ValueError):
            tech_app_local_distance(view_of(tokens, vocab, U, 0, atoms),
                                    labels, vocab)[0]
        with pytest.raises(ValueError):
            centroid_spread(view_of(tokens, vocab, U, 0, atoms))[0]
        # a zero row adds nothing to its atom's centroid of unit rows
        got = global_distance(view_of(tokens, vocab, U, 0, atoms))[0]
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
                view_of(tokens, vocab, U, t, atoms, mms))[0])):
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

    blocks = []

    def counted(*args, _original=measures.module_blocks):
        for block in _original(*args):
            blocks.append(len(block.occupied))
            yield block
    monkeypatch.setattr(measures, "module_blocks", counted)
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
    # one evaluation per (text, slice), in one block per slice
    assert sum(blocks) == len(keys) == 8
    assert len(blocks) == len(YEARS)


def test_one_kernel_call_per_pairwise_measure(panel_space, monkeypatch):
    """Local, global and tech-app distances each make one cosine_distance
    call per block of descriptions, here one block per slice that holds two
    descriptions with four modules each, with both technology and
    application words."""
    vocab, U, _, lexicon, _ = panel_space
    words = vocab.id_to_token
    assignments = [np.arange(len(words)) % 4] * len(YEARS)
    companies = [CompanyRecord(c, " ".join(words[i:]), date(2013, 3, 1),
                               "tech", [ev("seed", "2015-02-01"),
                                        ev("early_round_a", "2017-05-01")])
                 for c, i in (("a", 0), ("b", 1))]
    cpi = CpiTable({2015: 100.0}, base_year=2015)

    kernel_calls = []
    spied = {"local_distance": [], "global_distance": [],
             "tech_app_local_distance": []}

    def spy(*args, _original=measures.cosine_distance):
        kernel_calls.append(args)
        return _original(*args)
    monkeypatch.setattr(measures, "cosine_distance", spy)
    for name, log in spied.items():
        def counted(*args, _original=getattr(measures, name), _log=log):
            before = len(kernel_calls)
            result = _original(*args)
            _log.append(len(kernel_calls) - before)
            return result
        monkeypatch.setattr(measures, name, counted)
    rows, rejected = build_panel(companies, vocab, U, SLICES, assignments,
                                 lexicon, cpi, MeasureConfig(), str.split)
    monkeypatch.undo()

    assert not rejected and len(rows) == 6  # two evaluations per slice
    for name, log in spied.items():
        assert log == [1, 1, 1], name


# ---- blocks of descriptions against the per-episode reference -------------

BOOK_WORDS = [f"b{i:02d}" for i in range(24)]


def book_space(seed, K):
    """Three slices over BOOK_WORDS: b01 is -b00 and b03 is -b02, each pair
    on one atom in every slice, so modules of those two have zero
    centroids and a description of one pair has a zero mean; every other
    word has a random atom, UNASSIGNED included."""
    rng = np.random.default_rng(seed)
    n, k = len(BOOK_WORDS), 5
    X = rng.normal(size=(len(YEARS), n, k)).astype(np.float32)
    X[:, 1], X[:, 3] = -X[:, 0], -X[:, 2]
    U = EmbeddingTensor(slices=X.astype(np.float64), years=list(YEARS))
    counts = rng.integers(0, 9, size=(len(YEARS), n)).astype(np.float64)
    vocab = Vocabulary(id_to_token=BOOK_WORDS, slice_counts=counts,
                       slice_totals=counts.sum(axis=1))
    atom_dicts = {}
    for t in range(len(YEARS)):
        assignment = rng.integers(UNASSIGNED, K, size=n)
        assignment[1], assignment[3] = assignment[0], assignment[2] = 0, 1
        atom_dicts[t] = atom_dictionary(assignment, K, k)
    return vocab, U, atom_dicts


_texts = st.integers(0, 40).flatmap(lambda size: st.lists(
    st.sampled_from(BOOK_WORDS + ["oov"]), min_size=size, max_size=size)).map(
    " ".join) | st.sampled_from(["b00 b01", "b02 b03 b02 b03", "", "oov"])


@st.composite
def books(draw):
    """Companies over a few shared texts, so one text is measured in
    several slices, with events from 2011 to 2019 and some snapshots."""
    texts = draw(st.lists(_texts, min_size=1, max_size=5))
    pick = st.sampled_from(texts)
    companies = []
    for c in range(draw(st.integers(1, 8))):
        day = date(2011, 1, 1).toordinal()
        founded = date.fromordinal(day + draw(st.integers(0, 2000)))
        events, at = [], founded.toordinal()
        for _ in range(draw(st.integers(0, 3))):
            at += draw(st.integers(1, 900))
            kind = draw(st.sampled_from(EVENT_TYPES))
            price = draw(st.sampled_from([None, 10.0, 80.0]))
            events.append(ev(kind, date.fromordinal(at).isoformat(),
                             price if kind == "acquisition" else None))
        snapshots = [(date.fromordinal(day + draw(st.integers(0, 3000))),
                      draw(pick))
                     for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
        companies.append(CompanyRecord(f"c{c}", draw(pick), founded, "tech",
                                       events, snapshots=sorted(snapshots)))
    return companies


@pytest.mark.parametrize("bound", [1, 2, 7])
@settings(max_examples=40, deadline=None)
@given(companies=books(), seed=st.integers(0, 2**32 - 1),
       K=st.sampled_from([1, 3, 8]), mms=st.sampled_from([1, 2, 3]))
def test_blocks_equal_per_episode_evaluation(bound, companies, seed, K, mms):
    """build_panel, measuring each slice's descriptions in blocks of at most
    bound in-vocab tokens and its kernel calls at most bound pairs each, so
    that descriptions straddle kernel calls, gives exactly the rows of the
    per-pair reference: modules of 0, 1, 2 and many words, UNASSIGNED
    words, zero-norm centroids, texts shared across slices, snapshots."""
    vocab, U, atom_dicts = book_space(seed, K)
    lexicon = LexiconSet(tech_terms=frozenset(BOOK_WORDS[::3]),
                         general_freq={}, patent_freq={})
    # books() dates events as late as 2023
    cpi = CpiTable({y: 100.0 + y - 2010 for y in range(2010, 2025)},
                   base_year=2015)
    cfg = MeasureConfig(lookback_years=3, min_module_size=mms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "BLOCK_PAIRS", bound)
        mp.setattr(measures, "BLOCK_WORDS", bound)
        rows, rejected = build_panel(
            companies, vocab, U, SLICES,
            [atom_dicts[t].assignment for t in range(len(YEARS))], lexicon,
            cpi, cfg, lambda text: text.lower().split())
    assert not rejected
    want = reference_rows(companies, vocab, U, atom_dicts, lexicon, cpi, cfg)
    assert [asdict(r) for r in rows] == [asdict(r) for r in want]


def test_working_set_does_not_grow_with_the_book():
    """build_panel's traced peak above the rows it returns grows by under
    2.5 KB per description from a 200- to a 2,000-description book, the
    size of each description's results. Its 30 words on two atoms make
    about 350 pairs, so gathering a whole slice's pairs for one kernel call
    would add 45 KB per description."""
    rng = np.random.default_rng(5)
    words = [f"m{i:02d}" for i in range(60)]
    counts = np.ones((1, len(words)))
    vocab = Vocabulary(id_to_token=words, slice_counts=counts,
                       slice_totals=counts.sum(axis=1))
    U = EmbeddingTensor(slices=rng.normal(size=(1, len(words), 8)),
                        years=[2015])
    lexicon = LexiconSet(tech_terms=frozenset(words[::3]), general_freq={},
                         patent_freq={})
    cpi = CpiTable({2015: 100.0}, base_year=2015)

    def transient(D):
        companies = [CompanyRecord(
            f"c{c:05d}", " ".join(rng.choice(words, size=30, replace=False)),
            date(2015, 3, 1), "", []) for c in range(D)]
        gc.collect()
        tracemalloc.start()
        try:
            rows, _ = build_panel(
                companies, vocab, U, SliceSpec(2015, 2015, 1),
                [np.arange(len(words)) % 2], lexicon, cpi, MeasureConfig(),
                str.split)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == D
        return peak - current

    assert transient(2000) - transient(200) < 1800 * 2500
