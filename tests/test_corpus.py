import math
import random
import unicodedata
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from venturescape.config import SOURCES, SliceSpec, TokenRules
from venturescape import corpus, storage
from venturescape.corpus import (LOG_BLOCK, DocumentRecord,
                                 EmptyVocabularyError, TokenizedCorpus,
                                 Vocabulary, build_ppmi, build_vocab,
                                 count_cooccurrence, read_documents,
                                 symmetric_csr, tokenize, tokenize_corpus)
from oracles import (WEIGHTS, cooccurrence_reference, ingest, pair,
                     pair_counts, to_scipy, upper_matrix, vocab_reference)

RULES = TokenRules()
ONE_SLICE = SliceSpec(2000, 2000)


def doc(text, year=2000, source="other", id="d"):
    return DocumentRecord(id=id, year=year, source=source, text=text)


class TestTokenize:
    def test_punct_and_stopwords(self):
        rules = TokenRules(stopwords=frozenset({"the"}))
        assert tokenize("The Telescope, 1608!", rules) == \
            ["telescope", "1608"]

    def test_number_stripping(self):
        rules = TokenRules(stopwords=frozenset({"the"}), strip_numbers=True)
        assert tokenize("The Telescope, 1608!", rules) == ["telescope"]

    def test_empty_input(self):
        assert tokenize("", RULES) == []

    def test_bigram_joining(self):
        rules = TokenRules(bigrams=(("real", "estate"),))
        assert tokenize("big real estate deal", rules) == \
            ["big", "real_estate", "deal"]

    def test_min_token_len(self):
        rules = TokenRules(min_token_len=3)
        assert tokenize("a an the cat", rules) == ["the", "cat"]

    def test_golden_fixture_document(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        assert tokenize(docs[3].text, RULES) == [
            "checkout", "delivery", "shop", "retail", "basket", "payment",
            "discount", "retail", "checkout", "checkout"]

    @given(words=st.lists(st.one_of(
               st.sampled_from(["a", "b", "A", "a_b", "a,", "b!", "(a)", "-"]),
               st.text(max_size=4)), max_size=12),
           stopwords=st.frozensets(st.sampled_from(["a", "b", "a_b", "ab"])),
           lowercase=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_strip_punct_leaves_no_punctuation_or_stopword(
            self, words, stopwords, lowercase):
        rules = TokenRules(lowercase=lowercase, stopwords=stopwords,
                           bigrams=(("a", "b"),))
        tokens = tokenize(" ".join(words), rules)
        # "_" is a word character: bigrams are joined with it
        assert not [ch for tok in tokens for ch in tok
                    if ch != "_" and unicodedata.category(ch)[0] == "P"]
        assert not stopwords & set(tokens)


class TestBuildVocab:
    def test_min_count_threshold(self):
        docs = [doc("alpha alpha alpha alpha alpha beta")]
        vocab, _ = ingest(docs, RULES, ONE_SLICE, min_count=2)
        assert vocab.id_to_token == ["alpha"]

    def test_min_count_one_keeps_all(self):
        docs = [doc("alpha beta gamma")]
        vocab, _ = ingest(docs, RULES, ONE_SLICE, min_count=1)
        assert set(vocab.id_to_token) == {"alpha", "beta", "gamma"}

    def test_ids_by_frequency_then_lexicographic(self):
        docs = [doc("b b b a a c c")]
        vocab, _ = ingest(docs, RULES, ONE_SLICE, min_count=1)
        assert vocab.id_to_token == ["b", "a", "c"]

    def test_empty_vocabulary_error(self):
        with pytest.raises(EmptyVocabularyError):
            ingest([doc("a b c")], RULES, ONE_SLICE, min_count=5)

    def test_per_slice_retention(self):
        # reaches min_count in one slice only: still retained
        docs = [doc("x x x y", year=2000), doc("y", year=2001)]
        vocab, _ = ingest(docs, RULES, SliceSpec(2000, 2001), min_count=3)
        assert vocab.id_to_token == ["x"]

    def test_golden_fixture_vocab(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        vocab, _ = ingest(docs, RULES, SliceSpec(2014, 2016), min_count=3)
        assert len(vocab) == 21
        assert vocab.id_to_token[0] == "solar"


@st.composite
def year_corpora(draw):
    """Documents over the years 1999-2003, some of them empty or all
    punctuation, from a five-word alphabet that makes ties common."""
    text = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "!!"]),
                    max_size=8).map(" ".join)
    return draw(st.lists(st.builds(lambda text, year: doc(text, year=year),
                                   text, st.integers(1999, 2003)),
                         max_size=15))


# a and c tie in 2000; b reaches 2 only summed over two slices and d only
# out of range; 2002 holds one empty document
@example(docs=[doc("c c a a b", 2000), doc("b d", 2001), doc("", 2002),
               doc("d d d d", 1999)], min_count=2)
@given(docs=year_corpora(), min_count=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_build_vocab_bitwise_equal_to_counter_reference(docs, min_count):
    slices = SliceSpec(2000, 2002)
    corpus = tokenize_corpus(docs, RULES, slices)
    try:
        ref = vocab_reference(docs, RULES, slices, min_count)
    except EmptyVocabularyError:
        with pytest.raises(EmptyVocabularyError):
            build_vocab(corpus, min_count)
        return
    got = build_vocab(corpus, min_count)
    assert got.id_to_token == ref.id_to_token
    assert got.token_to_id == ref.token_to_id
    for field in ("slice_counts", "global_counts", "slice_totals"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestCooccurrence:
    def test_smallest_case(self):
        vocab, (cc,) = ingest([doc("a b")], RULES, ONE_SLICE, min_count=1,
                              window=1)
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert pair(cc, a, b) == 1.0
        assert cc.marginals[a] == 1.0 and cc.marginals[b] == 1.0
        assert cc.total_mass == 2.0

    def test_source_weight_linearity(self):
        d = doc("a b", source="patent")
        vocab, (cc,) = ingest([d], RULES, ONE_SLICE, min_count=1, window=1,
                              source_weights={"patent": 2.0})
        assert pair(cc, vocab.token_to_id["a"], vocab.token_to_id["b"]) == 2.0
        assert cc.total_mass == 4.0

    def test_window_two_pairs(self):
        d = doc("a b c")
        vocab, (cc,) = ingest([d], RULES, ONE_SLICE, min_count=1, window=2)
        ids = {w: vocab.token_to_id[w] for w in "abc"}
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert pair(cc, ids[x], ids[y]) == 1.0

    def test_self_pairs_excluded(self):
        d = doc("a a a")
        vocab, (cc,) = ingest([d], RULES, ONE_SLICE, min_count=1, window=2)
        assert pair_counts(cc) == {}

    def test_out_of_range_doc_skipped(self):
        docs = [doc("a b"), doc("a b", year=1990)]
        vocab, (cc,) = ingest(docs, RULES, ONE_SLICE, min_count=1, window=1)
        assert cc.total_mass == 2.0

    def test_slice_without_documents(self, tmp_path):
        slices = SliceSpec(2000, 2002)
        corpus = tokenize_corpus([doc("a b a b", 2000), doc("b a", 2002)],
                                 RULES, slices)
        vocab = build_vocab(corpus, 1)
        cc = count_cooccurrence(corpus, vocab, 1, 5, WEIGHTS)
        assert cc.t == 1 and cc.n == len(vocab) == 2
        assert cc.row.size == cc.col.size == cc.data.size == 0
        assert np.array_equal(cc.marginals, np.zeros(2))
        assert cc.total_mass == 0
        storage.write_ppmi(build_ppmi(cc, 1.0), tmp_path / "ppmi_001.bin")
        back = storage.read_ppmi(tmp_path / "ppmi_001.bin")
        assert (back.t, back.n, back.matrix.nnz) == (1, 2, 0)
        assert np.array_equal(back.matrix.indptr, np.zeros(3))

    def test_naive_double_loop_oracle(self):
        rng = random.Random(0)
        alphabet = list("abcdefgh")
        docs = [doc(" ".join(rng.choices(alphabet, k=rng.randint(2, 15))),
                    id=str(i)) for i in range(30)]
        window = 3
        vocab, (cc,) = ingest(docs, RULES, ONE_SLICE, 1, window)

        expected = {}
        for d in docs:
            ids = [vocab.token_to_id[t] for t in tokenize(d.text, RULES)]
            for p in range(len(ids)):
                for q in range(p + 1, min(p + window, len(ids) - 1) + 1):
                    i, j = ids[p], ids[q]
                    if i == j:
                        continue
                    key = (min(i, j), max(i, j))
                    expected[key] = expected.get(key, 0.0) + 1.0
        assert pair_counts(cc) == expected


class TestPpmi:
    def test_hand_formula(self):
        # one doc "a b a b": window 1 gives #(a,b)=3 ... build directly instead
        d = doc("a b")
        vocab, (cc,) = ingest([d] * 2, RULES, ONE_SLICE, min_count=1,
                              window=1)
        # #(a,b)=2, marginals 2 and 2, D=4 -> PMI = ln(2*4/(2*2)) = ln 2
        ppmi = build_ppmi(cc, 1.0)
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert to_scipy(ppmi.matrix)[a, b] == pytest.approx(math.log(2),
                                                            abs=1e-12)

    def test_counts_passed_alone_are_freed_before_the_csr(self,
                                                         monkeypatch):
        # the ingest stage passes each slice's counts without keeping them,
        # so its slice peak is no longer counts plus CSR arrays
        refs, freed = [], []

        def counts():
            cc = ingest([doc("a b c a b")], RULES, ONE_SLICE, 1, 2)[1][0]
            refs.append(weakref.ref(cc))
            return cc

        def csr(*args):
            freed.append(refs[0]() is None)
            return symmetric_csr(*args)

        monkeypatch.setattr(corpus, "symmetric_csr", csr)
        # outside an assert, whose rewriting would keep the counts alive
        ppmi = build_ppmi(counts(), 1.0)
        assert ppmi.matrix.nnz and freed == [True]

    def test_structural_zero(self):
        docs = [doc("a b"), doc("c d")]
        vocab, (cc,) = ingest(docs, RULES, ONE_SLICE, min_count=1, window=1)
        ppmi = build_ppmi(cc, 1.0)
        a, c = vocab.token_to_id["a"], vocab.token_to_id["c"]
        assert to_scipy(ppmi.matrix)[a, c] == 0.0

    def test_shift_clipping(self):
        d = doc("a b")
        vocab, (cc,) = ingest([d] * 2, RULES, ONE_SLICE, min_count=1,
                              window=1)
        ppmi = build_ppmi(cc, shift=math.e)  # PMI=ln2 < 1 -> clipped
        assert ppmi.matrix.nnz == 0

    def test_symmetry_and_nonnegativity(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        _, ccs = ingest(docs, RULES, SliceSpec(2014, 2016), 3, 5)
        for cc in ccs:
            Y = to_scipy(build_ppmi(cc, 1.0).matrix)
            assert (Y != Y.T).nnz == 0
            assert Y.min() >= 0.0 if Y.nnz else True

    @given(scale=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_weight_scale_invariance(self, scale):
        docs = [doc("a b c a", source="news"), doc("b c d", source="patent")]
        base = {"news": 1.0, "patent": 2.0, "other": 1.0}
        scaled = {k: v * scale for k, v in base.items()}
        y1 = to_scipy(build_ppmi(ingest(
            docs, RULES, ONE_SLICE, 1, 2, base)[1][0], 1.0).matrix).toarray()
        y2 = to_scipy(build_ppmi(ingest(
            docs, RULES, ONE_SLICE, 1, 2, scaled)[1][0], 1.0).matrix).toarray()
        assert np.allclose(y1, y2, atol=1e-12)

    def test_determinism(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        _, a = ingest(docs, RULES, SliceSpec(2014, 2016), 3, 5)
        _, b = ingest(docs, RULES, SliceSpec(2014, 2016), 3, 5)
        for ca, cb in zip(a, b):
            assert pair_counts(ca) == pair_counts(cb)


def naive_counts(docs, vocab, slices, window, weights):
    """Reference: per-document double loop into {(t, i, j): weight}."""
    expected = {}
    for d in docs:
        t = slices.index(d.year)
        if t is None:
            continue
        ids = [vocab.token_to_id[tok] for tok in tokenize(d.text, RULES)
               if tok in vocab.token_to_id]
        for p in range(len(ids)):
            for q in range(p + 1, min(p + window, len(ids) - 1) + 1):
                i, j = ids[p], ids[q]
                if i != j:
                    key = (t, min(i, j), max(i, j))
                    expected[key] = expected.get(key, 0.0) + weights[d.source]
    return expected


def random_corpus(seed, slices, n_docs=40):
    rng = random.Random(seed)
    alphabet = list("abcdefghij") + ["rare1", "rare2"]
    years = range(slices.year_min - 1, slices.year_max + 2)
    return [doc(" ".join(rng.choices(alphabet, k=rng.randint(0, 18))),
                year=rng.choice(years), id=str(i),
                source=rng.choice(("news", "patent", "other")))
            for i in range(n_docs)]


class TestVectorizedKernels:
    SLICES = SliceSpec(2000, 2002)

    def counts_as_dict(self, ccs):
        return {(cc.t, i, j): v for cc in ccs
                for (i, j), v in pair_counts(cc).items()}

    @pytest.mark.parametrize("window", [1, 2, 5, 30])
    def test_counts_match_naive_loop_integer_weights(self, window):
        docs = random_corpus(window, self.SLICES)
        weights = {"news": 1.0, "patent": 2.0, "other": 3.0}
        vocab, ccs = ingest(docs, RULES, self.SLICES, 3, window, weights)
        expected = naive_counts(docs, vocab, self.SLICES, window, weights)
        assert self.counts_as_dict(ccs) == expected
        for cc in ccs:
            marg = np.zeros(len(vocab))
            for (t, i, j), v in expected.items():
                if t == cc.t:
                    marg[i] += v
                    marg[j] += v
            assert np.array_equal(cc.marginals, marg)
            assert cc.total_mass == marg.sum()

    def test_counts_match_naive_loop_fractional_weights(self):
        docs = random_corpus(7, self.SLICES, n_docs=80)
        weights = {"news": 0.3, "patent": 0.7, "other": 1.1}
        vocab, ccs = ingest(docs, RULES, self.SLICES, 3, 4, weights)
        got = self.counts_as_dict(ccs)
        expected = naive_counts(docs, vocab, self.SLICES, 4, weights)
        assert got.keys() == expected.keys()
        for key, v in expected.items():
            assert got[key] == pytest.approx(v, rel=1e-12, abs=1e-12)

    @staticmethod
    def assert_ppmi_matches_scalar_reference(cc, shift):
        expected = {}
        for (i, j), v in pair_counts(cc).items():
            pmi = (math.log(v * cc.total_mass
                            / (cc.marginals[i] * cc.marginals[j]))
                   - math.log(shift))
            if pmi > 0:
                expected[(i, j)] = expected[(j, i)] = pmi
        coo = to_scipy(build_ppmi(cc, shift=shift).matrix).tocoo()
        got = dict(zip(zip(coo.row.tolist(), coo.col.tolist()),
                       coo.data.tolist()))
        assert got == expected

    @pytest.mark.parametrize("shift", [1.0, 1.5, 5.0])
    def test_ppmi_bitwise_equal_to_scalar_reference(self, shift,
                                                    fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        slices = SliceSpec(2014, 2016)
        weights = {"news": 1.0, "patent": 0.7, "other": 1.3}
        for cc in ingest(docs, RULES, slices, 3, 5, weights)[1]:
            self.assert_ppmi_matches_scalar_reference(cc, shift)

    def test_ppmi_bitwise_equal_to_scalar_reference_many_pairs(self):
        # tens of thousands of distinct ratios: enough that a vectorized
        # log differing from libm in the last bit would show
        rng = random.Random(1)
        words = [f"w{i}" for i in range(400)]
        zipf = [1.0 / (r + 1) for r in range(400)]
        docs = [doc(" ".join(rng.choices(words, weights=zipf, k=30)),
                    id=str(i)) for i in range(3000)]
        vocab, (cc,) = ingest(docs, RULES, ONE_SLICE, 1, 5)
        assert cc.data.size > 20_000
        # the logs span two block boundaries and a partial last block
        assert cc.data.size > 2 * LOG_BLOCK and cc.data.size % LOG_BLOCK
        self.assert_ppmi_matches_scalar_reference(cc, 1.0)

    def test_ingest_memory_per_token_and_pair(self):
        """Traced peaks of one slice: count_cooccurrence per token of the
        slice and build_ppmi per counted pair, neither holding a
        whole-slice temporary that the result does not need."""
        import tracemalloc

        rng = random.Random(2)
        words = [f"w{i}" for i in range(3000)]
        zipf = [1.0 / (r + 1) for r in range(3000)]
        docs = [doc(" ".join(rng.choices(words, weights=zipf, k=40)),
                    id=str(i), source=("news", "patent")[i % 2])
                for i in range(3000)]
        corpus = tokenize_corpus(docs, RULES, ONE_SLICE)
        vocab = build_vocab(corpus, 1)
        weights = {**WEIGHTS, "patent": 2.0}
        tracemalloc.start()
        try:
            cc = count_cooccurrence(corpus, vocab, 0, 5, weights)
            count_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            ppmi = build_ppmi(cc, 1.0)
            ppmi_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert cc.data.size >= 100_000 and ppmi.matrix.nnz
        # measured 97.8 B/token and 43.2 B/pair
        assert count_peak <= 106 * corpus.ids[0].size
        assert ppmi_peak <= 47 * cc.data.size

    @given(seed=st.integers(0, 10_000), window=st.integers(1, 6),
           patent=st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=30, deadline=None)
    def test_counts_symmetric_marginals_sum_to_mass(self, seed, window,
                                                    patent):
        docs = random_corpus(seed, self.SLICES, n_docs=15)
        weights = {"news": 1.0, "patent": patent, "other": 1.0}
        try:
            vocab, ccs = ingest(docs, RULES, self.SLICES, 2, window, weights)
        except EmptyVocabularyError:
            return
        for cc in ccs:
            assert np.all(cc.row < cc.col)
            upper = upper_matrix(cc)
            full = (upper + upper.T).toarray()
            assert np.array_equal(full, full.T)
            assert np.allclose(cc.marginals, full.sum(axis=1), atol=1e-12)
            assert cc.marginals.sum() == pytest.approx(cc.total_mass,
                                                       rel=1e-12, abs=0)
            Y = to_scipy(build_ppmi(cc, 1.0).matrix)
            assert (Y != Y.T).nnz == 0
            assert Y.nnz == 0 or Y.data.min() > 0.0


@st.composite
def pair_lists(draw):
    """n, and distinct pairs i < j below n in any order with their values;
    the list may be empty, and rows without a pair are common."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends).filter(lambda p: p[0] < p[1]),
                         max_size=n * (n - 1) // 2))
    pairs = draw(st.permutations(sorted(pairs)))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(pairs), max_size=len(pairs)))
    return n, pairs, values


@given(case=pair_lists(), index_type=st.sampled_from([np.int32, np.int64]))
@example(case=(5, [], []), index_type=np.int32)
@example(case=(6, [(1, 4), (0, 2)], [0.5, -0.0]), index_type=np.int64)
@settings(max_examples=100, deadline=None)
def test_symmetric_csr_equals_scipy_canonical_csr(case, index_type):
    n, pairs, values = case
    i = np.array([p[0] for p in pairs], dtype=index_type)
    j = np.array([p[1] for p in pairs], dtype=index_type)
    v = np.array(values, dtype=np.float64)
    got = symmetric_csr(n, i, j, v)
    ref = sp.csr_matrix((np.concatenate((v, v)),
                         (np.concatenate((i, j)), np.concatenate((j, i)))),
                        shape=(n, n))
    ref.sum_duplicates()
    assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int32
    assert got.data.dtype == np.float64
    assert got.indptr.tobytes() == ref.indptr.astype(np.int64).tobytes()
    assert got.indices.tobytes() == ref.indices.astype(np.int32).tobytes()
    assert got.data.tobytes() == ref.data.tobytes()
    assert got.nnz == ref.nnz == 2 * len(pairs)


# WIDE ** 2 > 2 ** 32: pair keys past 32 bits, which the reference keys
# in int64 (from n * n >= 2 ** 31)
WIDE = 70_000


def numbered_vocab(n: int) -> Vocabulary:
    """n words w0..w(n-1) with ids in reverse: low corpus ids are high
    vocabulary ids, so at n = WIDE their pair keys pass 2 ** 32."""
    return Vocabulary([f"w{k}" for k in reversed(range(n))],
                      np.zeros((1, n)), np.zeros(1))


@st.composite
def cooccurrence_cases(draw):
    """A one-slice TokenizedCorpus over a vocabulary of n words and two
    corpus tokens outside it, with a window and fractional source weights.
    Some documents repeat a short pattern, so a pair can recur past 8 and
    128 times, where numpy's pairwise summation would change blocks."""
    n = draw(st.sampled_from([2, 7, 40, WIDE]))
    tokens = st.sampled_from(draw(st.lists(st.integers(0, n + 1),
                                           min_size=1, max_size=6,
                                           unique=True)))
    docs = draw(st.lists(st.one_of(
        st.lists(tokens, max_size=30),
        st.builds(lambda pattern, times: pattern * times,
                  st.lists(tokens, min_size=1, max_size=4),
                  st.integers(1, 90))), min_size=1, max_size=6))
    corpus = TokenizedCorpus(
        {f"w{k}": k for k in range(n + 2)},
        [np.array([k for d in docs for k in d], dtype=np.int32)],
        [np.array([len(d) for d in docs], dtype=np.int64)],
        [np.array(draw(st.lists(st.integers(0, 2), min_size=len(docs),
                                max_size=len(docs))), dtype=np.int8)])
    weights = dict(zip(SOURCES, draw(st.lists(
        st.sampled_from([0.1, 0.7, 1.3, 1 / 3, 2.5]), min_size=3,
        max_size=3))))
    return corpus, numbered_vocab(n), draw(st.integers(1, 6)), weights


def alternating(n, times):
    """Documents w0 w1 w0 w1 ... of each source in turn: the pair (w0, w1)
    recurs over 129 times with three fractional weights interleaved."""
    return (TokenizedCorpus({f"w{k}": k for k in range(n)},
                            [np.tile(np.array([0, 1], dtype=np.int32),
                                     3 * times)],
                            [np.full(3, 2 * times, dtype=np.int64)],
                            [np.arange(3, dtype=np.int8)]),
            numbered_vocab(n), 5, {"news": 0.1, "patent": 0.7, "other": 1.3})


@given(case=cooccurrence_cases())
@example(case=alternating(2, 30))
@example(case=alternating(WIDE, 30))
@settings(max_examples=150, deadline=None)
def test_count_cooccurrence_bitwise_equal_to_unique_reference(case):
    corpus, vocab, window, weights = case
    got = count_cooccurrence(corpus, vocab, 0, window, weights)
    ref = cooccurrence_reference(corpus, vocab, 0, window, weights)
    assert np.array_equal(got.row, ref.row)
    assert np.array_equal(got.col, ref.col)
    assert got.data.tobytes() == ref.data.tobytes()
    assert got.marginals.tobytes() == ref.marginals.tobytes()
    assert got.total_mass == ref.total_mass


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.lists(st.integers(0, 60) | st.floats(0, 1e3),
                                min_size=1, max_size=3),
                       min_size=1, max_size=40),
       scale=st.sampled_from([1.0, 0.37, 1e-3]),
       percentile=st.one_of(st.sampled_from([0.0, 0.01, 0.5, 1.0]),
                            st.floats(0.0, 1.0)))
@example(counts=[[5]], scale=1.0, percentile=0.3)
def test_rare_threshold_is_np_quantile(counts, scale, percentile):
    """rare_threshold equals np.quantile's default interpolation bit for
    bit, on per-slice counts summed over slices."""
    T = max(len(c) for c in counts)
    C = np.array([c + [0] * (T - len(c)) for c in counts], float).T * scale
    vocab = Vocabulary([f"w{i}" for i in range(len(counts))], C,
                       C.sum(axis=1))
    want = float(np.quantile(vocab.global_counts, percentile))
    assert vocab.rare_threshold(percentile) == want
