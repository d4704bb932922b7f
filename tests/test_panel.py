import csv
import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from venturescape.config import MeasureConfig, SliceSpec
from venturescape.corpus import InputError, Vocabulary
from venturescape.embedding import EmbeddingTensor
from venturescape.measures import FLAG_SLICE_CLAMPED, LexiconSet
from venturescape.panel import (CompanyRecord, CpiTable, EVENT_TYPES, Event,
                                FLAG_INCONSISTENT_TIMING, InvestorProfile,
                                PANEL_COLUMNS, PANEL_SCHEMA,
                                OUTCOME_CENSORED, OUTCOME_CLOSE,
                                OUTCOME_FUNDING, OUTCOME_IPO_HIGH,
                                OUTCOME_OTHER_ACQ,
                                acquisition_price_thresholds, build_episodes,
                                build_panel, classify_event_outcome,
                                interpolate_measure, read_companies,
                                time_to_market, vc_diversity, write_panel_csv)
from conftest import make_atoms

CPI = CpiTable({2014: 100.0, 2015: 102.0, 2016: 104.0}, base_year=2015)
ONE_SLICE = SliceSpec(2014, 2014)


def split(text):
    return text.lower().split()


def ev(type, d, price=None, investors=()):
    return Event(type=type, date=date.fromisoformat(d), price_usd=price,
                 investors=tuple(investors))


def inv(id, *keywords):
    return InvestorProfile(id=id, industry_keywords=frozenset(keywords))


def company(id="c", founded="2014-01-01", industry="tech", events=(),
            description="alpha beta", snapshots=()):
    return CompanyRecord(id=id, description=description,
                         founded=date.fromisoformat(founded),
                         industry=industry, events=list(events),
                         snapshots=list(snapshots))


class TestTimeToMarket:
    def test_one_year(self):
        months, flags = time_to_market([ev("seed", "2015-01-01"),
                                        ev("early_round_a", "2016-01-01")])
        assert months == pytest.approx(12.0, abs=0.05) and not flags

    def test_missing_round_censored(self):
        months, _ = time_to_market([ev("seed", "2015-01-01")])
        assert months is None

    def test_b_round_day_count(self):
        months, _ = time_to_market([ev("seed", "2015-01-01"),
                                    ev("early_round_b", "2015-07-15")])
        assert months == pytest.approx(195 / 30.44, abs=1e-9)

    def test_early_before_seed_flagged(self):
        months, flags = time_to_market([ev("early_round_a", "2014-01-01"),
                                        ev("seed", "2015-01-01")])
        assert months is None and FLAG_INCONSISTENT_TIMING in flags


class TestVcDiversity:
    def test_identical_sets(self):
        assert vc_diversity([inv("a", "x", "y"), inv("b", "x", "y")]) == 0.0

    def test_disjoint_sets(self):
        assert vc_diversity([inv("a", "x"), inv("b", "y")]) == 1.0

    def test_three_set_example(self):
        out = vc_diversity([inv("a", "a", "b"), inv("b", "b", "c"),
                            inv("c", "c", "d")])
        assert out == pytest.approx(7 / 9, abs=1e-12)

    def test_requires_two_keyworded(self):
        assert vc_diversity([inv("a", "x"), inv("b")]) is None
        assert vc_diversity([]) is None

    @given(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1),
                    min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_range_and_order_invariance(self, sets):
        invs = [inv(str(i), *s) for i, s in enumerate(sets)]
        val = vc_diversity(invs)
        assert 0.0 <= val <= 1.0
        assert vc_diversity(list(reversed(invs))) == pytest.approx(val)


class TestCpi:
    def test_deflation(self):
        assert CPI.deflate(104.0, 2016) == pytest.approx(102.0)

    def test_missing_year_error(self):
        with pytest.raises(KeyError, match="1999"):
            CPI.deflate(10.0, 1999)

    def test_base_year_required(self):
        with pytest.raises(ValueError):
            CpiTable({2014: 100.0}, base_year=2015)

    def test_positive_indices_required(self):
        with pytest.raises(ValueError):
            CpiTable({2015: -1.0}, base_year=2015)

    @pytest.mark.parametrize("text, where", [
        ("year,index\n2014,100\n2016,104\n", ": base year 2015 missing"),
        ("year,index\n2015,100\n2016,abc\n",
         ":3: ValueError: could not convert"),
        ("year,index\n2015,100\n2016\n",
         ":3: IndexError: list index out of range"),
    ], ids=["no_base_year", "bad_index", "short_row"])
    def test_load_errors_name_the_file(self, tmp_path, text, where):
        path = tmp_path / "cpi.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=re.escape(f"{path}{where}")):
            CpiTable.load(path, base_year=2015)


class TestOutcomes:
    def _companies(self, prices):
        return [company(id=f"c{i}", industry="tech",
                        events=[ev("acquisition", "2015-06-01", price=p)])
                for i, p in enumerate(prices)]

    def test_missing_cpi_year_names_company_and_year(self):
        comps = self._companies([50.0])
        comps[0].events[0] = ev("acquisition", "2019-06-01", price=50.0)
        with pytest.raises(InputError, match="c0.*2019"):
            acquisition_price_thresholds(comps, CPI, 0.3)

    def test_singleton_industry_high(self):
        comps = self._companies([50.0])
        cutoffs = acquisition_price_thresholds(comps, CPI, 0.3)
        out = classify_event_outcome(comps[0].events[0], "tech", CPI, cutoffs)
        assert out == OUTCOME_IPO_HIGH

    def test_missing_price_other_acq(self):
        comps = self._companies([100.0, 200.0])
        cutoffs = acquisition_price_thresholds(comps, CPI, 0.3)
        event = ev("acquisition", "2015-06-01")
        assert classify_event_outcome(event, "tech", CPI, cutoffs) == \
            OUTCOME_OTHER_ACQ

    def test_ipo_and_closure_and_funding(self):
        cutoffs = {}
        assert classify_event_outcome(ev("ipo", "2015-01-01"), "t", CPI,
                                      cutoffs) == OUTCOME_IPO_HIGH
        assert classify_event_outcome(ev("closure", "2015-01-01"), "t", CPI,
                                      cutoffs) == OUTCOME_CLOSE
        assert classify_event_outcome(ev("seed", "2015-01-01"), "t", CPI,
                                      cutoffs) == OUTCOME_FUNDING

    def test_industries_separate(self):
        comps = [company(id="a", industry="x",
                         events=[ev("acquisition", "2015-06-01", price=10.0)]),
                 company(id="b", industry="y",
                         events=[ev("acquisition", "2015-06-01", price=900.0)])]
        cutoffs = acquisition_price_thresholds(comps, CPI, 0.3)
        assert classify_event_outcome(comps[0].events[0], "x", CPI,
                                      cutoffs) == OUTCOME_IPO_HIGH

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2,
                    max_size=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_raising_price_never_demotes(self, prices, data):
        comps = self._companies(prices)
        i = data.draw(st.integers(min_value=0, max_value=len(prices) - 1))
        cutoffs = acquisition_price_thresholds(comps, CPI, 0.3)
        before = classify_event_outcome(comps[i].events[0], "tech", CPI,
                                        cutoffs)
        bump = data.draw(st.floats(min_value=0.0, max_value=1e6))
        raised = list(prices)
        raised[i] += bump
        comps2 = self._companies(raised)
        cutoffs2 = acquisition_price_thresholds(comps2, CPI, 0.3)
        after = classify_event_outcome(comps2[i].events[0], "tech", CPI,
                                       cutoffs2)
        if before == OUTCOME_IPO_HIGH:
            assert after == OUTCOME_IPO_HIGH


class TestInterpolation:
    def test_midpoint(self):
        pts = [(date(2014, 1, 1), 0.2), (date(2016, 1, 1), 0.4)]
        assert interpolate_measure(pts, date(2015, 1, 1)) == \
            pytest.approx(0.3, abs=1e-12)

    def test_out_of_range_nearest_endpoint(self):
        pts = [(date(2014, 1, 1), 0.2), (date(2016, 1, 1), 0.4)]
        assert interpolate_measure(pts, date(2013, 5, 1)) == 0.2
        assert interpolate_measure(pts, date(2017, 5, 1)) == 0.4

    def test_day_count_arithmetic(self):
        pts = [(date(2014, 1, 1), 0.2), (date(2016, 1, 1), 0.4)]
        out = interpolate_measure(pts, date(2015, 7, 1))
        assert out == pytest.approx(0.2 + 0.2 * 546 / 730, abs=1e-12)
        assert out == pytest.approx(0.349, abs=1e-3)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            interpolate_measure([], date(2015, 1, 1))

    @given(st.lists(st.tuples(st.integers(0, 3000),
                              st.floats(-5, 5)), min_size=1, max_size=6),
           st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_snapshot_range(self, raw, q):
        pts = [(date(2010, 1, 1) + __import__("datetime").timedelta(days=d), v)
               for d, v in raw]
        lo = min(v for _, v in pts)
        hi = max(v for _, v in pts)
        out = interpolate_measure(
            pts, date(2010, 1, 1) + __import__("datetime").timedelta(days=q))
        assert lo - 1e-9 <= out <= hi + 1e-9


class TestEpisodes:
    def test_seed_then_ipo(self):
        comp = company(events=[ev("seed", "2014-06-01"),
                               ev("ipo", "2015-06-01")])
        eps = build_episodes(comp)
        assert len(eps) == 2
        assert eps[0][2].type == "seed" and eps[1][2].type == "ipo"

    def test_event_after_closure_dropped(self):
        comp = company(events=[ev("closure", "2015-01-01"),
                               ev("later_round", "2016-01-01")])
        eps = build_episodes(comp)
        assert len(eps) == 1 and eps[0][2].type == "closure"

    def test_trailing_censored(self):
        comp = company(events=[ev("seed", "2014-06-01")])
        eps = build_episodes(comp)
        assert eps[-1][1] is None and eps[-1][2] is None

    def test_no_events_single_censored(self):
        eps = build_episodes(company())
        assert len(eps) == 1 and eps[0][2] is None

    def test_unordered_rejected(self):
        comp = company(events=[ev("ipo", "2015-01-01"),
                               ev("seed", "2014-01-01")])
        with pytest.raises(InputError):
            build_episodes(comp)

    def test_founded_after_first_event_rejected(self):
        comp = company(founded="2017-01-01",
                       events=[ev("seed", "2014-06-01"),
                               ev("ipo", "2016-03-01")])
        with pytest.raises(InputError, match="^company c founded 2017-01-01, "
                           "after its first event on 2014-06-01$"):
            build_episodes(comp)

    def test_founded_on_first_event_day(self):
        comp = company(founded="2014-06-01",
                       events=[ev("seed", "2014-06-01")])
        assert build_episodes(comp)[0][:2] == (date(2014, 6, 1),
                                               date(2014, 6, 1))


class TestBuildPanel:
    @pytest.fixture()
    def space(self, clustered_space):
        vocab, U, atoms = clustered_space
        from venturescape.measures import LexiconSet
        lex = LexiconSet(tech_terms=frozenset({"c00w0"}), general_freq={},
                         patent_freq={})
        # wrap the one trained slice to cover all fixture years
        U.years = [2014]
        return vocab, U, [atoms.assignment], lex

    def test_seed_then_ipo_outcomes(self, space):
        vocab, U, assignments, lex = space
        comp = company(description="c00w0 c00w1 c01w0 c01w1",
                       events=[ev("seed", "2014-06-01"),
                               ev("ipo", "2015-06-01")])
        rows, rejected = build_panel([comp], vocab, U, ONE_SLICE, assignments,
                                     lex, CPI, MeasureConfig(), split)
        assert not rejected
        assert [r.outcome for r in rows] == [OUTCOME_FUNDING, OUTCOME_IPO_HIGH]
        assert rows[0].episode_start == comp.founded

    def test_censored_and_rejected(self, space):
        vocab, U, assignments, lex = space
        ok = company(id="ok")
        bad = company(id="bad", events=[ev("ipo", "2014-06-01"),
                                        ev("seed", "2014-01-01")])
        rows, rejected = build_panel([ok, bad], vocab, U, ONE_SLICE,
                                     assignments, lex, CPI, MeasureConfig(),
                                     split)
        assert [r.outcome for r in rows] == [OUTCOME_CENSORED]
        assert rejected[0][0] == "bad"

    def test_founded_after_first_event_in_rejected(self, space):
        vocab, U, assignments, lex = space
        late = company(id="late", founded="2017-01-01",
                       events=[ev("seed", "2014-06-01"),
                               ev("ipo", "2016-03-01")])
        rows, rejected = build_panel([late], vocab, U, ONE_SLICE,
                                     assignments, lex, CPI, MeasureConfig(),
                                     split)
        assert rows == []
        assert rejected == [("late", "company late founded 2017-01-01, "
                                     "after its first event on 2014-06-01")]

    def test_same_day_dual_outcome_more_successful(self, space):
        vocab, U, assignments, lex = space
        comp = company(events=[ev("closure", "2015-06-01"),
                               ev("later_round", "2015-06-01")])
        rows, _ = build_panel([comp], vocab, U, ONE_SLICE, assignments,
                              lex, CPI, MeasureConfig(), split)
        outcomes = {r.outcome for r in rows}
        assert OUTCOME_FUNDING in outcomes and OUTCOME_CLOSE not in outcomes

    def test_snapshot_interpolation_varies_measures(self, space):
        vocab, U, assignments, lex = space
        snaps = [(date(2014, 1, 1), "c00w0 c00w1 c01w0 c01w1"),
                 (date(2016, 1, 1), "c02w0 c02w1 c02w2 c02w3")]
        comp = company(founded="2015-01-01",
                       snapshots=snaps,
                       events=[ev("seed", "2015-06-01")])
        rows, _ = build_panel([comp], vocab, U, ONE_SLICE, assignments,
                              lex, CPI, MeasureConfig(), split)
        first = rows[0]
        # midpoint between a two-module and a one-module description
        assert 0.0 < first.global_distance
        assert first.local_distance > 0

    def test_csv_round_trip(self, tmp_path, space):
        vocab, U, assignments, lex = space
        comp = company(events=[ev("seed", "2014-06-01",
                                  investors=[inv("a", "x"), inv("b", "y")])])
        rows, _ = build_panel([comp], vocab, U, ONE_SLICE, assignments,
                              lex, CPI, MeasureConfig(), split)
        out = tmp_path / "panel.csv"
        write_panel_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("company_id,")
        assert len(lines) == len(rows) + 1

    def test_fixture_company_reader(self, fixtures_dir):
        comps = read_companies(fixtures_dir / "companies.jsonl")
        assert len(comps) == 8
        assert comps[0].events[0].investors[0].industry_keywords

    @pytest.mark.parametrize("bad", ['{"id": "x", "description": ',
                                     '{"description": "no id"}',
                                     '{"id": "x", "description": "d", '
                                     '"founded": "2014-13-01"}'],
                             ids=["bad_json", "missing_field", "bad_date"])
    def test_malformed_company_line_names_file_and_line(self, tmp_path,
                                                        fixtures_dir, bad):
        path = tmp_path / "companies.jsonl"
        lines = (fixtures_dir / "companies.jsonl").read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", bad] + lines[2:]) + "\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:4: ")):
            read_companies(path)

    def test_lookback_in_years_with_two_year_slices(self):
        """Five years back from the 2007 slice reach the 2003 and 2005
        slices, not the three slices before it."""
        counts = np.array([[7.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
        vocab = Vocabulary(id_to_token=["u", "v"], slice_counts=counts,
                           slice_totals=counts.sum(axis=1))
        U = EmbeddingTensor(slices=np.ones((4, 2, 2)),
                            years=[2001, 2003, 2005, 2007])
        assignments = [np.zeros(2, dtype=np.int64)] * 4
        lex = LexiconSet(tech_terms=frozenset({"u"}), general_freq={},
                         patent_freq={})
        comp = company(founded="2007-03-01", description="u v")
        rows, _ = build_panel([comp], vocab, U, SliceSpec(2001, 2008, 2),
                              assignments, lex, CPI,
                              MeasureConfig(lookback_years=5), split)
        assert rows[0].element_familiarity == pytest.approx(math.log1p(3.0))

    def test_slice_clamped_only_outside_year_range(self):
        """Two-year slices over 2000-2005 start in 2000, 2002 and 2004: a
        2005 start lies in the last slice, a 2006 or 1999 start is clamped
        into the nearest one and flagged."""
        counts = np.ones((3, 2))
        vocab = Vocabulary(id_to_token=["u", "v"], slice_counts=counts,
                           slice_totals=counts.sum(axis=1))
        U = EmbeddingTensor(slices=np.ones((3, 2, 2)),
                            years=[2000, 2002, 2004])
        assignments = [np.zeros(2, dtype=np.int64)] * 3
        lex = LexiconSet(tech_terms=frozenset(), general_freq={},
                         patent_freq={})
        comps = [company(id=str(year), founded=f"{year}-03-01",
                         description="u v")
                 for year in (1999, 2000, 2004, 2005, 2006)]
        rows, _ = build_panel(comps, vocab, U, SliceSpec(2000, 2005, 2),
                              assignments, lex, CPI, MeasureConfig(), split)
        clamped = {r.company_id: FLAG_SLICE_CLAMPED in r.degenerate_flags
                   for r in rows}
        assert clamped == {"1999": True, "2000": False, "2004": False,
                           "2005": False, "2006": True}
        assert [r.slice_year for r in rows] == [2000, 2000, 2004, 2004, 2004]


# ---- panel.csv cells against PANEL_SCHEMA, for random company books -------

BOOK_WORDS = [f"w{i:02d}" for i in range(24)]


@pytest.fixture(scope="module")
def book_space():
    """Three random slices over 24 words, four atoms per slice."""
    rng = np.random.default_rng(7)
    years, k = [2014, 2015, 2016], 6
    counts = rng.integers(0, 5, size=(len(years), len(BOOK_WORDS)))
    counts = counts.astype(np.float64)
    vocab = Vocabulary(id_to_token=list(BOOK_WORDS), slice_counts=counts,
                       slice_totals=counts.sum(axis=1))
    U = EmbeddingTensor(slices=rng.normal(size=(len(years), len(BOOK_WORDS),
                                                k)), years=years)
    assignments = [make_atoms(rng.normal(size=(4, k)), U.slices[t]).assignment
                   for t in range(len(years))]
    lex = LexiconSet(tech_terms=frozenset(BOOK_WORDS[::4]),
                     general_freq={w: 3.0 for w in BOOK_WORDS[1::3]},
                     patent_freq={w: 40.0 for w in BOOK_WORDS[2::3]})
    return vocab, U, SliceSpec(2014, 2016), assignments, lex


def cell_satisfies(value: str, spec: dict) -> bool:
    """One panel.csv cell against one PANEL_SCHEMA property: its enum, or
    its type, null, date format and bounds."""
    if "enum" in spec:
        return value in {str(e) for e in spec["enum"]}
    types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
    if value == "":
        return "null" in types or ("string" in types and "format" not in spec)
    try:
        if "integer" in types:
            v = int(value)
        elif "number" in types:
            v = float(value)
            if not math.isfinite(v):
                return False
        else:
            if spec.get("format") == "date":
                date.fromisoformat(value)
            return "string" in types
    except ValueError:
        return False
    return spec.get("minimum", v) <= v <= spec.get("maximum", v)


_texts = st.lists(st.sampled_from(BOOK_WORDS + ["oov", "zz"]),
                  max_size=12).map(" ".join)
_dates = st.dates(min_value=date(2011, 1, 1), max_value=date(2019, 12, 31))
_investors = st.lists(st.builds(
    InvestorProfile, id=st.text("abc", min_size=1, max_size=2),
    industry_keywords=st.frozensets(st.sampled_from("xyzuv"), max_size=3)),
    max_size=4).map(tuple)
_events = st.lists(st.builds(
    Event, type=st.sampled_from(EVENT_TYPES), date=_dates,
    price_usd=st.one_of(st.none(), st.floats(1.0, 1e4)),
    investors=_investors), max_size=4)


@st.composite
def company_books(draw):
    book = []
    for i in range(draw(st.integers(1, 4))):
        events = draw(_events)
        if draw(st.booleans()):  # unsorted books are rejected, not measured
            events.sort(key=lambda e: e.date)
        # founded by the earliest event: a later founding is rejected
        first = min((e.date for e in events), default=date(2019, 12, 31))
        book.append(CompanyRecord(
            id=f"c{i}", description=draw(_texts),
            founded=draw(st.dates(min_value=date(2011, 1, 1),
                                  max_value=first)),
            industry=draw(st.sampled_from(["tech", "bio"])), events=events,
            snapshots=draw(st.lists(st.tuples(_dates, _texts), max_size=2))))
    return book


@settings(max_examples=60, deadline=None)
@given(book=company_books())
def test_panel_cells_satisfy_schema(tmp_path_factory, book_space, book):
    vocab, U, slices, assignments, lex = book_space
    cpi = CpiTable({y: 90.0 + y - 2005 for y in range(2005, 2021)},
                   base_year=2015)
    rows, _ = build_panel(book, vocab, U, slices, assignments, lex, cpi,
                          MeasureConfig(), split)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    write_panel_csv(rows, path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == PANEL_COLUMNS
        cells = list(reader)
    props = PANEL_SCHEMA["items"]["properties"]
    assert len(cells) == len(rows)
    for cell_row in cells:
        bad = {c: v for c, v in cell_row.items()
               if not cell_satisfies(v, props[c])}
        assert not bad, bad


def test_familiarity_term_computed_once_per_token_and_slice(book_space,
                                                            monkeypatch):
    """build_panel computes each technology token's familiarity term once
    per slice, however many descriptions hold it, and every row equals the
    one that computing the term at each use gives."""
    from venturescape import measures

    vocab, U, slices, assignments, lex = book_space
    book = [company(id=f"c{i}", founded=f"{year}-0{1 + i % 3}-01",
                    description=" ".join(BOOK_WORDS[i:i + 16]),
                    snapshots=[(date(year, 6, 1),
                                " ".join(BOOK_WORDS[4 + i:20]))],
                    events=[ev("seed", f"{year}-09-01"),
                            ev("early_round_a", "2016-03-01")])
            for i, year in enumerate([2014, 2014, 2015, 2015, 2016])]
    calls, count = [], Vocabulary.count_in_window

    def counting(self, token, window):
        calls.append((token, tuple(window)))
        return count(self, token, window)

    monkeypatch.setattr(Vocabulary, "count_in_window", counting)
    rows, _ = build_panel(book, vocab, U, slices, assignments, lex, CPI,
                          MeasureConfig(), split)
    once = list(calls)
    calls.clear()
    familiarity = measures.element_familiarity
    monkeypatch.setattr(measures, "element_familiarity",
                        lambda *args: familiarity(*args[:6]))
    assert build_panel(book, vocab, U, slices, assignments, lex, CPI,
                       MeasureConfig(), split) == (rows, _)
    assert len(once) == len(set(once)) == len(set(calls)) < len(calls)
