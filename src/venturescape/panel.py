"""Event-history panel: company records, competing outcomes, mediators, and
multi-episode measure rows."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date
from itertools import chain, combinations

import numpy as np

from . import measures as m
from .config import MeasureConfig, SliceSpec, declared
from .corpus import InputError, read_csv, read_records

DAYS_PER_MONTH = 30.44

FUNDING_TYPES = ("seed", "early_round_a", "early_round_b", "later_round")
EVENT_TYPES = FUNDING_TYPES + ("ipo", "acquisition", "closure")
TERMINAL_TYPES = ("ipo", "closure")

OUTCOME_IPO_HIGH = "ipo_high_acq"
OUTCOME_FUNDING = "new_funding"
OUTCOME_OTHER_ACQ = "other_acq"
OUTCOME_CLOSE = "close"
OUTCOME_CENSORED = "censored"

# higher is more successful; used when two events share a date
_SUCCESS_RANK = {OUTCOME_IPO_HIGH: 4, OUTCOME_FUNDING: 3, OUTCOME_OTHER_ACQ: 2,
                 OUTCOME_CLOSE: 1, OUTCOME_CENSORED: 0}

FLAG_INCONSISTENT_TIMING = "inconsistent_timing"


@dataclass(frozen=True)
class InvestorProfile:
    id: str
    industry_keywords: frozenset = declared(frozenset(), "keywords")


@dataclass(frozen=True)
class Event:
    type: str = declared(choices=EVENT_TYPES)
    date: date
    # type(), as a JSON true is an int to isinstance but not a price
    price_usd: object = declared(
        None, rule=("a finite non-negative number",
                    lambda v: type(v) in (int, float) and 0 <= v < math.inf))
    investors: tuple = declared((), of=InvestorProfile)


@dataclass(frozen=True)
class Snapshot:
    """A dated description of a company; it unpacks as (date, text)."""

    date: date
    text: str

    def __iter__(self):
        return iter((self.date, self.text))


@dataclass
class CompanyRecord:
    id: str
    description: str
    founded: date
    industry: str = ""
    events: list = declared([], of=Event)
    snapshots: list = declared([], of=Snapshot)


@dataclass
class CpiTable:
    index_by_year: dict
    base_year: int

    def __post_init__(self):
        if self.base_year not in self.index_by_year:
            raise ValueError(f"base year {self.base_year} missing from CPI table")
        if any(v <= 0 for v in self.index_by_year.values()):
            raise ValueError("CPI indices must be positive")

    @classmethod
    def load(cls, path, base_year: int) -> "CpiTable":
        """The table of a `year,index` CSV; a missing base year or a
        non-positive index raises InputError naming path."""
        table = dict(read_csv(path, "year",
                              lambda row: (int(row[0]), float(row[1]))))
        try:
            return cls(index_by_year=table, base_year=base_year)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc

    def deflate(self, nominal: float, year: int) -> float:
        if year not in self.index_by_year:
            raise KeyError(f"CPI index missing for year {year}")
        return nominal * self.index_by_year[self.base_year] / self.index_by_year[year]


def _column(schema: dict, cell=str, **kw):
    """A panel column: its PANEL_SCHEMA property and its panel.csv cell."""
    return field(metadata={"schema": schema, "cell": cell}, **kw)


def _num(v) -> str:
    return f"{v:.12g}"


def _opt(cell):
    return lambda v: "" if v is None else cell(v)


_DATE = {"type": "string", "format": "date"}
_DISTANCE = {"type": "number", "minimum": 0, "maximum": 2}
_COUNT = {"type": "integer", "minimum": 0}
_DUMMY = {"enum": [0, 1]}


@dataclass
class MeasureRow:
    """One panel.csv row; the fields, in order, are its columns."""

    company_id: str = _column({"type": "string"})
    episode_start: date = _column(_DATE, date.isoformat)
    episode_end: date = _column(  # None when censored
        {**_DATE, "type": ["string", "null"]}, _opt(date.isoformat))
    slice_year: int = _column({"type": "integer"})
    local_distance: float = _column(_DISTANCE, _num)
    global_distance: float = _column(_DISTANCE, _num)
    tech_app_local_distance: float = _column(_DISTANCE, _num)
    centroid_spread: float = _column(_DISTANCE, _num)
    negentropy: float = _column(
        {"type": "number", "minimum": -1, "maximum": 0}, _num)
    element_familiarity: float = _column(
        {"type": "number", "minimum": 0}, _num)
    n_valid_elements: int = _column(_COUNT)
    rare_word_dummy: int = _column(_DUMMY)
    no_tech_dummy: int = _column(_DUMMY)
    text_length: int = _column(_COUNT)
    time_to_market_months: float = _column(  # None when censored
        {"type": ["number", "null"]}, _opt(_num))
    vc_diversity: float = _column(  # None without >= 2 keyworded investors
        {"type": ["number", "null"], "minimum": 0, "maximum": 1}, _opt(_num))
    outcome: str = _column({"enum": [OUTCOME_IPO_HIGH, OUTCOME_FUNDING,
                                     OUTCOME_OTHER_ACQ, OUTCOME_CLOSE,
                                     OUTCOME_CENSORED]})
    degenerate_flags: set = _column({"type": "string"},
                                    lambda v: ";".join(sorted(v)),
                                    default_factory=set)


PANEL_COLUMNS = [f.name for f in fields(MeasureRow)]
PANEL_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {f.name: f.metadata["schema"]
                       for f in fields(MeasureRow)},
        "required": PANEL_COLUMNS,
    },
}


def time_to_market(events):
    """Months from first seed to first early round, or (None, flags)."""
    seed = next((e for e in events if e.type == "seed"), None)
    early = next((e for e in events
                  if e.type in ("early_round_a", "early_round_b")), None)
    if seed is None or early is None:
        return None, set()
    days = (early.date - seed.date).days
    if days < 0:
        return None, {FLAG_INCONSISTENT_TIMING}
    return days / DAYS_PER_MONTH, set()


def vc_diversity(investors):
    """Mean pairwise Jaccard diversity (1 - |A&B|/|A|B|) over investors with
    nonempty keyword sets; None with fewer than two."""
    sets = [inv.industry_keywords for inv in investors if inv.industry_keywords]
    if len(sets) < 2:
        return None
    divs = [1.0 - len(a & b) / len(a | b) for a, b in combinations(sets, 2)]
    return float(np.mean(divs))


def acquisition_price_thresholds(companies, cpi: CpiTable, top_share: float):
    """Per-industry deflated-price cutoff for the top-share acquisitions.

    The cutoff is the h-th largest deflated price with h = max(1,
    floor(top_share * n)), so a population of 10 yields exactly 3 high labels
    and a singleton is high by convention.
    """
    by_industry = {}
    for comp in companies:
        for e in comp.events:
            if e.type == "acquisition" and e.price_usd is not None:
                try:
                    real = cpi.deflate(e.price_usd, e.date.year)
                except KeyError as exc:
                    raise InputError(
                        f"company {comp.id}, acquisition on {e.date}: "
                        f"{exc.args[0]}") from exc
                by_industry.setdefault(comp.industry, []).append(real)
    cutoffs = {}
    for industry, prices in by_industry.items():
        prices = sorted(prices, reverse=True)
        h = max(1, math.floor(top_share * len(prices)))
        cutoffs[industry] = prices[h - 1]
    return cutoffs


def classify_event_outcome(event: Event, industry: str, cpi: CpiTable,
                           cutoffs: dict) -> str:
    if event.type in FUNDING_TYPES:
        return OUTCOME_FUNDING
    if event.type == "ipo":
        return OUTCOME_IPO_HIGH
    if event.type == "closure":
        return OUTCOME_CLOSE
    # acquisition: missing price always lands in other_acq
    if event.price_usd is None:
        return OUTCOME_OTHER_ACQ
    real = cpi.deflate(event.price_usd, event.date.year)
    cutoff = cutoffs.get(industry)
    if cutoff is not None and real >= cutoff:
        return OUTCOME_IPO_HIGH
    return OUTCOME_OTHER_ACQ


def interpolate_measure(snapshot_values, query_date: date) -> float:
    """Piecewise-linear in time between snapshots; nearest endpoint outside
    the recorded range."""
    if not snapshot_values:
        raise ValueError("no snapshots to interpolate")
    pts = sorted(snapshot_values, key=lambda p: p[0])
    if query_date <= pts[0][0]:
        return float(pts[0][1])
    if query_date >= pts[-1][0]:
        return float(pts[-1][1])
    for (d0, v0), (d1, v1) in zip(pts, pts[1:]):
        if d0 <= query_date <= d1:
            span = (d1 - d0).days
            if span == 0:
                return float(v1)
            frac = (query_date - d0).days / span
            return float(v0 + (v1 - v0) * frac)
    raise AssertionError("unreachable")


def build_episodes(company: CompanyRecord):
    """Inter-event episodes from founding; IPO and closure are terminal and
    later events are dropped. A trailing censored episode is added when the
    last event is not terminal (or there are no events). Events out of
    date order, or a first event dated before the founding, raise
    InputError."""
    events = list(company.events)
    for a, b in zip(events, events[1:]):
        if b.date < a.date:
            raise InputError(
                f"events out of order for company {company.id}")
    if events and events[0].date < company.founded:
        raise InputError(f"company {company.id} founded {company.founded}, "
                         f"after its first event on {events[0].date}")
    kept = []
    for e in events:
        kept.append(e)
        if e.type in TERMINAL_TYPES:
            break
    episodes = []
    start = company.founded
    for e in kept:
        episodes.append((start, e.date, e))
        start = e.date
    if not kept or kept[-1].type not in TERMINAL_TYPES:
        episodes.append((start, None, None))
    return episodes


_INTERPOLATED_FIELDS = ("local_distance", "global_distance",
                        "tech_app_local_distance", "centroid_spread",
                        "negentropy", "element_familiarity")
# a description's measures, in the order _measure computes them
_MEASURED = _INTERPOLATED_FIELDS[:5] + (
    "n_valid_elements", "element_familiarity", "no_tech_dummy",
    "text_length", "rare_word_dummy")


def _measure(needed, vocab, U, assignments, lexicon, cfg: MeasureConfig,
             tokenizer):
    """(values, flags) of each text of needed[t] in slice t, keyed (text, t),
    emptying needed slice by slice. Each text is tokenized, and each
    distinct token labelled, once; a text's tokens are held from its first
    slice to its last."""
    rare_threshold = vocab.rare_threshold(cfg.rare_percentile)
    labels, described, evaluated = {}, {}, {}
    uses = Counter(x for texts in needed.values() for x in texts)
    while needed:
        t, texts = needed.popitem()
        for text in texts:
            if text not in described:
                tokens = tokenizer(text)
                labels.update(m.classify_tech_app(
                    [tok for tok in tokens if tok not in labels], lexicon,
                    cfg.freq_ratio_threshold))
                # element_familiarity reads only the technology tokens
                described[text] = (
                    np.array([i for i in map(vocab.token_to_id.get, tokens)
                              if i is not None], dtype=np.int64),
                    {tok for tok in tokens if labels[tok] == m.TECHNOLOGY},
                    m.text_controls(tokens, vocab, rare_threshold))
        blocks = m.module_blocks([described[x][0] for x in texts],
                                 U.slices[t], assignments[t],
                                 cfg.min_module_size)
        results = chain.from_iterable(zip(
            m.local_distance(b), m.global_distance(b),
            m.tech_app_local_distance(b, labels, vocab), m.centroid_spread(b),
            m.negentropy_balance(b), m.valid_elements(b)) for b in blocks)
        for text, result in zip(texts, results):
            _, tech, controls = described[text]
            values = [v for v, _ in result] + list(m.element_familiarity(
                tech, labels, vocab, t, cfg.lookback_years, U.years))
            evaluated[text, t] = (dict(zip(_MEASURED, values + list(controls))),
                                  set().union(*(f for _, f in result)))
            uses[text] -= 1
            if not uses[text]:
                del described[text]
    return evaluated


def build_panel(companies, vocab, U, slices: SliceSpec, assignments, lexicon,
                cpi: CpiTable, cfg: MeasureConfig, tokenizer):
    """Assemble multi-episode MeasureRows for every company.

    slices maps an episode's start year to the slice of U it is measured in;
    a year outside [year_min, year_max] takes the nearest slice and the
    slice_clamped flag. assignments[t] maps each word id to its atom id in
    slice t, or UNASSIGNED. tokenizer maps raw text to a token list. Every
    (description, slice) that an episode needs is collected first and
    measured once.
    """
    cutoffs = acquisition_price_thresholds(companies, cpi, cfg.top_price_share)

    def slice_of(start):
        year = min(max(start.year, slices.year_min), slices.year_max)
        return slices.index(year), year != start.year

    accepted, rejected, needed = [], [], {}
    for comp in companies:
        try:
            episodes = build_episodes(comp)
        except InputError as exc:
            rejected.append((comp.id, str(exc)))
            continue
        accepted.append(comp)
        texts = [text for _, text in comp.snapshots] or [comp.description]
        for start, _, _ in episodes:
            needed.setdefault(slice_of(start)[0], {}).update(
                dict.fromkeys(texts))
    evaluated = _measure(needed, vocab, U, assignments, lexicon, cfg,
                         tokenizer)

    rows = []
    for comp in accepted:
        ttm, ttm_flags = time_to_market(comp.events)
        for start, end, event in build_episodes(comp):
            t, clamped = slice_of(start)
            flags = set(ttm_flags)
            if clamped:
                flags.add(m.FLAG_SLICE_CLAMPED)

            per_snapshot = []
            for snap_date, text in comp.snapshots or [(None, comp.description)]:
                vals, fl = evaluated[text, t]
                per_snapshot.append((snap_date, vals))
                flags |= fl
            vals = dict(vals)
            if comp.snapshots:
                for name in _INTERPOLATED_FIELDS:
                    vals[name] = interpolate_measure(
                        [(d, v[name]) for d, v in per_snapshot], start)

            if event is None:
                outcome = OUTCOME_CENSORED
                diversity = None
            else:
                # of the events on the end date, the most successful outcome
                outcome = max(
                    (classify_event_outcome(e, comp.industry, cpi, cutoffs)
                     for e in comp.events if e.date == event.date),
                    key=_SUCCESS_RANK.get)
                diversity = vc_diversity(event.investors)

            rows.append(MeasureRow(
                company_id=comp.id, episode_start=start, episode_end=end,
                slice_year=U.years[t], time_to_market_months=ttm,
                vc_diversity=diversity, outcome=outcome,
                degenerate_flags=flags, **vals))
    return rows, rejected


def write_panel_csv(rows, path):
    cells = [(f.name, f.metadata["cell"]) for f in fields(MeasureRow)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PANEL_COLUMNS)
        for r in rows:
            writer.writerow([cell(getattr(r, name)) for name, cell in cells])


def read_companies(path) -> list:
    """One CompanyRecord per nonblank line of a JSONL file; a line that is
    not a valid record raises InputError naming path:line."""
    return read_records(path, CompanyRecord)
