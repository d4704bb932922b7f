"""Seeded input generator for the venturescape benchmark workloads.

For one workload and one seed it writes a year-sliced JSONL corpus, a company
book, the technical-term lexicon and its two frequency tables, a CPI table, a
pipeline config and ``expected.json``, which holds the panel row, censored
episode and rejected company counts planted in the company book.

The corpus has planted topic structure: every document draws most tokens from
one topic's word list, and a few words move to another topic halfway through
the slices. Every word of the universe is frequent enough to clear
``min_count`` in every slice, so the vocabulary size, and with it the work of
each stage, is the same for every seed. Company events are strictly ordered
in time with no two on the same day; a fixed number of companies carry
out-of-order events and are rejected by the measure stage.

    python3 bench/generate.py --workload atoms_heavy --seed 1 --dir /tmp/in
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    slices: int
    docs_per_slice: int
    tokens_per_doc: int
    words: int  # word universe; each clears min_count in every slice
    topics: int
    k: int
    sweeps: int
    atoms: int
    sparsity: int
    iterations: int
    companies: int
    description_tokens: int
    min_count: int = 5


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "corpus_heavy": Shape(slices=5, docs_per_slice=700, tokens_per_doc=40,
                          words=1200, topics=20, k=10, sweeps=5, atoms=10,
                          sparsity=2, iterations=1, companies=60,
                          description_tokens=20),
    "atoms_heavy": Shape(slices=3, docs_per_slice=500, tokens_per_doc=30,
                         words=800, topics=20, k=50, sweeps=3, atoms=100,
                         sparsity=5, iterations=3, companies=60,
                         description_tokens=20),
    "panel_heavy": Shape(slices=3, docs_per_slice=500, tokens_per_doc=30,
                         words=800, topics=20, k=50, sweeps=3, atoms=20,
                         sparsity=5, iterations=1, companies=200,
                         description_tokens=60),
}

YEAR0 = 2001
MAX_EVENTS = 4
FUNDING = ("seed", "early_round_a", "early_round_b", "later_round")
INDUSTRIES = ("energy", "health", "retail", "software", "finance", "logistics")
KEYWORDS = ("energy", "hardware", "software", "retail", "biotech", "payments",
            "mobility", "security", "media", "materials")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def make_words(rng, count: int) -> list:
    """Distinct three-syllable pseudo-words."""
    s = len(_SYLLABLES)
    codes = rng.choice(s ** 3, size=count, replace=False)
    return ["".join(_SYLLABLES[(int(c) // s ** p) % s] for p in range(3))
            for c in codes]


def _topic_weights(size: int) -> np.ndarray:
    # flat enough that the rarest word still clears min_count in every slice
    w = 1.0 / (np.arange(size) + size / 2.0)
    return w / w.sum()


def _text(words, ids) -> str:
    toks = [words[i] for i in ids]
    if toks:
        toks[0] = toks[0].capitalize()
        if len(toks) > 4:
            toks[len(toks) // 2] += ","
    return " ".join(toks) + "."


class Universe:
    """Word universe split into topics plus background words."""

    def __init__(self, shape: Shape, rng):
        self.words = make_words(rng, shape.words + 8)
        self.oov = self.words[shape.words:]  # never in the corpus
        n_background = shape.words // 10
        self.background = np.arange(n_background)
        topic_words = np.arange(n_background, shape.words)
        self.topics = np.array_split(topic_words, shape.topics)
        self.weights = [_topic_weights(len(t)) for t in self.topics]
        # a few words per topic move to the next topic in the later slices
        self.migrants = [t[-2:] for t in self.topics]

    def topic_ids(self, topic: int, t: int, n_slices: int) -> np.ndarray:
        ids = self.topics[topic]
        if t < n_slices // 2:
            return ids
        prev = self.migrants[topic - 1]
        return np.concatenate([ids[:-2], prev])

    def draw(self, rng, topic: int, t: int, n_slices: int, size: int):
        ids = self.topic_ids(topic, t, n_slices)
        from_topic = rng.random(size) < 0.8
        return np.where(from_topic,
                        ids[rng.choice(len(ids), size=size,
                                       p=self.weights[topic])],
                        rng.choice(self.background, size=size))


def write_corpus(path: Path, shape: Shape, uni: Universe, rng) -> int:
    sources = np.array(["news", "patent", "other"])
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(shape.slices):
            topics = rng.integers(shape.topics, size=shape.docs_per_slice)
            srcs = sources[rng.integers(3, size=shape.docs_per_slice)]
            for d in range(shape.docs_per_slice):
                ids = uni.draw(rng, int(topics[d]), t, shape.slices,
                               shape.tokens_per_doc)
                fh.write(json.dumps({"id": f"d{n:07d}", "year": YEAR0 + t,
                                     "source": str(srcs[d]),
                                     "text": _text(uni.words, ids)}))
                fh.write("\n")
                n += 1
    return n


def _exact_share(rng, count: int, share: float) -> np.ndarray:
    """Boolean mask with exactly round(share * count) True entries."""
    mask = np.zeros(count, dtype=bool)
    mask[rng.permutation(count)[:round(share * count)]] = True
    return mask


def write_companies(path: Path, shape: Shape, uni: Universe, tech: list,
                    rng) -> dict:
    """Company book with a planted number of episodes. Returns the expected
    panel counts."""
    C = shape.companies
    n_events = rng.permutation(np.arange(C) % (MAX_EVENTS + 1))
    # the last event of a company: terminal (ipo/closure), acquisition, funding
    last_kind = rng.permutation(np.arange(C) % 6)
    with_snapshots = _exact_share(rng, C, 0.4)
    eligible = np.nonzero(n_events >= 2)[0]
    rejected = set(rng.choice(eligible, size=max(1, C // 50),
                              replace=False).tolist())
    expected = {"companies": C, "rows": 0, "censored": 0,
                "rejected": len(rejected)}

    def description(primary, secondary, t):
        L = shape.description_tokens
        ids = np.concatenate([
            uni.draw(rng, primary, t, shape.slices, L // 2),
            uni.draw(rng, secondary, t, shape.slices, L - L // 2 - 2)])
        toks = [uni.words[i] for i in ids]
        toks.append(tech[int(rng.integers(len(tech)))])
        toks.append(uni.oov[int(rng.integers(len(uni.oov)))]
                    if rng.random() < 0.3 else uni.words[int(ids[0])])
        rng.shuffle(toks)
        return " ".join(toks)

    with open(path, "w", encoding="utf-8") as fh:
        for c in range(C):
            primary, secondary = rng.choice(shape.topics, size=2, replace=False)
            t = int(rng.integers(shape.slices))
            founded = date(YEAR0 + t, 1, 1) + timedelta(
                days=int(rng.integers(300)))
            k = int(n_events[c])
            types = list(FUNDING[:k])
            if k:
                kind = int(last_kind[c])
                if kind < 2:
                    types[-1] = ("ipo", "closure")[kind]
                elif kind == 2:
                    types[-1] = "acquisition"
            day = founded
            events = []
            for typ in types:
                day = day + timedelta(days=int(rng.integers(60, 400)))
                ev = {"type": typ, "date": day.isoformat()}
                if typ in FUNDING:
                    ev["investors"] = [
                        {"id": f"i{int(rng.integers(500)):03d}",
                         "keywords": sorted(rng.choice(
                             KEYWORDS, size=int(rng.integers(1, 4)),
                             replace=False).tolist())}
                        for _ in range(int(rng.integers(1, 4)))]
                if typ == "acquisition":
                    ev["price_usd"] = round(float(rng.lognormal(17, 1)), 2)
                events.append(ev)
            if c in rejected:
                events[0]["date"], events[-1]["date"] = \
                    events[-1]["date"], events[0]["date"]
            else:
                terminal = bool(types) and types[-1] in ("ipo", "closure")
                expected["rows"] += k + (0 if terminal else 1)
                expected["censored"] += 0 if terminal else 1
            rec = {"id": f"c{c:05d}",
                   "description": description(primary, secondary, t),
                   "founded": founded.isoformat(),
                   "industry": INDUSTRIES[int(rng.integers(len(INDUSTRIES)))],
                   "events": events}
            if with_snapshots[c]:
                rec["snapshots"] = [
                    {"date": (founded + timedelta(days=d)).isoformat(),
                     "text": description(primary, secondary, t)}
                    for d in (90, 700)]
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    return expected


def write_lexicons(out: Path, uni: Universe, rng) -> list:
    """Tech-term list plus general and patent frequency tables. Returns the
    tech terms."""
    topic_words = np.concatenate(uni.topics)
    picked = rng.choice(topic_words, size=len(topic_words) // 5, replace=False)
    tech = [uni.words[i] for i in picked[:len(picked) // 4]]
    (out / "tech_terms.txt").write_text("\n".join(tech) + "\n",
                                        encoding="utf-8")
    general = ["term,count"]
    patent = ["term,count"]
    for i in picked[len(picked) // 4:]:
        g = int(rng.integers(10, 1000))
        p = int(g * rng.choice([0.2, 1.0, 20.0]))
        general.append(f"{uni.words[i]},{g}")
        patent.append(f"{uni.words[i]},{max(p, 1)}")
    (out / "general_freq.csv").write_text("\n".join(general) + "\n",
                                          encoding="utf-8")
    (out / "patent_freq.csv").write_text("\n".join(patent) + "\n",
                                         encoding="utf-8")
    return tech


def write_cpi(path: Path):
    rows = ["year,index"] + [f"{y},{100.0 * 1.02 ** (y - 2000):.4f}"
                             for y in range(1990, 2061)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_config(path: Path, shape: Shape, uni: Universe, seed: int):
    head = [uni.words[int(t[0])] for t in uni.topics]
    second = [uni.words[int(t[1])] for t in uni.topics]
    cfg = {
        "paths": {"corpus": "corpus.jsonl", "companies": "companies.jsonl",
                  "tech_terms": "tech_terms.txt",
                  "general_freq": "general_freq.csv",
                  "patent_freq": "patent_freq.csv", "cpi": "cpi.csv"},
        "slices": {"year_min": YEAR0, "year_max": YEAR0 + shape.slices - 1,
                   "width": 1},
        "tokens": {"lowercase": True, "strip_punct": True,
                   "strip_numbers": False},
        "vocab": {"min_count": shape.min_count},
        "cooccurrence": {"window": 5, "shift": 1.0,
                         "weights": {"news": 1.0, "patent": 2.0,
                                     "other": 1.0}},
        "train": {"k": shape.k, "lambda": 1.0, "tau": 5.0,
                  "sweeps": shape.sweeps, "tol": 0.0},
        "atoms": {"count": shape.atoms, "sparsity": shape.sparsity,
                  "iterations": shape.iterations, "method": "ksvd"},
        "measures": {"min_module_size": 2, "freq_ratio_threshold": 5.0,
                     "lookback_years": 5, "rare_percentile": 0.01,
                     "top_price_share": 0.3, "cpi_base_year": 2015},
        "axes": {"profit_loss": {"positive": head[:4],
                                 "negative": second[:4]}},
        "drift_words": head[:3],
        "analogies": [[head[0], second[0], head[1]],
                      [head[2], second[2], head[3]]],
        "report": {"quantiles": 10},
        "seed": seed,
        "emit_tsv": False,
    }
    # JSON is valid YAML, so the config needs no YAML writer
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of one workload into ``out``; returns the planted
    counts, also written to ``out/expected.json``."""
    shape = WORKLOADS[workload]
    seed %= 2 ** 31  # the pipeline seeds numpy, which rejects negatives
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    uni = Universe(shape, rng)
    docs = write_corpus(out / "corpus.jsonl", shape, uni, rng)
    tech = write_lexicons(out, uni, rng)
    expected = write_companies(out / "companies.jsonl", shape, uni, tech, rng)
    expected["docs"] = docs
    write_cpi(out / "cpi.csv")
    write_config(out / "config.yaml", shape, uni, seed)
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n",
                                       encoding="utf-8")
    return expected


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.dir)))


if __name__ == "__main__":
    main()
