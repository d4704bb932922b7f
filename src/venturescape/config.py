"""Pipeline configuration: one YAML file drives every stage.

This module owns every setting: each YAML key, its default and its range
rule is declared here once, and the compute modules take the dataclasses
below as they are."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

SOURCES = ("news", "patent", "other")

# The PPMI slice file format (see storage). Ingest hashes PPMI_FORMAT, so a
# format bump makes every recorded ingest stale; it lives here, beside the
# settings, so that a staleness check loads no numpy.
PPMI_MAGIC = b"VSPM"
PPMI_VERSION = 1
PPMI_FORMAT = f"{PPMI_MAGIC.decode()}/{PPMI_VERSION}"

DEFAULT_PROFIT_SEEDS = {
    "positive": ["gain", "win", "profit", "bull", "optimistic", "worthy",
                 "profitable"],
    "negative": ["lose", "loss", "default", "bear", "pessimistic",
                 "worthless", "unprofitable"],
}


class Failure(Exception):
    """A failure that ends a run with one stderr line, ``label: message``
    (the message alone without a label), and exit status code. Each
    subclass declares its own code and label; the README's exit-code table
    lists them."""

    code: int
    label: str = None


class ConfigError(Failure, ValueError):
    """A setting, config file or output path that no run can start from."""

    code, label = 4, "config error"


@dataclass(frozen=True)
class TokenRules:
    """Deterministic tokenization rules applied to every document."""

    lowercase: bool = True
    strip_punct: bool = True
    strip_numbers: bool = False
    min_token_len: int = 1
    stopwords: frozenset = frozenset()
    # phrases joined into single tokens, e.g. ("real", "estate") -> "real_estate"
    bigrams: tuple = ()


@dataclass(frozen=True)
class SliceSpec:
    """Maps calendar years onto time-slice indices."""

    year_min: int
    year_max: int
    width: int = 1

    @property
    def n_slices(self) -> int:
        return (self.year_max - self.year_min) // self.width + 1

    def index(self, year: int):
        """Slice index for a calendar year, or None when out of range."""
        if year < self.year_min or year > self.year_max:
            return None
        return (year - self.year_min) // self.width

    def labels(self) -> list:
        """Representative (starting) year of each slice."""
        return [self.year_min + t * self.width for t in range(self.n_slices)]


@dataclass(frozen=True)
class TrainConfig:
    k: int = 50
    lam: float = 10.0
    tau: float = 50.0
    gamma: float = None  # defaults to 50 * lam
    sweeps: int = 30
    seed: int = 0
    tol: float = 1e-4

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", 50.0 * self.lam)


@dataclass(frozen=True)
class AtomConfig:
    K: int = 200
    sparsity: int = 5
    iterations: int = 20
    method: str = "ksvd"  # or "kmeans"
    seed: int = 0


@dataclass
class MeasureConfig:
    min_module_size: int = 2
    freq_ratio_threshold: float = 5.0
    lookback_years: int = 5
    rare_percentile: float = 0.01
    top_price_share: float = 0.3


@dataclass
class PipelineConfig:
    """Every setting of a run; load_config sets each field."""

    # input paths
    corpus_path: str
    companies_path: str
    tech_terms_path: str
    general_freq_path: str
    patent_freq_path: str
    cpi_path: str
    out_dir: str
    # module configs
    slices: SliceSpec
    tokens: TokenRules
    min_count: int
    window: int
    source_weights: dict
    ppmi_shift: float
    train: TrainConfig
    atoms: AtomConfig
    measures: MeasureConfig
    cpi_base_year: int
    axis_seeds: dict
    drift_words: list
    analogy_queries: list
    report_quantiles: int
    emit_tsv: bool


def _is_words(value) -> bool:
    """Whether a YAML or JSON value is a list of words."""
    return type(value) is list and all(type(w) is str for w in value)


# kind -> (whether an outside value may be one, the value it makes, the
# words that name it). Each check goes by type(), as a YAML or JSON true is
# an int to isinstance. A float may be a string that float() reads, since
# YAML 1.1 loads 1e6 as one; a tuple is a list of word lists.
_KINDS = {"int": (lambda v: type(v) is int, int, "int"),
          "float": (lambda v: type(v) in (int, float, str), float, "float"),
          "bool": (lambda v: type(v) is bool, bool, "bool"),
          "str": (lambda v: type(v) is str, str, "a string"),
          "list": (_is_words, list, "a list of words"),
          "frozenset": (_is_words, frozenset, "a list of words"),
          "tuple": (lambda v: type(v) is list and all(map(_is_words, v)),
                    lambda v: tuple(map(tuple, v)), "a list of word lists"),
          "dict": (lambda v: type(v) is dict, dict, "a mapping"),
          "objects": (lambda v: type(v) is list
                      and all(type(x) is dict for x in v),
                      list, "a list of objects")}


def typed(value, kind: str, name: str):
    """value as a kind of _KINDS; a value of another type raises TypeError
    naming name. Every setting and record field from outside is read here."""
    accepts, make, desc = _KINDS[kind]
    try:
        if accepts(value):
            return make(value)
    except ValueError:  # a string that float() does not read
        pass
    raise TypeError(f"{name} must be {desc}, got {type(value).__name__}")


# the least value of each number setting, by YAML key
_AT_LEAST = {"slices.width": 1, "vocab.min_count": 1,
             "cooccurrence.window": 1, "cooccurrence.shift": 1, "seed": 0,
             "train.seed": 0, "train.k": 1, "train.sweeps": 1,
             "train.lambda": 0, "train.tau": 0, "train.gamma": 0,
             "train.tol": 0,
             "atoms.count": 1, "atoms.iterations": 0, "atoms.seed": 0,
             "measures.lookback_years": 0, "measures.min_module_size": 1,
             "measures.freq_ratio_threshold": 0, "report.quantiles": 1}
# the settings of _AT_LEAST that must be finite too: an infinite one would
# pass ingest and fail the solver, or clip every PPMI value
_FINITE = frozenset({"cooccurrence.shift", "train.lambda", "train.tau",
                     "train.gamma"})
# dataclass fields whose YAML key is another name
_YAML_KEYS = {"lam": "lambda", "K": "count"}


def load_config(path, overrides=None) -> PipelineConfig:
    """Load a YAML pipeline config; CLI overrides win over file values.

    Raises ConfigError for a key that names no setting; a value that is
    not of its setting's kind in _KINDS, such as a boolean or fraction
    where an integer belongs, a boolean where a number belongs or a string
    where a word list belongs; a number below its least value in
    _AT_LEAST, NaN included, or an infinite one for a key in _FINITE; an
    empty out; and a value that breaks another range rule."""
    import yaml  # here, so that --help loads no PyYAML

    try:
        text = Path(path).read_bytes().decode("utf-8")
        # libyaml's parser where PyYAML is built with it: it loads the same
        # values as yaml.SafeLoader about ten times faster
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                             yaml.SafeLoader)) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        try:  # libyaml words its problems differently; report PyYAML's
            yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as pure:
            exc = pure
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark \
            else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"invalid YAML in {path}{where}: {problem}") \
            from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a YAML mapping")
    if overrides:
        raw = _deep_merge(raw, overrides)

    base = Path(path).resolve().parent
    read = set()  # the YAML key of every setting

    def respath(p):
        p = Path(p)
        return str(p if p.is_absolute() else base / p)

    def input_path(key):
        """An input file's path; one that names a directory is refused."""
        p = respath(get(key, MISSING, "str"))
        if Path(p).is_dir():
            raise ConfigError(f"{key} names a directory: {p}")
        return p

    def output_path():
        """The output directory's path; an empty out is refused, as it
        would name the config file's own directory."""
        out = get("out", "out", "str")
        if not out:
            raise ConfigError("out must not be empty")
        return respath(out)

    def get(key, default, kind):
        """The value at a dotted YAML key read as kind, or default; MISSING
        makes the key required."""
        read.add(key)
        *section, name = key.split(".")
        values = (raw.get(section[0]) or {}) if section else raw
        if not isinstance(values, dict):
            raise ConfigError(f"{section[0]} must be a mapping")
        if name not in values:
            if default is MISSING:
                raise ConfigError(f"{key} is required")
            return default
        value = values[name]
        if value is None and default is None:
            return value
        try:
            value = typed(value, kind, key)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        least = _AT_LEAST.get(key)
        if key in _FINITE and not least <= value < math.inf:
            raise ConfigError(f"{key} must be finite and >= {least}, "
                              f"got {value}")
        if least is not None and not value >= least:  # NaN is refused too
            raise ConfigError(f"{key} must be >= {least}, got {value}")
        return value

    def section(name, cls, **defaults):
        """cls read from a YAML section; defaults override field defaults."""
        return cls(**{f.name: get(f"{name}.{_YAML_KEYS.get(f.name, f.name)}",
                                  defaults.get(f.name, f.default), f.type)
                      for f in fields(cls)})

    seed = get("seed", 0, "int")
    cfg = PipelineConfig(
        corpus_path=input_path("paths.corpus"),
        companies_path=input_path("paths.companies"),
        tech_terms_path=input_path("paths.tech_terms"),
        general_freq_path=input_path("paths.general_freq"),
        patent_freq_path=input_path("paths.patent_freq"),
        cpi_path=input_path("paths.cpi"),
        out_dir=output_path(),
        slices=section("slices", SliceSpec),
        tokens=section("tokens", TokenRules),
        min_count=get("vocab.min_count", 10, "int"),
        window=get("cooccurrence.window", 5, "int"),
        source_weights=get("cooccurrence.weights",
                           dict.fromkeys(SOURCES, 1.0), "dict"),
        ppmi_shift=get("cooccurrence.shift", 1.0, "float"),
        train=section("train", TrainConfig, seed=seed),
        atoms=section("atoms", AtomConfig, seed=seed),
        measures=section("measures", MeasureConfig),
        cpi_base_year=get("measures.cpi_base_year", 2015, "int"),
        axis_seeds=get("axes.profit_loss", dict(DEFAULT_PROFIT_SEEDS), "dict"),
        drift_words=get("drift_words", [], "list"),
        analogy_queries=list(get("analogies", [], "tuple")),
        report_quantiles=get("report.quantiles", 10, "int"),
        emit_tsv=get("emit_tsv", False, "bool"),
    )

    # refuse a key that names no setting: a misspelled one would be ignored
    sections = {key.split(".")[0] for key in read if "." in key}
    read.update(f"cooccurrence.weights.{s}" for s in SOURCES)
    given = [name for name in raw if name not in sections]
    given += [f"{name}.{key}" for name in raw if name in sections
              for key in raw[name] or {}]
    given += [f"cooccurrence.weights.{s}" for s in cfg.source_weights]
    unknown = [key for key in given if key not in read]
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(unknown)}")

    sl, atoms, me = cfg.slices, cfg.atoms, cfg.measures
    # (YAML key, value, rule, holds) of the rules that are not a least
    # value, checked before any stage runs
    ranges = [
        ("slices.year_max", sl.year_max, ">= slices.year_min",
         sl.year_max >= sl.year_min),
        *((f"cooccurrence.weights.{source}", w, "finite and > 0",
           type(w) in (int, float) and 0 < w < math.inf)
          for source, w in cfg.source_weights.items()),
        ("atoms.sparsity", atoms.sparsity, "in [1, atoms.count]",
         1 <= atoms.sparsity <= atoms.K),
        ("atoms.method", atoms.method, "ksvd or kmeans",
         atoms.method in ("ksvd", "kmeans")),
        ("measures.rare_percentile", me.rare_percentile, "in [0, 1]",
         0 <= me.rare_percentile <= 1),
        ("measures.top_price_share", me.top_price_share, "in (0, 1]",
         0 < me.top_price_share <= 1),
        ("tokens.bigrams", list(map(list, cfg.tokens.bigrams)), "word pairs",
         all(len(p) == 2 for p in cfg.tokens.bigrams)),
        ("analogies", list(map(list, cfg.analogy_queries)), "word triples",
         all(len(q) == 3 for q in cfg.analogy_queries)),
        ("axes.profit_loss", cfg.axis_seeds,
         "exactly positive and negative word lists",
         cfg.axis_seeds.keys() == {"positive", "negative"}
         and all(map(_is_words, cfg.axis_seeds.values()))),
    ]
    for name, value, rule, ok in ranges:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value}")
    return cfg


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out
