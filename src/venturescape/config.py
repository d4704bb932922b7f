"""Pipeline configuration: one YAML file drives every stage.

Each setting is declared once, as a field of the dataclasses below: its
YAML key, its default, its kind (the field's annotation, a kind of _KINDS)
and its range rule. load_config reads every setting from there, pipeline
derives each stage's hashed view and input files from there, and the
compute modules take the dataclasses as they are."""

from __future__ import annotations

import copy
import math
from dataclasses import MISSING, dataclass, field, fields
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


def _is_words(value) -> bool:
    """Whether a YAML or JSON value is a list of words."""
    return type(value) is list and all(type(w) is str for w in value)


def _setting(default=MISSING, key=None, *, least=None, finite=False,
             choices=None, rule=None, **meta):
    """A setting's field. key is its YAML key under its section's, the
    field's name when None; a setting without a default is required. rule
    is (words, holds): a value that fails holds is refused as "<key> must
    be <words>". least makes it ">= least", which NaN fails, or "finite
    and >= least"; choices makes it a value among them. Further metadata:
    fallback, the YAML key whose value is the default; per_key, a mapping
    whose default holds its keys, each entry under the rule; path, "input"
    or "output", relative to the config file."""
    if least is not None:
        rule = ((f"finite and >= {least}", lambda v: least <= v < math.inf)
                if finite else (f">= {least}", lambda v: v >= least))
    if choices:
        rule = (" or ".join(choices), lambda v: v in choices)
    meta.update({"key": key, "rule": rule})
    if isinstance(default, (list, dict)):
        return field(default_factory=lambda: copy.deepcopy(default),
                     metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class TokenRules:
    """Deterministic tokenization rules applied to every document."""

    lowercase: bool = True
    strip_punct: bool = True
    strip_numbers: bool = False
    min_token_len: int = 1
    stopwords: frozenset = frozenset()
    # phrases joined into single tokens, e.g. ("real", "estate") -> "real_estate"
    bigrams: tuple = _setting(
        (), rule=("word pairs", lambda v: all(len(p) == 2 for p in v)))


@dataclass(frozen=True)
class SliceSpec:
    """Maps calendar years onto time-slice indices."""

    year_min: int
    year_max: int  # >= year_min, a rule of load_config
    width: int = _setting(1, least=1)

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
    k: int = _setting(50, least=1)
    lam: float = _setting(10.0, "lambda", least=0, finite=True)
    tau: float = _setting(50.0, least=0, finite=True)
    gamma: float = _setting(None, least=0, finite=True)  # None: 50 * lam
    sweeps: int = _setting(30, least=1)
    seed: int = _setting(0, least=0, fallback="seed")
    tol: float = _setting(1e-4, least=0)

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", 50.0 * self.lam)


@dataclass(frozen=True)
class AtomConfig:
    K: int = _setting(200, "count", least=1)
    sparsity: int = 5  # in [1, K], a rule of load_config
    iterations: int = _setting(20, least=0)
    method: str = _setting("ksvd", choices=("ksvd", "kmeans"))
    seed: int = _setting(0, least=0, fallback="seed")


@dataclass
class MeasureConfig:
    min_module_size: int = _setting(2, least=1)
    freq_ratio_threshold: float = _setting(5.0, least=0)
    lookback_years: int = _setting(5, least=0)
    rare_percentile: float = _setting(
        0.01, rule=("in [0, 1]", lambda v: 0 <= v <= 1))
    top_price_share: float = _setting(
        0.3, rule=("in (0, 1]", lambda v: 0 < v <= 1))
    cpi_base_year: int = 2015


@dataclass(kw_only=True)
class PipelineConfig:
    """Every setting of a run; load_config sets each field. A field whose
    metadata names a section class holds that section's settings, under
    the field's name."""

    corpus_path: str = _setting(key="paths.corpus", path="input")
    companies_path: str = _setting(key="paths.companies", path="input")
    tech_terms_path: str = _setting(key="paths.tech_terms", path="input")
    general_freq_path: str = _setting(key="paths.general_freq", path="input")
    patent_freq_path: str = _setting(key="paths.patent_freq", path="input")
    cpi_path: str = _setting(key="paths.cpi", path="input")
    out_dir: str = _setting("out", "out", path="output")
    seed: int = _setting(0, least=0)  # train's and atoms' default seed
    slices: SliceSpec = field(metadata={"section": SliceSpec})
    tokens: TokenRules = field(metadata={"section": TokenRules})
    min_count: int = _setting(10, "vocab.min_count", least=1)
    window: int = _setting(5, "cooccurrence.window", least=1)
    source_weights: dict = _setting(
        dict.fromkeys(SOURCES, 1.0), "cooccurrence.weights", per_key=True,
        rule=("finite and > 0",
              lambda w: type(w) in (int, float) and 0 < w < math.inf))
    ppmi_shift: float = _setting(1.0, "cooccurrence.shift", least=1,
                                 finite=True)
    train: TrainConfig = field(metadata={"section": TrainConfig})
    atoms: AtomConfig = field(metadata={"section": AtomConfig})
    measures: MeasureConfig = field(metadata={"section": MeasureConfig})
    axis_seeds: dict = _setting(
        DEFAULT_PROFIT_SEEDS, "axes.profit_loss",
        rule=("exactly positive and negative word lists",
              lambda v: v.keys() == {"positive", "negative"}
              and all(map(_is_words, v.values()))))
    drift_words: list = _setting([])
    analogies: tuple = _setting(
        (), rule=("word triples", lambda v: all(len(q) == 3 for q in v)))
    quantiles: int = _setting(10, "report.quantiles", least=1)
    emit_tsv: bool = False


def _keyed(cls, prefix=""):
    """(YAML key, field) of each field of cls, its key under prefix."""
    return [(prefix + (f.metadata.get("key") or f.name), f)
            for f in fields(cls)]


def _leaves(cls, prefix=""):
    """(YAML key, field) of every setting of cls, a section's own under
    its key."""
    for key, f in _keyed(cls, prefix):
        if "section" in f.metadata:
            yield from _leaves(f.metadata["section"], f"{key}.")
        else:
            yield key, f


# YAML key -> field, of every setting
SETTINGS = dict(_leaves(PipelineConfig))
# the YAML sections, and every key a config may hold
_SECTIONS = {key.split(".")[0] for key in SETTINGS if "." in key}
_KEYS = set(SETTINGS) | {f"{key}.{name}" for key, f in SETTINGS.items()
                         if f.metadata.get("per_key")
                         for name in f.default_factory()}


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


def _checked(value, key: str, f):
    """A YAML value of the setting f at key, as its kind and in its range."""
    if value is None and f.default is None:
        return value
    try:
        value = typed(value, f.type, key)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    entries = {key: value}
    if f.metadata.get("per_key"):
        value = {**f.default_factory(), **value}
        entries = {f"{key}.{name}": v for name, v in value.items()}
    words, holds = f.metadata.get("rule") or (None, None)
    for name, v in entries.items():
        if holds and not holds(v):
            shown = list(map(list, v)) if f.type == "tuple" else v
            raise ConfigError(f"{name} must be {words}, got {shown}")
    return value


def load_config(path, overrides=None) -> PipelineConfig:
    """Load a YAML pipeline config; CLI overrides win over file values.

    Raises ConfigError for a section that is not a mapping; a key that
    names no setting; a value that is not of its setting's kind in _KINDS,
    such as a boolean or fraction where an integer belongs, a boolean where
    a number belongs or a string where a word list belongs; a value that
    breaks its setting's range rule, NaN included; an empty out; and a
    value that breaks a rule between two settings."""
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
    # before the overrides, which would put a mapping in a section's place
    for name, values in raw.items():  # an empty one is null
        if name in _SECTIONS and not isinstance(values, (dict, type(None))):
            raise ConfigError(f"{name} must be a mapping")
    raw = _deep_merge(raw, overrides or {})

    # refuse a key that names no setting: a misspelled one would be ignored
    given = []
    for name, values in raw.items():
        if name not in _SECTIONS:
            given.append(f"{name}")
            continue
        for key, value in (values or {}).items():
            key = f"{name}.{key}"
            f = SETTINGS.get(key)
            given += ([f"{key}.{k}" for k in value]
                      if f and f.metadata.get("per_key")
                      and isinstance(value, dict) else [key])
    unknown = [key for key in given if key not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(unknown)}")

    base = Path(path).resolve().parent

    def read(key, f):
        """The setting f at its YAML key: its value, or its default."""
        *section, name = key.split(".")
        values = (raw.get(section[0]) or {}) if section else raw
        if name in values:
            value = _checked(values[name], key, f)
        elif "fallback" in f.metadata:
            return read(f.metadata["fallback"],
                        SETTINGS[f.metadata["fallback"]])
        elif f.default_factory is not MISSING:
            return f.default_factory()
        elif f.default is MISSING:
            raise ConfigError(f"{key} is required")
        else:
            value = f.default
        role = f.metadata.get("path")
        if role == "output" and not value:
            # it would name the config file's own directory
            raise ConfigError(f"{key} must not be empty")
        if role:
            value = str(base / value)  # an absolute value stays as it is
            if role == "input" and Path(value).is_dir():
                raise ConfigError(f"{key} names a directory: {value}")
        return value

    def build(cls, prefix=""):
        return cls(**{f.name: build(f.metadata["section"], f"{key}.")
                      if "section" in f.metadata else read(key, f)
                      for key, f in _keyed(cls, prefix)})

    cfg = build(PipelineConfig)
    sl, atoms = cfg.slices, cfg.atoms
    # the rules between two settings
    for key, value, rule, holds in (
            ("slices.year_max", sl.year_max, ">= slices.year_min",
             sl.year_max >= sl.year_min),
            ("atoms.sparsity", atoms.sparsity, "in [1, atoms.count]",
             1 <= atoms.sparsity <= atoms.K)):
        if not holds:
            raise ConfigError(f"{key} must be {rule}, got {value}")
    return cfg


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out
