"""Pipeline configuration: one YAML file drives every stage.

Each setting is declared once, as a field of the dataclasses below: its
YAML key, its default, its kind (the field's annotation, a kind of _KINDS)
and its range rule; corpus and panel declare their input records the same
way. build reads any such dataclass from outside values, every setting and
input record; pipeline derives each stage's hashed view and input files
from the declarations, and the compute modules take the dataclasses as
they are."""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime
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


def declared(default=MISSING, key=None, *, least=None, finite=False,
             choices=None, rule=None, **meta):
    """A declared field of a setting or an input record. key is its YAML
    or JSON key under its section's, the field's name when None; a field
    without a default is required. rule is (words, holds): a value that
    fails holds is refused as "<key> must be <words>". least makes it
    ">= least", which NaN fails, or "finite and >= least"; choices makes it
    a value among them. Further metadata: of, a declared record class, makes
    the field a list of objects, each read as one; fallback, the YAML key
    whose value is the default; per_key, a mapping whose default holds its
    keys, each entry under the rule; path, "input" or "output", relative to
    the config file."""
    if least is not None:
        rule = ((f"finite and >= {least}", lambda v: least <= v < math.inf)
                if finite else (f">= {least}", lambda v: v >= least))
    if choices:
        rule = (f"{', '.join(choices[:-1])} or {choices[-1]}",
                lambda v: v in choices)
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
    bigrams: tuple = declared(
        (), rule=("word pairs", lambda v: all(len(p) == 2 for p in v)))


@dataclass(frozen=True)
class SliceSpec:
    """Maps calendar years onto time-slice indices."""

    year_min: int
    year_max: int  # >= year_min, a rule of load_config
    width: int = declared(1, least=1)

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
    k: int = declared(50, least=1)
    lam: float = declared(10.0, "lambda", least=0, finite=True)
    tau: float = declared(50.0, least=0, finite=True)
    gamma: float = declared(None, least=0, finite=True)  # None: 50 * lam
    sweeps: int = declared(30, least=1)
    seed: int = declared(0, least=0, fallback="seed")
    tol: float = declared(1e-4, least=0)

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", 50.0 * self.lam)


@dataclass(frozen=True)
class AtomConfig:
    K: int = declared(200, "count", least=1)
    sparsity: int = 5  # in [1, K], a rule of load_config
    iterations: int = declared(20, least=0)
    method: str = declared("ksvd", choices=("ksvd", "kmeans"))
    seed: int = declared(0, least=0, fallback="seed")


@dataclass
class MeasureConfig:
    min_module_size: int = declared(2, least=1)
    freq_ratio_threshold: float = declared(5.0, least=0)
    lookback_years: int = declared(5, least=0)
    rare_percentile: float = declared(
        0.01, rule=("in [0, 1]", lambda v: 0 <= v <= 1))
    top_price_share: float = declared(
        0.3, rule=("in (0, 1]", lambda v: 0 < v <= 1))
    cpi_base_year: int = 2015


@dataclass(kw_only=True)
class PipelineConfig:
    """Every setting of a run; load_config sets each field. A field whose
    metadata names a section class holds that section's settings, under
    the field's name."""

    corpus_path: str = declared(key="paths.corpus", path="input")
    companies_path: str = declared(key="paths.companies", path="input")
    tech_terms_path: str = declared(key="paths.tech_terms", path="input")
    general_freq_path: str = declared(key="paths.general_freq", path="input")
    patent_freq_path: str = declared(key="paths.patent_freq", path="input")
    cpi_path: str = declared(key="paths.cpi", path="input")
    out_dir: str = declared("out", "out", path="output")
    seed: int = declared(0, least=0)  # train's and atoms' default seed
    slices: SliceSpec = field(metadata={"section": SliceSpec})
    tokens: TokenRules = field(metadata={"section": TokenRules})
    min_count: int = declared(10, "vocab.min_count", least=1)
    window: int = declared(5, "cooccurrence.window", least=1)
    source_weights: dict = declared(
        dict.fromkeys(SOURCES, 1.0), "cooccurrence.weights", per_key=True,
        rule=("finite and > 0",
              lambda w: type(w) in (int, float) and 0 < w < math.inf))
    ppmi_shift: float = declared(1.0, "cooccurrence.shift", least=1,
                                 finite=True)
    train: TrainConfig = field(metadata={"section": TrainConfig})
    atoms: AtomConfig = field(metadata={"section": AtomConfig})
    measures: MeasureConfig = field(metadata={"section": MeasureConfig})
    axis_seeds: dict = declared(
        DEFAULT_PROFIT_SEEDS, "axes.profit_loss",
        rule=("exactly positive and negative word lists",
              lambda v: v.keys() == {"positive", "negative"}
              and all(map(_is_words, v.values()))))
    drift_words: list = declared([])
    analogies: tuple = declared(
        (), rule=("word triples", lambda v: all(len(q) == 3 for q in v)))
    quantiles: int = declared(10, "report.quantiles", least=1)
    emit_tsv: bool = False


# kind -> (whether an outside value may be one, the value it makes, the
# words that name it). Each check goes by type(), as a YAML or JSON true is
# an int to isinstance. A float may be a string that float() reads, since
# YAML 1.1 loads 1e6 as one; a tuple is a list of word lists; an object is
# any value, for a field whose rule names its type.
_KINDS = {"int": (lambda v: type(v) is int, int, "int"),
          "float": (lambda v: type(v) in (int, float, str), float, "float"),
          "bool": (lambda v: type(v) is bool, bool, "bool"),
          "str": (lambda v: type(v) is str, str, "a string"),
          "date": (lambda v: type(v) is str,
                   lambda v: datetime.strptime(v, "%Y-%m-%d").date(),
                   "a YYYY-MM-DD date"),
          "list": (_is_words, list, "a list of words"),
          "frozenset": (_is_words, frozenset, "a list of words"),
          "tuple": (lambda v: type(v) is list and all(map(_is_words, v)),
                    lambda v: tuple(map(tuple, v)), "a list of word lists"),
          "dict": (lambda v: type(v) is dict, dict, "a mapping"),
          "object": (lambda v: True, lambda v: v, "any value"),
          "objects": (lambda v: type(v) is list
                      and all(type(x) is dict for x in v),
                      list, "a list of objects")}


def field_reader(key: str, f):
    """The function that reads an outside value of the field f at key: as
    its kind and under its rule, or as records of its of class; null stays
    null where it is the default. Another type raises TypeError, and a
    string the kind cannot read or a value against the rule ValueError."""
    meta = f.metadata
    of, per_key = meta.get("of"), meta.get("per_key")
    accepts, make, desc = _KINDS["objects" if of else f.type]
    words, holds = meta.get("rule") or (None, None)
    default = f.default_factory() if per_key else f.default

    def read(value):
        if value is None and default is None:
            return value
        if not accepts(value):
            raise TypeError(f"{key} must be {desc}, got "
                            f"{type(value).__name__}")
        try:
            value = make(value)
        except ValueError:  # a string that float() or strptime() rejects
            raise ValueError(f"{key} must be {desc}, got {value!r}") \
                from None
        if of:
            records = [build(of, v) for v in value]
            return tuple(records) if f.type == "tuple" else records
        if per_key:  # a key its default lacks names no setting
            unknown = [f"{key}.{k}" for k in value if k not in default]
            if unknown:
                raise ValueError(f"unknown setting {', '.join(unknown)}")
            value = {**default, **value}
        if holds:
            for name, v in ([(f"{key}.{k}", v) for k, v in value.items()]
                            if per_key else [(key, value)]):
                if not holds(v):
                    shown = list(map(list, v)) if f.type == "tuple" else v
                    raise ValueError(f"{name} must be {words}, got "
                                     f"{shown!r}")
        return value
    return read


@functools.cache
def _plan(cls, prefix=""):
    """How build reads cls: per field, its name, its key under prefix, its
    section class, the field and, but for a section, its reader."""
    plan = []
    for f in fields(cls):
        key = prefix + (f.metadata.get("key") or f.name)
        section = f.metadata.get("section")
        plan.append((f.name, key, section, f,
                     None if section else field_reader(key, f)))
    return plan


def build(cls, raw, prefix=""):
    """The declared dataclass cls read from raw, a mapping of outside
    values by key: each field from the value at its key, or else its
    default; a section's fields under its key and a dot. Every setting and
    input record is read here. A raw that is not a mapping, a missing
    required field or a bad value raises TypeError or ValueError."""
    if type(raw) is not dict:
        raise TypeError(f"a record must be an object, got "
                        f"{type(raw).__name__}")
    values = {}
    for name, key, section, f, read in _plan(cls, prefix):
        if section:
            values[name] = build(section, raw, f"{key}.")
        elif key in raw:
            values[name] = read(raw[key])
        elif f.default is MISSING is f.default_factory:
            raise ValueError(f"{key} is required")
    return cls(**values)


def _leaves(cls, prefix=""):
    """(YAML key, field) of every setting of cls and of its sections."""
    for _, key, section, f, _ in _plan(cls, prefix):
        if section:
            yield from _leaves(section, f"{key}.")
        else:
            yield key, f


# YAML key -> field, of every setting
SETTINGS = dict(_leaves(PipelineConfig))
# the YAML sections
_SECTIONS = {key.split(".")[0] for key in SETTINGS if "." in key}


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
    flat = {}  # each value under its YAML key
    for name, values in raw.items():
        flat.update({f"{name}.{key}": v for key, v in (values or {}).items()}
                    if name in _SECTIONS else {str(name): values})

    # refuse a key that names no setting: a misspelled one would be ignored
    unknown = [key for key in flat if key not in SETTINGS]
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(unknown)}")
    for key, f in SETTINGS.items():  # an unset setting takes its fallback's
        if key not in flat and f.metadata.get("fallback") in flat:
            flat[key] = flat[f.metadata["fallback"]]

    try:
        cfg = build(PipelineConfig, flat)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    base = Path(path).resolve().parent
    for key, f in SETTINGS.items():
        role = f.metadata.get("path")
        if role == "output" and not getattr(cfg, f.name):
            # it would name the config file's own directory
            raise ConfigError(f"{key} must not be empty")
        if role:  # an absolute value stays as it is
            value = str(base / getattr(cfg, f.name))
            if role == "input" and Path(value).is_dir():
                raise ConfigError(f"{key} names a directory: {value}")
            setattr(cfg, f.name, value)
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
