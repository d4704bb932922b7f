"""The input records: each declared field of each record type, replaced by
an odd JSON value or left out, is read or refused with one InputError that
names the line and the field; and the README's input-format tables match
the declarations."""

import json
from dataclasses import MISSING, fields
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from venturescape.config import _KINDS, field_reader
from venturescape.corpus import DocumentRecord, InputError, read_documents
from venturescape.panel import (CompanyRecord, Event, InvestorProfile,
                                Snapshot, read_companies)

INVESTOR = {"id": "i1", "keywords": ["ai", "energy"]}
EVENT = {"type": "acquisition", "date": "2015-05-01", "price_usd": 900.0,
         "investors": [INVESTOR]}
SNAPSHOT = {"date": "2015-01-01", "text": "solar grid"}
COMPANY = {"id": "c1", "description": "solar grid", "founded": "2014-01-01",
           "industry": "energy", "events": [EVENT], "snapshots": [SNAPSHOT]}
DOCUMENT = {"id": "d1", "year": 2015, "source": "news", "text": "solar grid"}

# record class -> (a valid object of it, the line that holds an object in
# its place, the reader of a file of such lines)
RECORDS = {
    DocumentRecord: (DOCUMENT, lambda obj: obj, read_documents),
    CompanyRecord: (COMPANY, lambda obj: obj, read_companies),
    Event: (EVENT, lambda obj: {**COMPANY, "events": [obj]}, read_companies),
    InvestorProfile: (INVESTOR, lambda obj: {
        **COMPANY, "events": [{**EVENT, "investors": [obj]}]},
        read_companies),
    Snapshot: (SNAPSHOT, lambda obj: {**COMPANY, "snapshots": [obj]},
               read_companies),
}
ODD = [None, True, 1.5, -1, "x", "", [], {}, [1], {"a": 1}, 10**30,
       "2015-02-30"]
LEFT_OUT = "left out"


def keys(cls):
    """The JSON key of each declared field of cls."""
    return [f.metadata.get("key") or f.name for f in fields(cls)]


@st.composite
def mutations(draw):
    """A record class, one of its keys (None: the whole line of a top-level
    record) and the odd value that replaces it, or LEFT_OUT."""
    cls = draw(st.sampled_from(list(RECORDS)))
    top = cls in (DocumentRecord, CompanyRecord)
    key = draw(st.sampled_from(keys(cls) + [None] * top))
    value = draw(st.sampled_from(ODD + [LEFT_OUT] * (key is not None)))
    return cls, key, value


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutation=mutations())
def test_mutated_field_is_read_or_refused_by_name(tmp_path_factory,
                                                  mutation):
    cls, key, value = mutation
    valid, line_of, read = RECORDS[cls]
    obj = dict(valid)
    if key is None:
        obj = value
    elif value is LEFT_OUT:
        del obj[key]
    else:
        obj[key] = value
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    path.write_text(json.dumps(line_of(obj)) + "\n")
    try:
        read(path)
    except InputError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:1: "), message
        # a whole line names what it lacks, or that it is not a record
        named = [key] if key else keys(cls) + ["a record"]
        assert any(f": {name} " in message for name in named), message
        for name in ("KeyError", "AttributeError", "time data"):
            assert name not in message, message


def test_readme_lists_every_record_field():
    """The README has one table per record type, under a heading that
    names its class, with one row per declared field and no other. Each row
    gives its field's JSON key, the words of its kind, its default or
    "required", and the words of its rule or "—"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    for cls in RECORDS:
        section = text.split(f"#### `{cls.__name__}`")[1]
        table = section.split("| Field | Kind | Default | Rule |\n")[1]
        lines = table.split("\n\n")[0].splitlines()[1:]
        rows = {}
        for line in lines:
            key, kind, default, rule = (
                cell.replace("`", "") if i != 2 else cell
                for i, cell in enumerate(line.strip("| ").split(" | ")))
            rows[key] = kind, default, rule
        assert len(rows) == len(lines), cls
        assert list(rows) == keys(cls), cls
        for key, f in zip(keys(cls), fields(cls)):
            kind, cell, rule = rows[key]
            of = f.metadata.get("of")
            assert kind == (f"a list of {of.__name__} objects" if of
                            else _KINDS[f.type][2]), key
            assert rule == (f.metadata.get("rule") or ("—",))[0], key
            if f.default is MISSING is f.default_factory:
                assert cell == "required", key
            else:
                default = f.default if f.default_factory is MISSING \
                    else f.default_factory()
                read = field_reader(key, f)
                assert read(yaml.safe_load(cell.strip("`"))) == default, key
