"""The JSON report writer against `json.dumps(..., indent=2)`.

Reports write null for nan and +-inf (RFC 8259 has neither), so the
reference is json.dumps of the value with every non-finite float replaced by
None.  A report payload maps keys to scalars and tables; a table, a dict of
equal-length columns, is compared with json.dumps of the records it stands for.
"""
import itertools
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sysmean.cli import Column, _fixed_width, _json


class Float64Like(float):
    """A float subclass that prints differently from its value, as numpy's float64 does."""

    def __repr__(self) -> str:
        return f"Float64Like({float(self)!r})"

    __str__ = __repr__


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
               math.nan, math.inf, -math.inf]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | floats
    | floats.map(Float64Like)
    | st.text()
)
keys = st.text()  # any code point but surrogates: non-ASCII and control characters too


def finite(value):
    """`value` with every nan and +-inf replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [finite(item) for item in value]
    return value


@st.composite
def tables(draw):
    """(table, its records): columns with one value per row."""
    names = draw(st.lists(keys, unique=True, max_size=5))
    n_rows = draw(st.integers(0, 5)) if names else 0
    columns = {
        name: draw(st.lists(scalars, min_size=n_rows, max_size=n_rows)) for name in names
    }
    records = [{name: column[i] for name, column in columns.items()} for i in range(n_rows)]
    return columns, records


@st.composite
def payloads(draw):
    """(payload, the value it stands for): at least one key, each with a scalar
    or a table, as the commands build them."""
    items = draw(st.dictionaries(keys, scalars.map(lambda v: (v, v)) | tables(),
                                 min_size=1, max_size=6))
    return ({key: item[0] for key, item in items.items()},
            {key: item[1] for key, item in items.items()})


@settings(max_examples=400, deadline=None)
@given(payloads())
@example(({"a": 0.0, "b": -0.0, "c": True, "d": None, "e": math.nan,
           "rows": {"v": [0.0, -0.0, True, 1, 1.0, None, math.nan, -math.inf]}},
          {"a": 0.0, "b": -0.0, "c": True, "d": None, "e": math.nan,
           "rows": [{"v": v} for v in [0.0, -0.0, True, 1, 1.0, None, math.nan, -math.inf]]}))
@example(({"%s": {"": [], "\x00é": []}, "k": Float64Like(0.1), "big": 2**64},
          {"%s": [], "k": Float64Like(0.1), "big": 2**64}))
def test_writer_equals_json_dumps(payload_and_value):
    payload, value = payload_and_value
    assert _json(payload) == json.dumps(finite(value), indent=2)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_table_equals_json_dumps_of_its_records(table_and_records):
    table, records = table_and_records
    assert _json({"rows": table}) == json.dumps({"rows": finite(records)}, indent=2)


def test_equal_values_keep_their_own_text_in_a_table():
    grid = list(itertools.product([0.0, -0.0], [1, 2.0]))
    column = [0.0, -0.0, True, 1.0]
    table = dict(w2=[w2 for w2, _ in grid], ell=[ell for _, ell in grid], v=column)
    records = [{"w2": w2, "ell": ell, "v": v} for (w2, ell), v in zip(grid, column)]
    assert _json({"rows": table}) == json.dumps({"rows": records}, indent=2)


def test_fixed_width_columns_widen_and_keep_their_alignment():
    columns = [Column("label", "label", "{:<4}"), Column("v", "value", "{:>3d}"),
               Column("flag", "", "{}")]
    table = {"label": ["a", "longer"], "v": [1, 12345], "flag": ["", "  !"]}
    assert _fixed_width(columns, table) == [
        "label  value",
        "a          1",
        "longer 12345  !",
    ]
