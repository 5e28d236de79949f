"""The JSON report writer against `json.dumps(..., indent=2)`.

Reports write null for nan and +-inf (RFC 8259 has neither), so the
reference is json.dumps of the value with every non-finite float replaced by
None.  A Table is compared with json.dumps of the records it stands for.
"""
import itertools
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sysmean.cli import Column, Table, _fixed_width, _json


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
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=24,
)


def finite(value):
    """`value` with every nan and +-inf replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite(item) for item in value]
    return value


@settings(max_examples=400, deadline=None)
@given(values)
@example({"a": [0.0, -0.0, True, 1, 1.0, None, math.nan, -math.inf]})
@example({"%s": {"": [], "\x00é": {}}, "k": (Float64Like(0.1), 2**64)})
def test_writer_equals_json_dumps(value):
    assert _json(value) == json.dumps(finite(value), indent=2)


@st.composite
def tables(draw):
    """(Table, its records): columns with one value per row."""
    names = draw(st.lists(keys, unique=True, max_size=5))
    n_rows = draw(st.integers(0, 5)) if names else 0
    columns = {
        name: draw(st.lists(values | scalars, min_size=n_rows, max_size=n_rows))
        for name in names
    }
    records = [{name: column[i] for name, column in columns.items()} for i in range(n_rows)]
    return Table(columns), records


@settings(max_examples=300, deadline=None)
@given(tables())
def test_table_equals_json_dumps_of_its_records(table_and_records):
    table, records = table_and_records
    assert _json({"rows": table}) == json.dumps({"rows": finite(records)}, indent=2)
    assert _json([[table]]) == json.dumps([[finite(records)]], indent=2)


def test_equal_values_keep_their_own_text_in_a_table():
    grid = list(itertools.product([0.0, -0.0], [1, 2.0]))
    column = [0.0, -0.0, True, 1.0]
    table = Table(w2=[w2 for w2, _ in grid], ell=[ell for _, ell in grid], v=column)
    records = [{"w2": w2, "ell": ell, "v": v} for (w2, ell), v in zip(grid, column)]
    assert _json(table) == json.dumps(records, indent=2)


def test_fixed_width_columns_widen_and_keep_their_alignment():
    columns = [Column("label", "label", "{:<4}"), Column("v", "value", "{:>3d}"),
               Column("flag", "", "{}")]
    table = Table({"label": ["a", "longer"], "v": [1, 12345], "flag": ["", "  !"]})
    assert _fixed_width(columns, table) == [
        "label  value",
        "a          1",
        "longer 12345  !",
    ]
