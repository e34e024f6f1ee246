"""The spec table, and a whole-spec fuzz generated from it.

Every drawn spec either opens and round-trips (``index_spec`` of the index
reopens to an equal spec) or raises ``ValueError`` / an ``api.errors`` type.
A spec with a value the table rejects must raise.
"""

import math
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import index_spec, open_index
from repro.api.errors import OperationError
from repro.api.schema import ANY, LIVE, MAX_SHARDS, REQUIRED, SPEC_KEYS, read

#: Draws kept small, because the fuzz opens every spec it draws.
SIZES = {"shards": 4, "columns": 3, "rows": 3, "page_size": 4096}
#: The fuzz never forks worker processes: a ``parallel`` section always
#: names its backend, and a valid one is the serial executor.
FIXED = {("parallel", "backend"): "serial"}


def valid_values(name, key, directory):
    """Values *key*'s rule accepts."""
    if name == "dir":
        return st.just(directory)
    if key.retired is not LIVE:
        return st.just("any" if key.retired is ANY else key.retired)
    if key.choices:
        choices = st.sampled_from(key.choices)
        return choices.map(str.lower) | choices if key.fold else choices
    low = key.low or 0
    if key.kind is list:
        values = st.lists(
            valid_values("", key.items, directory),
            min_size=int(low),
            max_size=int(low) + 2 if key.high is None else int(key.high),
        )
    else:
        values = {
            bool: st.booleans(),
            int: st.integers(min_value=int(low), max_value=SIZES.get(name, 1000)),
            # An unbounded float is a coordinate: drawn from the unit square.
            float: st.floats(
                min_value=low,
                max_value=1.0 if key.low is None else 1e6,
                exclude_min=key.above,
                allow_nan=False,
                allow_infinity=False,
            ),
        }[key.kind]
    return values | st.none() if key.nullable else values


def invalid_values(key):
    """Values *key*'s rule rejects: a wrong type, out of range, or ``None``."""
    if key.retired is not LIVE:
        return [] if key.retired is ANY else ["other"]
    if key.choices:
        wrong = [5, "bogus", *key.legacy]
    else:
        wrong = {
            bool: [1, "false", "no"],
            int: [True, 2.5, "1"],
            float: [True, math.nan, math.inf, "0.1"],
            str: [5, True, ""],
            list: [5, "ab"],
        }[key.kind]
        if key.low is not None and key.kind in (int, float):
            wrong.append(key.low if key.above else key.low - 1)
    return wrong if key.nullable else [*wrong, None]


@st.composite
def sections(draw, name, directory, defects):
    """A section drawn from *name*'s keys, and whether the table accepts it.

    Each key is absent or valid, and with *defects* now and then invalid; a
    nested section is absent, drawn, or (with *defects*) not a mapping; and
    with *defects* an unknown key is now and then added.
    """
    section, valid = {}, True
    rare_defect = ["invalid"] if defects else []
    for key_name, key in SPEC_KEYS[name].items():
        fixed = FIXED.get((name, key_name))
        if key.section is not None:
            choice = draw(st.sampled_from(["absent", "absent", "valid"] + rare_defect))
            if choice == "valid":
                variants = [
                    table for table in SPEC_KEYS if table.startswith(key.section + ".")
                ]
                nested = key.section if key.section in SPEC_KEYS else draw(
                    st.sampled_from(variants)
                )
                section[key_name], nested_valid = draw(
                    sections(nested, directory, defects)
                )
                valid = valid and nested_valid
            elif choice == "invalid":
                section[key_name], valid = draw(st.sampled_from([5, []])), False
            continue
        choices = ["valid"] * 3 + rare_defect
        if key.default is not REQUIRED and fixed is None:
            choices += ["absent"] * 3
        choice = draw(st.sampled_from(choices))
        if choice == "invalid" and invalid_values(key):
            section[key_name] = draw(st.sampled_from(invalid_values(key)))
            valid = False
        elif choice != "absent":
            section[key_name] = fixed or draw(valid_values(key_name, key, directory))
    if defects and draw(st.integers(0, 9)) == 0:
        section["unknown"], valid = 1, False
    return section, valid


def close(index):
    if index.durability is not None:
        index.durability.close()


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_every_spec_opens_and_round_trips_or_raises(data):
    with tempfile.TemporaryDirectory() as root:
        defects = data.draw(st.booleans())
        spec, valid = data.draw(sections("spec", f"{root}/wal", defects))
        try:
            index = open_index(spec)
        except (ValueError, OperationError):
            return
        assert valid, f"the table rejects a value of {spec!r}, but it opened"
        try:
            saved = index_spec(index)
            reopened = open_index(saved)
            try:
                assert index_spec(reopened) == saved
            finally:
                close(reopened)
        finally:
            close(index)


@pytest.mark.parametrize("section", ["config", "config.params", "durability"])
def test_index_spec_writes_the_table_defaults(section, tmp_path):
    saved = index_spec(open_index({"durability": {"dir": str(tmp_path)}}))
    written = saved[section] if "." not in section else saved["config"]["params"]
    expected = {
        name: key.default
        for name, key in SPEC_KEYS[section].items()
        if key.retired is LIVE and key.section is None and name != "dir"
    }
    assert {name: written[name] for name in expected} == expected


class TestShardBound:
    """A partition has at most ``MAX_SHARDS`` cells, checked before any is built."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"shards": 1_000_000},
            {"partitioner": {"kind": "grid", "columns": 1000, "rows": 1000}},
            {"partitioner": {"kind": "grid", "columns": MAX_SHARDS + 1, "rows": 1}},
            {
                "partitioner": {
                    "kind": "boundaries",
                    "boundaries": [[0, 0, 1, 1]] * (MAX_SHARDS + 1),
                }
            },
            {
                "partitioner": {
                    "kind": "quantile_grid",
                    "x_cuts": [i / 64 for i in range(65)],
                    "y_cuts": [[j / 17 for j in range(18)]] * 64,
                }
            },
        ],
    )
    def test_oversized_partitions_raise_at_once(self, spec):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"<= {MAX_SHARDS}"):
            open_index(spec)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "partitioner, length",
        [
            ({"kind": "boundaries", "boundaries": [[0, 0, 1, 1]] * 1025}, 1025),
            (
                {
                    "kind": "quantile_grid",
                    "x_cuts": [i / 2000 for i in range(2001)],
                    "y_cuts": [[0.0, 1.0]] * 2000,
                },
                2001,
            ),
        ],
    )
    def test_a_length_error_names_the_length_not_the_list(self, partitioner, length):
        with pytest.raises(ValueError) as raised:
            open_index({"partitioner": partitioner})
        message = str(raised.value)
        assert len(message) < 200
        assert message.endswith(f"got a list of length {length}")

    def test_the_bound_itself_is_accepted(self):
        grid = {"partitioner": {"kind": "grid", "columns": 32, "rows": 32}}
        assert read("spec", grid)["partitioner"]["columns"] == 32
        assert read("spec", {"shards": MAX_SHARDS}) == {"shards": MAX_SHARDS}


def test_a_partition_that_leaves_a_gap_raises_at_open():
    spec = {"partitioner": {"kind": "boundaries", "boundaries": [[0, 0, 0.1, 0.1]]}}
    with pytest.raises(ValueError, match="must cover the unit square"):
        open_index(spec)
