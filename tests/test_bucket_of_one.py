"""A bucket of one is the per-operation update, access for access.

Each bottom-up strategy writes its ladder once, over a leaf bucket, and
``update()`` is the bucket of one.  So one seeded stream driven through
``update()`` and the same stream sent as single-update ``execute_many`` calls
must do exactly the same thing at every step: the same buffer-pool accesses
in the same order, the same I/O counters, the same outcome counts and the
same page images — at a pool of 0 %, 1 % and 100 % of the database.
"""

import random

import pytest

from repro.api import Update
from repro.geometry import Point

from tests.conftest import build_index, recorded_accesses

OBJECTS = 220
STEPS = 150


def _moves(seed=2711):
    """``(oid, reach, dx, dy)``: mostly short moves, sometimes a jump (reach None)."""
    rng = random.Random(seed)
    return [
        (
            rng.randrange(OBJECTS),
            rng.choice((0.004, 0.03, 0.08, None)),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        )
        for _ in range(STEPS)
    ]


def _target(old, reach, dx, dy):
    if reach is None:
        return Point((dx + 1.0) / 2.0, (dy + 1.0) / 2.0)
    return Point(
        min(1.0, max(0.0, old.x + reach * dx)), min(1.0, max(0.0, old.y + reach * dy))
    )


def _step(index, oid, target, batched):
    """Apply one move; return everything the step did, for comparison."""
    with recorded_accesses(index.buffer) as log:
        if batched:
            index.execute_many([Update(oid, target)])
        else:
            index.update(oid, target)
    encode = index.buffer.codec.encode
    return (
        log,
        index.stats.as_dict(),
        dict(index.strategy.outcome_counts),
        sorted(index.disk.page_ids()),
        {
            page: encode(index.tree.peek_node(page))
            for _kind, page in log
            if index.disk.contains(page)
        },
    )


@pytest.mark.parametrize("buffer_percent", [0.0, 1.0, 100.0])
@pytest.mark.parametrize("strategy", ["NAIVE", "LBU", "GBU"])
def test_single_update_batches_are_per_op_updates(strategy, buffer_percent):
    per_op = build_index(strategy, num_objects=OBJECTS, buffer_percent=buffer_percent)
    batched = build_index(strategy, num_objects=OBJECTS, buffer_percent=buffer_percent)
    for step, (oid, reach, dx, dy) in enumerate(_moves()):
        target = _target(per_op.position_of(oid), reach, dx, dy)
        expected = _step(per_op, oid, target, batched=False)
        assert _step(batched, oid, target, batched=True) == expected, step
    classes = [outcome for outcome, count in per_op.strategy.outcome_counts.items() if count]
    assert len(classes) >= 2  # the stream leaves the leaf, not only moves in place
    per_op.validate()
    batched.validate()
