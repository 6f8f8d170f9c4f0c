"""``LocationDataset`` against the per-entity dataset it replaced.

``trace_reference.TraceDataset`` keeps one sorted column set per entity.
Every constructor and transformation of the dataset must give what it
gives, bit for bit, on generated inputs: the entity order, each entity's
three columns (dtype and bytes, so ``-0.0`` and tie order count), the
record counts, ``time_range`` and its empty-dataset error, the exception
of a bad input, and — for ``sample_records`` and ``jitter_timestamps`` —
the random draws, read back from the output and from the generator's
state after the call.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from trace_reference import TraceDataset

from repro.data import LocationDataset, Record

NAMES = ["a", "b", "c", "dd", "é"]
# Few distinct timestamps, so entities hold ties (and both zeros).
TIMES = st.sampled_from([-0.0, 0.0, 1.0, 1.5, 86_400.0, 1.6e9, 1.6e9 + 0.25])
LATS = st.floats(-90.0, 90.0, allow_nan=False)
LNGS = st.floats(-180.0, 180.0, allow_nan=False)
ROWS = st.lists(st.tuples(st.sampled_from(NAMES), TIMES, LATS, LNGS), max_size=24)


def outcome(call):
    """What ``call()`` returns, or its exception's class and text."""
    try:
        return "ok", call()
    except (KeyError, ValueError) as error:
        return type(error).__name__, str(error)


def _bits(value):
    """Floats by their bits, so ``-0.0`` differs from ``0.0``."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return np.float64(value).tobytes() if isinstance(value, float) else value


def assert_same(dataset, reference):
    assert dataset.name == reference.name
    assert dataset.entities == reference.entities
    assert dataset.num_entities == len(reference.entities)
    assert dataset.num_records == len(dataset) == reference.num_records
    records = []
    for entity in reference.entities:
        assert entity in dataset
        assert dataset.record_count(entity) == reference.record_count(entity)
        for got, want in zip(dataset.columns(entity), reference.columns(entity)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        timestamps, lats, lngs = (c.tolist() for c in reference.columns(entity))
        records += [Record(entity, *row) for row in zip(lats, lngs, timestamps)]
    assert list(dataset.records()) == records
    span, want = outcome(dataset.time_range), outcome(reference.time_range)
    assert _bits(span) == _bits(want)
    if span[0] == "ok":
        stats = dataset.stats()
        assert (stats.time_start, stats.time_end) == want[1]


def _sources(rows, data):
    """The rows as a dataset and its reference, through one constructor."""
    entities = [row[0] for row in rows]
    columns = [[row[k] for row in rows] for k in (1, 2, 3)]
    how = data.draw(st.sampled_from(["columns", "records", "arrays"]))
    if how == "columns":
        return (
            LocationDataset.from_columns(entities, columns, "cols"),
            TraceDataset.from_columns(entities, columns, "cols"),
        )
    if how == "records":
        records = [Record(e, lat, lng, t) for e, t, lat, lng in rows]
        return (
            LocationDataset.from_records(records, "recs"),
            TraceDataset.from_columns(entities, columns, "recs"),
        )
    # Per-entity arrays in any order, some entities with no records, ids
    # possibly named twice.
    ids = data.draw(st.lists(st.sampled_from(NAMES), max_size=7))
    per_entity = {
        entity: tuple(
            np.array([row[k] for row in rows if row[0] == entity]) for k in (1, 2, 3)
        )
        for entity in NAMES
    }
    return (
        LocationDataset.from_arrays(ids, per_entity, "arrs"),
        TraceDataset.from_arrays(ids, per_entity, "arrs"),
    )


def _step(data, dataset, reference, rngs):
    """One transformation, drawn, applied to both."""
    op = data.draw(
        st.sampled_from(["subset", "filter", "sample", "jitter", "rename", "renamed"])
    )
    entities = reference.entities
    if op == "subset":
        chosen = data.draw(st.lists(st.sampled_from(entities), max_size=6)) if entities else []
        name = data.draw(st.sampled_from([None, "sub"]))
        return dataset.subset(chosen, name), reference.subset(chosen, name)
    if op == "filter":
        k = data.draw(st.integers(-1, 3))
        return dataset.filter_min_records(k), reference.filter_min_records(k)
    if op == "sample":
        p = data.draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]))
        return dataset.sample_records(p, rngs[0]), reference.sample_records(p, rngs[1])
    if op == "jitter":
        sigma = data.draw(st.sampled_from([0.0, 0.5, 3.0, 1e5]))
        return (
            dataset.jitter_timestamps(sigma, rngs[0]),
            reference.jitter_timestamps(sigma, rngs[1]),
        )
    if op == "rename":
        targets = data.draw(st.permutations([f"x{k}" for k in range(len(NAMES))]))
        mapping = dict(zip(entities, targets))
        name = data.draw(st.sampled_from([None, "anon"]))
        return dataset.rename_entities(mapping, name), reference.rename_entities(mapping, name)
    return dataset.renamed("again"), reference.renamed("again")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_constructors_and_transformations_match_the_per_entity_dataset(rows, seed, data):
    dataset, reference = _sources(rows, data)
    assert_same(dataset, reference)
    rngs = (np.random.default_rng(seed), np.random.default_rng(seed))
    for _ in range(data.draw(st.integers(0, 4))):
        dataset, reference = _step(data, dataset, reference, rngs)
        assert_same(dataset, reference)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


BAD_TIMES = st.sampled_from([float("nan"), float("inf"), -float("inf")])
BAD_LATS = st.sampled_from([float("nan"), 90.5, -91.0, float("inf")])
BAD_LNGS = st.sampled_from([float("nan"), 180.5, -200.0])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(NAMES),
            TIMES | BAD_TIMES,
            LATS | BAD_LATS,
            LNGS | BAD_LNGS,
        ),
        max_size=10,
    ),
    data=st.data(),
)
def test_bad_inputs_raise_what_the_per_entity_dataset_raised(rows, data):
    entities = [row[0] for row in rows]
    columns = [[row[k] for row in rows] for k in (1, 2, 3)]
    assert outcome(lambda: LocationDataset.from_columns(entities, columns).entities) == (
        outcome(lambda: TraceDataset.from_columns(entities, columns).entities)
    )
    per_entity = {
        entity: tuple(
            np.array([row[k] for row in rows if row[0] == entity]) for k in (1, 2, 3)
        )
        for entity in NAMES
    }
    # A ragged entity anywhere in the order.
    ragged = data.draw(st.sampled_from([None, *NAMES]))
    if ragged is not None:
        per_entity[ragged] = per_entity[ragged][:2] + (np.zeros(1 + len(rows)),)
    ids = data.draw(st.permutations(NAMES))
    assert outcome(lambda: LocationDataset.from_arrays(ids, per_entity).entities) == (
        outcome(lambda: TraceDataset.from_arrays(ids, per_entity).entities)
    )
    # Column lengths that differ.
    short = [columns[0], columns[1][:-1], columns[2]]
    assert outcome(lambda: LocationDataset.from_columns(entities, short))[0] == (
        outcome(lambda: TraceDataset.from_columns(entities, short))[0]
    )


def test_an_empty_dataset_raises_the_named_error():
    for empty, reference in [
        (LocationDataset.from_records([], "void"), TraceDataset("void", {})),
        (
            LocationDataset.from_arrays(["e"], {"e": ([], [], [])}, "void"),
            TraceDataset.from_arrays(["e"], {"e": ([], [], [])}, "void"),
        ),
    ]:
        assert_same(empty, reference)
        assert outcome(empty.time_range) == ("ValueError", "dataset 'void' is empty")


def test_chunked_draws_equal_one_draw_over_the_concatenation():
    """What lets ``sample_records`` and ``jitter_timestamps`` draw once for
    a whole dataset: chunked ``random`` / ``normal`` calls give the same
    values, and leave the same generator state, as one call."""
    sizes = [3, 0, 7, 1, 0, 12]
    for draw in (
        lambda rng, n: rng.random(n),
        lambda rng, n: rng.normal(0.0, 2.5, n),
    ):
        one, chunked = np.random.default_rng(5), np.random.default_rng(5)
        whole = draw(one, sum(sizes))
        parts = np.concatenate([draw(chunked, n) for n in sizes])
        assert whole.tobytes() == parts.tobytes()
        assert one.bit_generator.state == chunked.bit_generator.state
