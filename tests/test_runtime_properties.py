"""Property tests of two runtime layers: ``LruCache`` and ``RunLedger.merge``.

The example tests in ``tests/test_runtime.py`` pin single behaviours; these
drive arbitrary sequences.  An ``LruCache`` must hold, after every
operation, exactly what a plain ``OrderedDict`` model holds, in the same
recency order, with its byte count, both bounds and its hit, miss and
eviction counters agreeing.  ``RunLedger.merge`` must be associative, have
the empty ledger as its identity and leave its argument untouched.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RunLedger
from repro.runtime.cache import LruCache

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

KEYS = tuple(range(4))
_KEEP = "keep"

entry_bounds = st.one_of(st.none(), st.integers(1, 5))
byte_bounds = st.one_of(st.none(), st.integers(1, 120))

#: One cache operation, puts and gets twice as likely as the rest.  A put
#: value is ``bytes`` of a drawn length, which ``default_sizeof`` sizes at
#: its length; ``nbytes`` overrides that size and reaches past every byte
#: bound, so oversized puts occur.  Four keys and 20-80 operations per
#: script make hits, refreshes and evictions common.
puts = st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 48),
                st.one_of(st.none(), st.integers(0, 160)))
gets = st.tuples(st.just("get"), st.sampled_from(KEYS))
operations = st.one_of(
    puts, gets, puts, gets,
    st.tuples(st.just("discard"), st.sampled_from(KEYS)),
    st.tuples(st.just("set_bounds"),
              st.one_of(st.just(_KEEP), entry_bounds),
              st.one_of(st.just(_KEEP), byte_bounds)),
    st.tuples(st.sampled_from(("disable", "enable", "clear"))),
)


class LruModel:
    """What an entry- and byte-bounded LRU holds, oldest entry first."""

    def __init__(self, max_entries, max_bytes):
        self.entries = OrderedDict()        # key -> (value, size)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.enabled = True
        self.hits = self.misses = self.evictions = 0

    @property
    def nbytes(self):
        return sum(size for _, size in self.entries.values())

    def _shrink(self):
        while ((self.max_entries is not None
                and len(self.entries) > self.max_entries)
               or (self.max_bytes is not None and self.nbytes > self.max_bytes)):
            self.entries.popitem(last=False)
            self.evictions += 1

    def put(self, key, value, size):
        if not self.enabled:
            return
        self.entries.pop(key, None)
        if self.max_bytes is not None and size > self.max_bytes:
            self.evictions += 1     # refused, and the stale entry dropped
            return
        self.entries[key] = (value, size)
        self._shrink()

    def get(self, key):
        if not self.enabled:
            return None
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key][0]

    def set_bounds(self, max_entries, max_bytes):
        if max_entries != _KEEP:
            self.max_entries = max_entries
        if max_bytes != _KEEP:
            self.max_bytes = max_bytes
        self._shrink()

    def clear(self):
        self.entries.clear()
        self.hits = self.misses = self.evictions = 0


def _apply(cache, model, operation):
    kind = operation[0]
    if kind == "put":
        _, key, length, nbytes = operation
        value = bytes(length)
        cache.put(key, value, nbytes=nbytes)
        model.put(key, value, length if nbytes is None else nbytes)
    elif kind == "get":
        assert cache.get(operation[1]) == model.get(operation[1])
    elif kind == "discard":
        cache.discard(operation[1])
        model.entries.pop(operation[1], None)
    elif kind == "set_bounds":
        _, max_entries, max_bytes = operation
        bounds = {name: value for name, value in (("max_entries", max_entries),
                                                  ("max_bytes", max_bytes))
                  if value != _KEEP}
        cache.set_bounds(**bounds)
        model.set_bounds(max_entries, max_bytes)
    elif kind == "disable":
        cache.disable()
        model.enabled = False
    elif kind == "enable":
        cache.enable()
        model.enabled = True
    else:
        cache.clear()
        model.clear()


def _check(cache, model):
    # Contents, sizes and recency order (the cache's private OrderedDict
    # is the only view of its order that does not itself touch recency).
    assert list(cache._entries.items()) == list(model.entries.items())
    stats = cache.stats()
    assert stats.current_bytes == model.nbytes
    assert (stats.hits, stats.misses, stats.evictions) == (
        model.hits, model.misses, model.evictions)
    assert (stats.max_entries, stats.max_bytes) == (
        model.max_entries, model.max_bytes)
    if stats.max_entries is not None:
        assert stats.entries <= stats.max_entries
    if stats.max_bytes is not None:
        assert stats.current_bytes <= stats.max_bytes
    for key in KEYS:
        assert (key in cache) == (model.enabled and key in model.entries)


@PROPERTY
@given(max_entries=entry_bounds, max_bytes=byte_bounds,
       script=st.lists(operations, min_size=20, max_size=80))
def test_lru_cache_matches_an_ordered_dict_model(max_entries, max_bytes,
                                                 script):
    cache = LruCache("property_lru", max_entries=max_entries,
                     max_bytes=max_bytes)
    model = LruModel(max_entries, max_bytes)
    for operation in script:
        _apply(cache, model, operation)
        _check(cache, model)


# ----------------------------------------------------------------------
# RunLedger.merge
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c")
counts = st.integers(0, 1000)

#: One recording call on a ledger.
records = st.one_of(
    st.tuples(st.just("add_simulations"), counts, st.sampled_from(NAMES)),
    st.tuples(st.just("add_stage_time"), st.sampled_from(NAMES),
              st.floats(0.0, 10.0), st.integers(0, 5)),
    st.tuples(st.just("add_metric"), st.sampled_from(NAMES),
              st.integers(-1000, 1000)),
    st.tuples(st.just("add_group_sizes"), st.sampled_from(NAMES),
              st.lists(counts, max_size=4)),
    st.tuples(st.just("add_cache_activity"), st.sampled_from(NAMES),
              counts, counts, counts),
    st.tuples(st.just("add_failure"),
              st.fixed_dictionaries({
                  "unit": st.sampled_from(NAMES),
                  "stage": st.sampled_from(("simulate", "extract")),
                  "error": st.text(max_size=8),
                  "error_type": st.sampled_from(("", "ValueError")),
                  "attempts": st.integers(1, 3)})),
    st.tuples(st.just("set_gauge"), st.sampled_from(NAMES),
              st.floats(-1e6, 1e6)),
)
recipes = st.lists(records, max_size=12)


def _ledger(recipe):
    ledger = RunLedger()
    for method, *arguments in recipe:
        getattr(ledger, method)(*arguments)
    return ledger


def _assert_same(left, right):
    """Equal ledgers; stage seconds to a relative 1e-12, because float
    addition is not associative."""
    left, right = left.as_dict(), right.as_dict()
    left_stages, right_stages = left.pop("stages"), right.pop("stages")
    assert left == right
    assert left_stages.keys() == right_stages.keys()
    for name, stage in left_stages.items():
        other = right_stages[name]
        assert stage["calls"] == other["calls"]
        assert math.isclose(stage["wall_s"], other["wall_s"], rel_tol=1e-12)


@PROPERTY
@given(a=recipes, b=recipes, c=recipes)
def test_ledger_merge_is_associative(a, b, c):
    grouped_left = _ledger(a).merge(_ledger(b)).merge(_ledger(c))
    grouped_right = _ledger(a).merge(_ledger(b).merge(_ledger(c)))
    _assert_same(grouped_left, grouped_right)


@PROPERTY
@given(a=recipes)
def test_empty_ledger_is_the_merge_identity(a):
    _assert_same(RunLedger().merge(_ledger(a)), _ledger(a))
    _assert_same(_ledger(a).merge(RunLedger()), _ledger(a))


@PROPERTY
@given(a=recipes, b=recipes, later=recipes)
def test_merge_leaves_its_argument_untouched(a, b, later):
    target, argument = _ledger(a), _ledger(b)
    target.merge(argument)
    # Recording into the merged ledger must not reach the argument through
    # a shared list or dict either.
    for method, *arguments in later:
        getattr(target, method)(*arguments)
    assert argument.as_dict() == _ledger(b).as_dict()
