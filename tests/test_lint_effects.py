"""RNG key-namespace skeletons and the RNG002 collision check.

String skeletons (:func:`repro.lint.project._str_skeleton`) are how the
RNG-lineage rules name a keyed draw's namespace; ``_patterns_collide``
decides whether two namespaces can produce the same key.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.project import _str_skeleton
from repro.lint.rng_lineage import _patterns_collide


# ---------------------------------------------------------------------------
# key-namespace skeletons and collision
# ---------------------------------------------------------------------------
def _skel(source):
    return _str_skeleton(ast.parse(source, mode="eval").body)


def test_skeleton_of_percent_format():
    assert _skel('"cache/tier/%s" % label') == ["cache/tier/*", ["label"]]


def test_skeleton_of_fstring_records_hole_tokens():
    skel, tokens = _skel('f"run/{shard.index}#{n}"')
    assert skel == "run/*#*"
    assert set(tokens) == {"shard", "index", "n"}


def test_skeleton_of_fully_dynamic_expr_is_none():
    assert _skel("name") is None


@pytest.mark.parametrize("a,b,expected", [
    ("pool/*", "pool/stream/*", True),   # star swallows the subspace
    ("pool/*", "pool/stream/x", True),
    ("lane#*", "seq/run#*", False),      # literal prefixes differ
    ("a#*", "a#*", True),
    ("tier/*", "stream/*", False),
    ("*", "#", False),                   # a hole never contains '#'
])
def test_patterns_collide(a, b, expected):
    assert _patterns_collide(a, b) is expected
    assert _patterns_collide(b, a) is expected


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab/#*", min_size=1, max_size=10))
def test_pattern_collision_is_reflexive_without_hash_holes(pattern):
    # '*' matches itself (both expand to the same literal choice), so
    # any skeleton collides with itself.
    assert _patterns_collide(pattern, pattern)
