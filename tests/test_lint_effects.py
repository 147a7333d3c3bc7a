"""simflow effect inference: lattice laws, skeletons, and the
replication-parity acceptance criteria on the real source tree.

The acceptance tests lint a copy of ``src/repro`` so they can delete a
single replication line from the session executor's ``materialize`` and
watch EFF001 name the orphaned signature.
"""

import ast
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import LintConfig, LintRunner
from repro.lint.effectflow import join
from repro.lint.project import _str_skeleton
from repro.lint.rng_lineage import _patterns_collide

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")
EXECUTOR_REL = os.path.join("sim", "executor.py")


# ---------------------------------------------------------------------------
# join lattice laws
# ---------------------------------------------------------------------------
_effects = st.builds(
    lambda kind, sig, detail: (kind, sig, detail),
    st.sampled_from(["log", "call", "port", "metric", "cache", "rng"]),
    st.text(alphabet="abc_[]#*/", min_size=1, max_size=8),
    st.sampled_from(["", "sim", "host", "keyed", "shared"]),
)
_summaries = st.frozensets(_effects, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_summaries, _summaries, _summaries)
def test_join_is_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@settings(max_examples=200, deadline=None)
@given(_summaries, _summaries)
def test_join_is_commutative(a, b):
    assert join(a, b) == join(b, a)


@settings(max_examples=200, deadline=None)
@given(_summaries)
def test_join_is_idempotent(a):
    assert join(a, a) == frozenset(a)


@settings(max_examples=200, deadline=None)
@given(_summaries, _summaries)
def test_join_is_monotone(a, b):
    merged = join(a, b)
    assert frozenset(a) <= merged and frozenset(b) <= merged


def test_join_of_nothing_is_bottom():
    assert join() == frozenset()


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


# ---------------------------------------------------------------------------
# acceptance: parity on the real tree
# ---------------------------------------------------------------------------
def _lint(paths):
    runner = LintRunner(LintConfig())
    findings = runner.run_paths(paths)
    return [f for f in findings if not f.suppressed]


def test_real_tree_is_parity_clean():
    assert _lint([SRC_TREE]) == []


def test_deleting_a_replication_line_trips_eff001(tmp_path):
    tree = str(tmp_path / "repro")
    shutil.copytree(SRC_TREE, tree)
    executor = os.path.join(tree, EXECUTOR_REL)
    with open(executor) as fh:
        text = fh.read()
    materialize = text.index("    def materialize(")
    needle = "service.register_keywords([keyword])"
    assert text.index(needle, materialize) > materialize
    with open(executor, "w") as fh:
        fh.write(text.replace(needle, "pass"))

    findings = _lint([tree])
    eff001 = [f for f in findings if f.rule == "EFF001"]
    assert eff001, "EFF001 must fire when a replication is deleted"
    assert any("register_keywords" in f.message for f in eff001)
    assert all("SessionExecutor.materialize" in f.message for f in eff001)
