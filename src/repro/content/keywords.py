"""Search keyword model.

The paper classifies queries along three axes (Section 3):

* **popularity** — trending keywords (shown in the search box's
  suggestion list) versus obscure ones;
* **granularity** — progressively refined phrases, e.g. "Computer
  Science Department" -> "Computer Science Department at University of
  Minnesota";
* **complexity** — long queries mixing uncorrelated terms, e.g.
  "computer and potato".

:class:`Keyword` carries those attributes; :class:`KeywordCatalog`
deterministically generates keyword sets per class, including the large
40,000-keyword pool used for the FE-caching experiments and the
suggestion-box subset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.content import words
from repro.sim.randomness import RandomStreams


class KeywordClass(enum.Enum):
    """The four keyword types exercised in the paper's Figure 3."""

    POPULAR = "popular"
    REFINED = "refined"
    COMPLEX = "complex"
    MIXED = "mixed"


@dataclass(frozen=True)
class Keyword:
    """A search query with the attributes that drive back-end cost.

    Attributes
    ----------
    text:
        The query string as typed by a user.
    popularity:
        In [0, 1]; higher means more users issue it (and back-end result
        caches are hotter, reducing processing time).
    complexity:
        In [0, 1]; higher means more posting lists to intersect and
        uncorrelated terms to join (raising processing time).
    granularity:
        Refinement depth: 1 for a bare topic, increasing as qualifying
        words are appended.
    suggested:
        Whether the keyword appears in the search box suggestion list.
    """

    text: str
    popularity: float
    complexity: float
    granularity: int = 1
    suggested: bool = False

    def __post_init__(self):
        if not self.text:
            raise ValueError("keyword text must be non-empty")
        if not 0.0 <= self.popularity <= 1.0:
            raise ValueError("popularity must be in [0,1]")
        if not 0.0 <= self.complexity <= 1.0:
            raise ValueError("complexity must be in [0,1]")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")

    @property
    def word_count(self) -> int:
        return len(self.text.split())


class KeywordCatalog:
    """Deterministic generator of keyword sets.

    All draws derive from a :class:`RandomStreams` registry so two
    catalogs built with the same seed produce identical keyword sets.
    """

    def __init__(self, seed: int = 0):
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    # the four Figure-3 classes
    # ------------------------------------------------------------------
    def popular(self, count: int) -> List[Keyword]:
        """Trending single-topic keywords (suggestion-box material)."""
        rng = self.streams.get("popular")
        out = []
        for i in range(count):
            topic = words.POPULAR_TOPICS[i % len(words.POPULAR_TOPICS)]
            suffix = "" if i < len(words.POPULAR_TOPICS) else " %d" % (
                i // len(words.POPULAR_TOPICS))
            out.append(Keyword(text=topic + suffix,
                               popularity=rng.uniform(0.8, 1.0),
                               complexity=rng.uniform(0.0, 0.15),
                               granularity=1, suggested=True))
        return out

    def refined(self, count: int) -> List[Keyword]:
        """Progressively refined phrases of increasing granularity: two
        to five words, cycling."""
        rng = self.streams.get("refined")
        out = []
        for i in range(count):
            base_index = rng.randrange(len(words.TOPIC_NOUNS))
            phrase_words = [words.TOPIC_NOUNS[(base_index + j) %
                                              len(words.TOPIC_NOUNS)]
                            for j in range(2 + (i % 4))]
            granularity = len(phrase_words) - 1
            out.append(Keyword(text=" ".join(phrase_words),
                               popularity=rng.uniform(0.2, 0.5)
                               / granularity,
                               complexity=min(1.0, 0.2 + 0.1 * granularity),
                               granularity=granularity))
        return out

    def complex(self, count: int) -> List[Keyword]:
        """Long queries mixing uncorrelated terms ("computer and potato")."""
        rng = self.streams.get("complex")
        out = []
        for _ in range(count):
            left = rng.choice(words.TOPIC_NOUNS)
            right = rng.choice(words.UNCORRELATED_NOUNS)
            extra = rng.choice(words.UNCORRELATED_NOUNS)
            text = "%s and %s %s" % (left, right, extra)
            out.append(Keyword(text=text,
                               popularity=rng.uniform(0.0, 0.05),
                               complexity=rng.uniform(0.7, 1.0),
                               granularity=1))
        return out

    def mixed(self, count: int) -> List[Keyword]:
        """Mid-popularity, mid-complexity everyday queries."""
        rng = self.streams.get("mixed")
        out = []
        for _ in range(count):
            text = "%s %s" % (rng.choice(words.TOPIC_NOUNS),
                              rng.choice(words.SNIPPET_WORDS))
            out.append(Keyword(text=text,
                               popularity=rng.uniform(0.3, 0.7),
                               complexity=rng.uniform(0.3, 0.6),
                               granularity=1))
        return out

    def figure3_set(self) -> List[Keyword]:
        """One keyword of each class, ordered popular -> complex.

        These are the "key1..key4" of the paper's Figure 3.
        """
        return [self.popular(1)[0], self.mixed(1)[0],
                self.refined(1)[0], self.complex(1)[0]]

    # ------------------------------------------------------------------
    # large pools for the caching experiments (Section 3)
    # ------------------------------------------------------------------
    def bulk_pool(self, count: int = 40_000) -> List[Keyword]:
        """The 40,000-keyword pool: half suggested, half obscure."""
        # Shard-safe despite the shared stream: every worker builds the
        # identical pool from a fresh catalog before any shard-variant
        # work, so the draw order is fixed (the serial-vs-sharded
        # fingerprint tests lock this in).
        rng = self.streams.get("bulk")
        out = []
        for i in range(count):
            suggested = (i / max(1, count)) < 0.5
            noun = words.TOPIC_NOUNS[i % len(words.TOPIC_NOUNS)]
            other = words.UNCORRELATED_NOUNS[i % len(words.UNCORRELATED_NOUNS)]
            text = "%s %s %d" % (noun, other, i)
            out.append(Keyword(
                text=text,
                popularity=rng.uniform(0.6, 1.0) if suggested
                else rng.uniform(0.0, 0.2),
                complexity=rng.uniform(0.2, 0.8),
                suggested=suggested))
        return out
