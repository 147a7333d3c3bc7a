"""Synthetic search-result pages.

Search responses are modelled exactly as the paper dissects them
(Section 3): a **static portion** — HTTP/HTML header, CSS, and the static
menu bar ("Videos", "News", "Shopping", ...) — that is byte-identical for
every query against a given service, and a **dynamic portion** — the
keyword-dependent menu, result list and ads — generated per query.

The generator emits *actual bytes* so the analysis pipeline can discover
the static/dynamic boundary the same way the paper did: by diffing
response bodies across different keywords, with no access to ground
truth.  Content is fully deterministic given (service, keyword).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.content import words
from repro.content.keywords import Keyword
from repro.sim.randomness import derive_seed
import random


@dataclass(frozen=True)
class PageProfile:
    """Size model of a service's result pages.

    Sizes in bytes.  Defaults approximate a 2011 search result page:
    ~10-15 kB of static boilerplate, ~20-60 kB total.
    """

    static_size: int = 12_000
    dynamic_base_size: int = 24_000
    dynamic_complexity_size: int = 14_000

    def __post_init__(self):
        if self.static_size < 512:
            raise ValueError("static portion unrealistically small")
        if self.dynamic_base_size < 1024:
            raise ValueError("dynamic base size unrealistically small")

    def dynamic_size(self, keyword: Keyword) -> int:
        """Target dynamic-portion size for a keyword.

        More complex queries return longer (deeper) result sets; very
        popular queries carry more ads but the effect is mild — the
        paper notes result sizes are broadly similar across queries.
        """
        size = self.dynamic_base_size
        size += int(self.dynamic_complexity_size * keyword.complexity)
        size += int(2000 * keyword.popularity)
        return size


#: Ads at the top of every dynamic portion.
ADS_PER_PAGE = 3

#: Dynamic pages a generator keeps built.  A campaign cycles through a
#: few keywords per service (Figure 3's set has four), so a small memo
#: serves nearly every query while bounding memory at ~40 kB a page.
PAGE_MEMO_LIMIT = 128


class PageGenerator:
    """Deterministic page builder for one simulated search service."""

    def __init__(self, service_name: str, profile: PageProfile = None,
                 seed: int = 0):
        self.service_name = service_name
        self.profile = profile or PageProfile()
        self.seed = seed
        self._static_cache: bytes = b""
        #: (seed, service, profile, keyword text, size) -> dynamic page,
        #: oldest first.
        self._pages: Dict[Tuple, bytes] = {}

    # ------------------------------------------------------------------
    # static portion
    # ------------------------------------------------------------------
    def static_content(self) -> bytes:
        """The cached-at-FE static prefix (identical for all queries)."""
        if not self._static_cache:
            self._static_cache = self._build_static()
        return self._static_cache

    def _build_static(self) -> bytes:
        menu = "".join('<li class="nav">%s</li>' % item
                       for item in words.STATIC_MENU_ITEMS)
        head = (
            "<!DOCTYPE html>\n"
            '<html><head><meta charset="utf-8">\n'
            "<title>%s search</title>\n" % self.service_name
        )
        banner = ('</head><body><div class="menubar"><ul>%s</ul></div>\n'
                  % menu)
        css_rng = random.Random(derive_seed(self.seed,
                                            "css/" + self.service_name))
        css_rules = []
        css_length = 0  # running total of len(rule) over css_rules
        selectors = ["body", ".result", ".ad", ".nav", "#logo", "#footer",
                     "h1", "h2", "a", "p", ".snippet", ".menubar"]
        properties = ["margin", "padding", "border", "color", "font-size",
                      "line-height", "width", "height", "background"]
        css_budget = (self.profile.static_size - len(head) - len(banner)
                      - len("<style></style>\n"))
        while css_length < css_budget:
            selector = css_rng.choice(selectors)
            body = ";".join("%s:%dpx" % (css_rng.choice(properties),
                                         css_rng.randrange(100))
                            for _ in range(6))
            rule = "%s{%s}" % (selector, body)
            css_rules.append(rule)
            css_length += len(rule)
        if css_rules and css_length > css_budget:
            css_rules.pop()  # keep head+css+banner within the target
        css = "<style>%s</style>\n" % "".join(css_rules)
        page = (head + css + banner).encode("utf-8")
        return self._fit(page, self.profile.static_size,
                         filler_tag=b"<!-- static-pad -->")

    # ------------------------------------------------------------------
    # dynamic portion
    # ------------------------------------------------------------------
    def dynamic_content(self, keyword: Keyword) -> bytes:
        """The per-query dynamic suffix (results, ads, dynamic menu).

        The bytes depend only on the seed, service, profile, keyword
        text and target size, so each page is built once and then served
        from a memo of at most :data:`PAGE_MEMO_LIMIT` pages, oldest
        evicted first.
        """
        target = self.profile.dynamic_size(keyword)
        key = (self.seed, self.service_name, self.profile, keyword.text,
               target)
        page = self._pages.get(key)
        if page is None:
            if len(self._pages) >= PAGE_MEMO_LIMIT:
                del self._pages[next(iter(self._pages))]
            page = self._pages[key] = self._build_dynamic(keyword, target)
        return page

    def _build_dynamic(self, keyword: Keyword, target: int) -> bytes:
        rng = random.Random(derive_seed(
            self.seed, "dyn/%s/%s" % (self.service_name, keyword.text)))
        parts: List[str] = []
        parts.append('<div class="dynmenu">%s</div>\n' % "".join(
            "<span>%s: %s</span>" % (item, keyword.text)
            for item in words.DYNAMIC_MENU_ITEMS[:4]))
        for i in range(ADS_PER_PAGE):
            parts.append(self._ad(rng, keyword, i))
        length = sum(len(p) for p in parts)
        result_count = 0
        while length < target - 400:
            result = self._result(rng, keyword, result_count)
            parts.append(result)
            length += len(result)
            result_count += 1
        parts.append("<div id=\"footer\">%s results generated</div>"
                     "</body></html>" % result_count)
        page = "".join(parts).encode("utf-8")
        return self._fit(page, target, filler_tag=b"<!-- dyn-pad -->")

    def _result(self, rng: random.Random, keyword: Keyword,
                index: int) -> str:
        snippet = " ".join(rng.choice(words.SNIPPET_WORDS)
                           for _ in range(30))
        return ('<div class="result"><h2><a href="http://site%d.example/'
                '%s">%s — result %d</a></h2>'
                '<p class="snippet">%s</p></div>\n'
                % (rng.randrange(10_000),
                   keyword.text.replace(" ", "-"), keyword.text,
                   index + 1, snippet))

    def _ad(self, rng: random.Random, keyword: Keyword, index: int) -> str:
        copy = " ".join(rng.choice(words.SNIPPET_WORDS) for _ in range(12))
        return ('<div class="ad">Ad %d: %s — %s</div>\n'
                % (index + 1, keyword.text, copy))

    # ------------------------------------------------------------------

    @staticmethod
    def _fit(page: bytes, target: int, filler_tag: bytes) -> bytes:
        """Pad (with comment filler) or trim ``page`` to ``target`` bytes."""
        if len(page) < target:
            filler = filler_tag * (1 + (target - len(page))
                                   // len(filler_tag))
            page += filler[:target - len(page)]
        elif len(page) > target:
            page = page[:target]
        return page
