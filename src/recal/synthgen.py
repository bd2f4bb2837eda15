"""Deterministic synthetic corpora for end-to-end and property testing.

Given per-discipline targets (publication count, multi-authored share, mean
authors per multi-authored publication, WoS share, citation rate), the
generator emits a valid corpus whose realized co-authorship statistics land
on the targets. Identical seed and spec always produce an identical corpus.

Distributional choices are deliberately simple: publication years are uniform
over the window, author counts of multi-authored publications follow a
shifted geometric distribution fitted to the target mean (draws are then
nudged by single steps until the total matches the rounded target exactly, so
small disciplines cannot drift off target), citations are Poisson per
publication, and citing author sets are fresh external ids, which makes every
generated citation independent by construction.

Randomness comes from ``random.Random`` (MT19937) through ``.random()`` only;
that stream is stable across Python versions, unlike the derived helpers.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random

from . import defaults
from .corpus import (
    CitationLink,
    Corpus,
    PublicationRecord,
    PubType,
    ResearcherProfile,
    YearWindow,
    build_corpus,
)


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class SynthDisciplineParams:
    discipline: str
    researcher_count: int
    pub_count: int
    multi_ratio_target: float  # percent of publications with >= 2 authors
    mean_coauthors_multi: float  # mean author count of those publications
    wos_article_ratio: float
    citation_rate: float  # mean independent citations per publication
    if_mean: float
    domestic_language_ratio: float

    def __post_init__(self) -> None:
        if self.researcher_count < 0 or self.pub_count < 0:
            raise SynthError(f"{self.discipline}: counts must be non-negative")
        if self.pub_count > 0 and self.researcher_count == 0:
            raise SynthError(f"{self.discipline}: publications need at least one researcher")
        if not 0.0 <= self.multi_ratio_target <= 100.0:
            raise SynthError(f"{self.discipline}: multi_ratio_target outside [0, 100]")
        if self.mean_coauthors_multi < 2.0:
            raise SynthError(f"{self.discipline}: mean_coauthors_multi must be >= 2")
        for name in ("wos_article_ratio", "domestic_language_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SynthError(f"{self.discipline}: {name} outside [0, 1]")
        if self.citation_rate < 0 or self.if_mean < 0:
            raise SynthError(f"{self.discipline}: rates must be non-negative")


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    params: tuple[SynthDisciplineParams, ...]
    pub_window: YearWindow
    citation_window: YearWindow
    domestic_language: str = "hu"

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise SynthError("seed must fit in 64 unsigned bits")


# --------------------------------------------------------------------------
# Samplers built on rng.random() only, for cross-version reproducibility.

def _uniform_int(rng: Random, lo: int, hi: int) -> int:
    span = hi - lo + 1
    return lo + min(span - 1, int(rng.random() * span))


def _bernoulli(rng: Random, p: float) -> bool:
    return rng.random() < p


def _shifted_geometric(rng: Random, mean: float) -> int:
    """Author count in {2, 3, ...} with the given mean."""
    if mean <= 2.0:
        return 2
    p = 1.0 / (mean - 1.0)
    u = rng.random()
    return 2 + int(math.log(1.0 - u) / math.log(1.0 - p))


def _poisson(rng: Random, lam: float) -> int:
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    k, product = 0, 1.0
    while True:
        product *= rng.random()
        if product <= limit:
            return k
        k += 1


def _exponential(rng: Random, mean: float) -> float:
    if mean <= 0:
        return 0.0
    return -mean * math.log(1.0 - rng.random())


def _author_count_plan(rng: Random, multi_count: int, mean: float) -> list[int]:
    """Geometric draws repaired by single steps until they sum to the rounded
    target, pinning the realized mean."""
    if multi_count == 0:
        return []
    counts = [_shifted_geometric(rng, mean) for _ in range(multi_count)]
    target = max(round(mean * multi_count), 2 * multi_count)
    total = sum(counts)
    while total > target:
        i = _uniform_int(rng, 0, multi_count - 1)
        if counts[i] > 2:
            counts[i] -= 1
            total -= 1
    while total < target:
        i = _uniform_int(rng, 0, multi_count - 1)
        counts[i] += 1
        total += 1
    return counts


_NON_WOS_TYPES = (
    (0.30, PubType.JOURNAL_ARTICLE),
    (0.40, PubType.BOOK_CHAPTER),
    (0.65, PubType.CONFERENCE_PAPER),
    (0.75, PubType.BOOK),
    (0.78, PubType.MAP),
    (1.01, PubType.OTHER),
)


def _non_wos_type(rng: Random) -> PubType:
    u = rng.random()
    for ceiling, pub_type in _NON_WOS_TYPES:
        if u < ceiling:
            return pub_type
    return PubType.OTHER


# --------------------------------------------------------------------------

def generate_corpus(spec: SynthSpec) -> Corpus:
    """Generate a valid corpus; a pure function of (seed, spec)."""
    rng = Random(spec.seed)
    researchers: list[ResearcherProfile] = []
    publications: list[PublicationRecord] = []
    citations: list[CitationLink] = []

    for params in spec.params:
        d = params.discipline
        ids = [f"{d}:r{i:03d}" for i in range(params.researcher_count)]
        for rid in ids:
            researchers.append(
                ResearcherProfile(
                    researcher_id=rid,
                    discipline=d,
                    has_dsc=_bernoulli(rng, 0.25),
                    last_degree_year=_uniform_int(
                        rng, spec.pub_window.start - 12, spec.pub_window.end
                    ),
                )
            )

        multi_count = min(params.pub_count, round(params.pub_count * params.multi_ratio_target / 100.0))
        author_plan = _author_count_plan(rng, multi_count, params.mean_coauthors_multi)
        external_serial = 0
        citing_serial = 0

        for i in range(params.pub_count):
            size = author_plan[i] if i < multi_count else 1
            first = ids[_uniform_int(rng, 0, len(ids) - 1)]
            authors = [first]
            taken = {first}  # corpus researchers only: external ids are fresh by construction
            for _ in range(size - 1):
                picked = None
                if _bernoulli(rng, 0.5) and len(taken) < len(ids):
                    for _attempt in range(4):
                        candidate = ids[_uniform_int(rng, 0, len(ids) - 1)]
                        if candidate not in taken:
                            picked = candidate
                            taken.add(picked)
                            break
                if picked is None:
                    picked = f"{d}:x{external_serial:05d}"
                    external_serial += 1
                authors.append(picked)

            wos_article = _bernoulli(rng, params.wos_article_ratio)
            if wos_article:
                pub_type = PubType.JOURNAL_ARTICLE
                impact_factor = round(_exponential(rng, params.if_mean), 3)
            else:
                pub_type = _non_wos_type(rng)
                impact_factor = None
            pub = PublicationRecord(
                pub_id=f"{d}:p{i:05d}",
                year=_uniform_int(rng, spec.pub_window.start, spec.pub_window.end),
                pub_type=pub_type,
                language=(
                    spec.domestic_language
                    if _bernoulli(rng, params.domestic_language_ratio)
                    else "en"
                ),
                wos_indexed=wos_article,
                scopus_indexed=wos_article and _bernoulli(rng, 0.85),
                impact_factor=impact_factor,
                author_ids=tuple(authors),
                discipline=d,
            )
            publications.append(pub)

            for _ in range(_poisson(rng, params.citation_rate)):
                citing = tuple(
                    f"{d}:c{citing_serial + j:06d}" for j in range(_uniform_int(rng, 1, 3))
                )
                citing_serial += len(citing)
                citations.append(
                    CitationLink(
                        citation_id=f"{d}:cit{citing_serial:06d}",
                        cited_pub_id=pub.pub_id,
                        citing_year=_uniform_int(
                            rng, spec.citation_window.start, spec.citation_window.end
                        ),
                        citing_author_ids=citing,
                        citing_wos_indexed=_bernoulli(rng, params.wos_article_ratio),
                    )
                )

    return build_corpus(
        researchers, publications, citations, disciplines=[p.discipline for p in spec.params]
    )


def default_spec(seed: int = 1) -> SynthSpec:
    """The shipped spec: all nine disciplines at their observed co-authorship
    profile."""
    params = []
    for discipline in defaults.DISCIPLINES:
        pub_count, multi_count, mean = defaults.COAUTHORSHIP_PROFILE[discipline]
        params.append(
            SynthDisciplineParams(
                discipline=discipline,
                researcher_count=defaults.RESEARCHER_COUNTS[discipline],
                pub_count=pub_count,
                multi_ratio_target=multi_count / pub_count * 100.0,
                mean_coauthors_multi=mean,
                wos_article_ratio=defaults.WOS_ARTICLE_RATIOS[discipline],
                citation_rate=defaults.DEFAULT_CITATION_RATE,
                if_mean=defaults.DEFAULT_IF_MEAN,
                domestic_language_ratio=defaults.DOMESTIC_LANGUAGE_RATIOS[discipline],
            )
        )
    return SynthSpec(
        seed=seed,
        params=tuple(params),
        pub_window=defaults.DEFAULT_PUB_WINDOW,
        citation_window=defaults.DEFAULT_CITATION_WINDOW,
        domestic_language=defaults.DEFAULT_DOMESTIC_LANGUAGE,
    )


# --------------------------------------------------------------------------
# Spec file format

def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read a generator spec from a JSON document; any defect in it raises
    ``SynthError`` naming the file."""
    try:
        with Path(path).open(encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            raise SynthError("expected a JSON object with schema_version 1")
        params = tuple(
            SynthDisciplineParams(discipline=discipline, **fields)
            for discipline, fields in doc["disciplines"].items()
        )
        return SynthSpec(
            seed=int(doc["seed"]),
            params=params,
            pub_window=YearWindow(*doc["pub_window"]),
            citation_window=YearWindow(*doc["citation_window"]),
            domestic_language=doc.get("domestic_language", defaults.DEFAULT_DOMESTIC_LANGUAGE),
        )
    except (AttributeError, KeyError, TypeError, ValueError, SynthError) as exc:
        raise SynthError(f"{path}: bad generator spec: {exc}") from exc


def save_synth_spec(spec: SynthSpec, path: str | Path) -> None:
    doc = {
        "schema_version": 1,
        "seed": spec.seed,
        "pub_window": [spec.pub_window.start, spec.pub_window.end],
        "citation_window": [spec.citation_window.start, spec.citation_window.end],
        "domestic_language": spec.domestic_language,
        "disciplines": {
            p.discipline: {name: value for name, value in asdict(p).items() if name != "discipline"}
            for p in spec.params
        },
    }
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
