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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from random import Random

from . import defaults
from .config import (
    CELL, INTEGER, LANGUAGE, NUMBER, VERSION, WINDOW, check_document, mapping, read_document, table,
)
from .corpus import (
    CitationLink,
    Corpus,
    PublicationRecord,
    PubType,
    RecalError,
    ResearcherProfile,
    YearWindow,
    build_corpus,
    collector_paused,
)


class SynthError(RecalError):
    pass


#: The largest value the generator takes for each target that drives its work or its numbers, and for a
#: discipline's total work: its author slots and its citations, the products named. Each is past the shipped spec
#: at 16x, and a discipline at one of them, its other targets as shipped, generates in seconds.
SYNTH_LIMITS = {"researcher_count": 100_000, "pub_count": 100_000, "mean_coauthors_multi": 100, "citation_rate": 100,
                "if_mean": 100, "pub_count * mean_coauthors_multi": 1_000_000, "pub_count * citation_rate": 1_000_000}


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
        targets = {field.name: getattr(self, field.name) for field in fields(self)[1:]}
        check_document(targets, SPEC_SCHEMA.fields["disciplines"].item, SynthError, self.discipline)
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
        for name, limit in SYNTH_LIMITS.items():
            if (value := math.prod(getattr(self, target) for target in name.split(" * "))) > limit:
                raise SynthError(f"{self.discipline}: {name} is {value}, above the limit of {limit}")


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    params: tuple[SynthDisciplineParams, ...]
    pub_window: YearWindow
    citation_window: YearWindow
    domestic_language: str = "hu"

    def __post_init__(self) -> None:
        if not self.params:
            raise SynthError("no disciplines: a spec needs at least one")
        check_document(self.seed, INTEGER, SynthError, "seed")
        if not 0 <= self.seed < 2**64:
            raise SynthError("seed must fit in 64 unsigned bits")
        seen = set()
        for params in self.params:  # a repeat would generate a second researcher under each id
            if params.discipline in seen:
                raise SynthError(f"{params.discipline}: listed twice; a spec has one set of targets per discipline")
            seen.add(params.discipline)


# --------------------------------------------------------------------------
# Samplers built on rng.random() only, for cross-version reproducibility.
# generate_corpus draws the rest inline: one draw is one rng.random() call.

def _author_count_plan(rng: Random, multi_count: int, mean: float) -> list[int]:
    """Author counts in {2, 3, ...} of the multi-authored publications:
    shifted geometric draws with the given mean, repaired by single steps
    until they sum to the rounded target, pinning the realized mean."""
    if multi_count == 0:
        return []
    random = rng.random
    if mean <= 2.0:
        counts = [2] * multi_count
    else:
        log_q = math.log(1.0 - 1.0 / (mean - 1.0))  # 1.0 / (mean - 1.0) is the success probability
        counts = [2 + int(math.log(1.0 - random()) / log_q) for _ in range(multi_count)]
    target = max(round(mean * multi_count), 2 * multi_count)
    total = sum(counts)
    while total > target:
        i = int(random() * multi_count)
        if counts[i] > 2:
            counts[i] -= 1
            total -= 1
    while total < target:
        i = int(random() * multi_count)
        counts[i] += 1
        total += 1
    return counts


_NON_WOS_TYPES = (  # a non-WoS publication's type, by the ceiling its draw is below
    (0.30, PubType.JOURNAL_ARTICLE),
    (0.40, PubType.BOOK_CHAPTER),
    (0.65, PubType.CONFERENCE_PAPER),
    (0.75, PubType.BOOK),
    (0.78, PubType.MAP),
    (1.01, PubType.OTHER),
)


# --------------------------------------------------------------------------

@collector_paused()
def generate_corpus(spec: SynthSpec) -> Corpus:
    """Generate a valid corpus; a pure function of (seed, spec).

    Each draw is one ``random()`` call with its sampler's formula inline: a
    Bernoulli(p) draw is ``random() < p``, and a uniform index below ``n`` is
    ``int(random() * n)``: ``random()`` is at most ``1 - 2**-53``, and that
    times a positive integer ``n`` never rounds up to ``n``."""
    rng = Random(spec.seed)
    random = rng.random
    new = tuple.__new__  # builds a record in C; the named tuple's own __new__ is a Python call
    researchers: list[ResearcherProfile] = []
    publications: list[PublicationRecord] = []
    citations: list[CitationLink] = []
    language = spec.domestic_language
    pub_start = spec.pub_window.start
    pub_span = spec.pub_window.end - pub_start + 1
    degree_start = pub_start - 12
    degree_span = spec.pub_window.end - degree_start + 1
    citing_start = spec.citation_window.start
    citing_span = spec.citation_window.end - citing_start + 1

    for params in spec.params:
        d = params.discipline
        ids = [f"{d}:r{i:03d}" for i in range(params.researcher_count)]
        for rid in ids:
            researchers.append(new(ResearcherProfile, (
                rid, d, random() < 0.25,
                degree_start + int(random() * degree_span),
            )))

        multi_count = min(params.pub_count, round(params.pub_count * params.multi_ratio_target / 100.0))
        author_plan = _author_count_plan(rng, multi_count, params.mean_coauthors_multi)
        id_count = len(ids)
        wos_ratio = params.wos_article_ratio
        domestic_ratio = params.domestic_language_ratio
        if_mean = params.if_mean
        citation_rate = params.citation_rate
        no_more_citations = math.exp(-citation_rate)
        external_serial = 0
        citing_serial = 0

        for i in range(params.pub_count):
            first = ids[int(random() * id_count)]
            if i < multi_count:
                authors = [first]
                taken = {first}  # corpus researchers only: external ids are fresh by construction
                for _ in range(author_plan[i] - 1):
                    picked = None
                    if random() < 0.5 and len(taken) < id_count:
                        for _attempt in range(4):
                            candidate = ids[int(random() * id_count)]
                            if candidate not in taken:
                                picked = candidate
                                taken.add(picked)
                                break
                    if picked is None:
                        picked = f"{d}:x{external_serial:05d}"
                        external_serial += 1
                    authors.append(picked)
                author_ids = tuple(authors)
            else:
                author_ids = (first,)

            wos_article = random() < wos_ratio
            if wos_article:
                pub_type = PubType.JOURNAL_ARTICLE
                # an exponential draw with mean if_mean, by inversion; no draw when the mean is not positive
                impact_factor = 0.0 if if_mean <= 0 else round(-if_mean * math.log(1.0 - random()), 3)
            else:
                u = random()
                for ceiling, pub_type in _NON_WOS_TYPES:
                    if u < ceiling:
                        break
                impact_factor = None
            pub_id = f"{d}:p{i:05d}"
            publications.append(new(PublicationRecord, (
                pub_id,
                pub_start + int(random() * pub_span),
                pub_type,
                language if random() < domestic_ratio else "en",
                wos_article,
                wos_article and random() < 0.85,
                impact_factor,
                author_ids,
                d,
            )))

            if citation_rate <= 0:  # a Poisson draw of mean 0 draws nothing
                continue
            count, product = 0, random()  # the Poisson draw: multiply uniforms while above exp(-citation_rate)
            while product > no_more_citations:
                count += 1
                product *= random()
            for _ in range(count):
                citing_count = 1 + int(random() * 3)  # 1 to 3 citing authors
                citing = tuple([f"{d}:c{serial:06d}" for serial in range(citing_serial, citing_serial + citing_count)])
                citing_serial += citing_count
                citations.append(new(CitationLink, (
                    f"{d}:cit{citing_serial:06d}",
                    pub_id,
                    citing_start + int(random() * citing_span),
                    citing,
                    random() < wos_ratio,
                )))

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

SPEC_SCHEMA = table(
    {
        "schema_version": VERSION,
        "seed": INTEGER,
        "pub_window": WINDOW,
        "citation_window": WINDOW,
        "disciplines": mapping(table(  # each SynthDisciplineParams field after the discipline, which is the key
            {field.name: INTEGER if field.type == "int" else NUMBER for field in fields(SynthDisciplineParams)[1:]}, {},
        ), key=CELL),
    },
    {"domestic_language": LANGUAGE},
)


def _spec(doc: dict) -> SynthSpec:
    disciplines = doc.pop("disciplines")
    return SynthSpec(params=tuple(SynthDisciplineParams(key, **targets) for key, targets in disciplines.items()), **doc)


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read a generator spec from a JSON document; any defect in it raises
    ``SynthError`` naming the file."""
    return read_document(path, SPEC_SCHEMA, SynthError, "generator spec", _spec)


def save_synth_spec(spec: SynthSpec, path: str | Path) -> None:
    """Write the spec as a JSON document. One that ``load_synth_spec`` would
    refuse raises ``SynthError`` naming the key path before the file is
    opened."""
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
    check_document(doc, SPEC_SCHEMA, SynthError, f"{path}: bad generator spec")
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
