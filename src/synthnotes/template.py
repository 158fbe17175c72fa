"""Seeded template generator for discharge-style notes, plus the paired
word-pair benchmarks and a small NLI dataset built from the same grammar.

The grammar fills synonym slots (so embeddings trained on the output have
known similar pairs), emits per-note record-number digit sequences (so
leave-one-out audits have note-specific material), mixes cased proper
nouns, all-caps section headers and schedule abbreviations (for the
truecaser), and keeps a long-tail condition pool so unk replacement has
something to do. Everything is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import SimilarityBenchmark, write_benchmark
from .utility import NliExample, write_nli_jsonl

SECTION_HEADERS = ("ADMISSION", "HISTORY", "TREATMENT", "MEDICATIONS", "DISCHARGE")

# synonym slots: members are drawn interchangeably, so trained embeddings
# should place them close together
SYMPTOM_SLOTS = {
    "pain": ("pain", "ache", "discomfort"),
    "fever": ("fever", "pyrexia"),
    "fatigue": ("fatigue", "tiredness", "exhaustion"),
    "nausea": ("nausea", "queasiness"),
    "swelling": ("swelling", "edema"),
    "dizziness": ("dizziness", "vertigo", "lightheadedness"),
}
VERB_SLOTS = {
    "report": ("reported", "described", "noted"),
    "improve": ("improved", "recovered", "stabilized"),
    "find": ("revealed", "showed", "confirmed"),
}
MED_SLOTS = {
    "painkiller": ("Aspirin", "Ibuprofen", "Naproxen"),
    "antibiotic": ("Amoxicillin", "Cefalexin", "Doxycycline"),
    "anticoagulant": ("Warfarin", "Heparin"),
    "statin": ("Atorvastatin", "Simvastatin"),
}

FIRST_NAMES = (
    "James", "Maria", "Robert", "Linda", "Ahmed", "Elena", "Carlos", "Anna",
    "David", "Sophie", "Viktor", "Amara", "Hiroshi", "Fatima", "Peter", "Ingrid",
    "Samuel", "Priya", "Tomas", "Leila", "George", "Hannah", "Omar", "Clara",
)

# surnames are assembled combinatorially and assigned without replacement,
# so each patient surname is unique to its note; it is mentioned three
# times per note, which keeps it above the usual vocabulary threshold while
# leaving the leave-one-out corpus with no occurrence at all
_SURNAME_HEADS = (
    "Kal", "Mend", "Vor", "Bran", "Tor", "Hal", "Sev", "Dren", "Mar", "Quil",
    "Fen", "Gor", "Lan", "Ost", "Pell", "Rud", "Stan", "Tre", "Vint", "Wex",
    "Yar", "Zel", "Bor", "Cran", "Dov", "Elm", "Fair", "Grim", "Hol", "Ives",
    "Jur", "Kem", "Lor", "Mos", "Nor", "Orm", "Pax", "Quin", "Ren", "Sol",
)
_SURNAME_TAILS = (
    "vorson", "rell", "stead", "wick", "bury", "field", "grave", "holm",
    "lund", "mark", "ner", "quist", "ridge", "shaw", "stone", "thorpe",
    "vale", "wood", "by", "combe", "dale", "ford", "gate", "ham",
    "hurst", "ington", "kins", "ley", "more", "nock", "port", "row",
    "sen", "ton", "ville", "worth", "well", "win", "yard", "zer",
)
DOCTOR_NAMES = (
    "Adeyemi", "Brandt", "Castillo", "Dimitrov", "Eriksson", "Fontaine",
    "Gruber", "Hoffmann", "Iversen", "Jensen", "Kaur", "Lombardi",
)
HOSPITALS = (
    ("Mercy", "General", "Hospital"),
    ("Lakeside", "Clinic"),
    ("Saint", "Vincent", "Hospital"),
    ("Riverside", "Medical", "Center"),
    ("Northgate", "Clinic"),
    ("Oakwood", "Community", "Hospital"),
)
COMMON_CONDITIONS = ("hypertension", "diabetes", "asthma", "arthritis", "anemia")
RARE_CONDITIONS = (
    "amyloidosis", "sarcoidosis", "hemochromatosis", "achalasia", "myasthenia",
    "porphyria", "scleroderma", "thalassemia", "leiomyoma", "neurofibromatosis",
    "pericarditis", "spondylitis", "histoplasmosis", "cryoglobulinemia", "dysautonomia",
    "erythromelalgia", "lymphangioma", "mastocytosis", "osteomalacia", "polymyositis",
    "pseudogout", "rhabdomyolysis", "siderosis", "telangiectasia", "uveitis",
    "vasculitis", "xanthomatosis", "glomerulonephritis", "hyperaldosteronism", "chondrocalcinosis",
    "dermatomyositis", "eosinophilia", "fibromatosis", "granulomatosis", "hemosiderosis",
    "keratoconus", "labyrinthitis", "myelofibrosis", "onycholysis", "panniculitis",
)
SITES = ("chest", "abdomen", "knee", "shoulder", "back", "hip")
SEVERITIES = ("mild", "moderate", "severe")
FREQUENCIES = ("daily", "BID", "TID", "PRN")
DOSES = ("10", "20", "40", "50", "81", "100", "250", "500")


def _pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(0, len(pool)))]


def _symptom(rng, slot=None):
    if slot is None:
        slot = _pick(rng, tuple(SYMPTOM_SLOTS))
    return slot, _pick(rng, SYMPTOM_SLOTS[slot])


def _med(rng):
    slot = _pick(rng, tuple(MED_SLOTS))
    return _pick(rng, MED_SLOTS[slot])


def _record_digits(rng) -> str:
    return " ".join(str(int(d)) for d in rng.integers(0, 10, size=5))


def surname_pool() -> tuple[str, ...]:
    return tuple(head + tail for head in _SURNAME_HEADS for tail in _SURNAME_TAILS)


def make_template_note(rng: np.random.Generator, surname: str | None) -> str:
    """One raw note; internal line wraps exercise the line-merge rule.

    Named notes mention the patient surname three times; anonymous notes
    use "the patient" phrasing throughout.
    """
    first = _pick(rng, FIRST_NAMES)
    last = surname
    hospital = " ".join(_pick(rng, HOSPITALS))
    doctor = _pick(rng, DOCTOR_NAMES)
    slot_a, symptom_a = _symptom(rng)
    site = _pick(rng, SITES)
    lines = []

    lines.append("ADMISSION :")
    intro = f"{first} {last}" if last else "The patient"
    lines.append(f"{intro} , record number {_record_digits(rng)} , was admitted")
    lines.append(f"to {hospital} on day {int(rng.integers(1, 29))} .")
    verb = _pick(rng, VERB_SLOTS["report"])
    lines.append(f"The patient {verb} {_pick(rng, SEVERITIES)} {symptom_a} in the {site} .")
    if rng.random() < 0.2:
        _, symptom_b = _symptom(rng)
        find = _pick(rng, VERB_SLOTS["find"])
        lines.append(f"Examination {find} {symptom_b} .")

    lines.append("HISTORY :")
    cond1 = _pick(rng, COMMON_CONDITIONS)
    cond2 = _pick(rng, COMMON_CONDITIONS)
    lines.append(f"Medical history includes {cond1} and {cond2} .")
    if rng.random() < 0.5:
        _, symptom_d = _symptom(rng)
        lines.append(f"The patient denied any {symptom_d} .")
    if rng.random() < 0.12:
        lines.append(f"History is notable for {_pick(rng, RARE_CONDITIONS)} .")

    lines.append("TREATMENT :")
    med = _med(rng)
    lines.append(f"Dr {doctor} started {med} {_pick(rng, DOSES)} mg {_pick(rng, FREQUENCIES)} .")
    improve = _pick(rng, VERB_SLOTS["improve"])
    _, symptom_a2 = _symptom(rng, slot_a)
    lines.append(f"The {symptom_a2} {improve} within {int(rng.integers(2, 10))} days .")
    lines.append(f"{last or 'The patient'} tolerated the treatment well .")

    lines.append("MEDICATIONS :")
    for k in range(1, int(rng.integers(1, 3)) + 1):
        lines.append(f"{k} . {_med(rng)} {_pick(rng, DOSES)} mg {_pick(rng, FREQUENCIES)} .")

    lines.append("DISCHARGE :")
    subject = f"Patient {last}" if last else "The patient"
    lines.append(f"{subject} was discharged in stable condition .")
    if rng.random() < 0.5:
        lines.append(f"Follow up with Dr {doctor} at {hospital} is planned .")
    else:
        _, symptom_a3 = _symptom(rng, slot_a)
        lines.append(f"Return PRN if the {symptom_a3} recurs .")
    return "\n".join(lines)


NAMED_NOTE_FRACTION = 0.35


def make_template_corpus(seed: int, note_count: int) -> str:
    """Raw corpus text: notes separated by blank lines."""
    if note_count < 1:
        raise ValueError("note_count must be >= 1")
    pool = surname_pool()
    if note_count > len(pool):
        raise ValueError(f"note_count is capped at {len(pool)} (one unique surname per note)")
    rng = np.random.default_rng(seed)
    surnames = [pool[i] for i in rng.choice(len(pool), size=note_count, replace=False)]
    notes = []
    for surname in surnames:
        named = rng.random() < NAMED_NOTE_FRACTION
        notes.append(make_template_note(rng, surname if named else None))
    return "\n\n".join(notes) + "\n"


def _all_slot_pairs(slots: dict) -> list[tuple[str, str]]:
    pairs = []
    for members in slots.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    return pairs


# distributionally distant word pairs: different sections, different roles
_UNRELATED = (
    ("pain", "discharged"), ("fever", "admitted"), ("ache", "record"),
    ("fatigue", "hospital"), ("nausea", "planned"), ("swelling", "number"),
    ("dizziness", "stable"), ("edema", "day"), ("vertigo", "condition"),
    ("reported", "mg"), ("described", "Aspirin"), ("improved", "record"),
    ("Aspirin", "admitted"), ("Warfarin", "history"), ("Ibuprofen", "discharged"),
    ("Amoxicillin", "patient"), ("Heparin", "examination"), ("Atorvastatin", "stable"),
    ("pyrexia", "planned"), ("discomfort", "number"), ("tiredness", "hospital"),
    ("queasiness", "admitted"), ("exhaustion", "day"), ("lightheadedness", "record"),
)

# same sentence template, different slots: clinically co-occurring words
_RELATED = (
    ("pain", "chest"), ("ache", "knee"), ("discomfort", "abdomen"),
    ("swelling", "shoulder"), ("fever", "severe"), ("fatigue", "moderate"),
    ("Aspirin", "mg"), ("Ibuprofen", "daily"), ("Amoxicillin", "BID"),
    ("Warfarin", "TID"), ("Atorvastatin", "mg"), ("Naproxen", "daily"),
    ("hypertension", "diabetes"), ("asthma", "arthritis"), ("anemia", "hypertension"),
    ("admitted", "hospital"), ("discharged", "stable"), ("reported", "severe"),
)


def make_similarity_benchmark() -> SimilarityBenchmark:
    """Synonym pairs score 4.0, cross-section pairs 1.0."""
    pairs = [(w1, w2, 4.0) for w1, w2 in
             _all_slot_pairs(SYMPTOM_SLOTS) + _all_slot_pairs(VERB_SLOTS) + _all_slot_pairs(MED_SLOTS)]
    pairs += [(w1, w2, 1.0) for w1, w2 in _UNRELATED]
    return SimilarityBenchmark("template-sim", tuple(pairs))


def make_relatedness_benchmark() -> SimilarityBenchmark:
    """Same-template co-occurring pairs score 3.5, cross-section pairs 1.0."""
    pairs = [(w1, w2, 3.5) for w1, w2 in _RELATED]
    pairs += [(w1, w2, 1.0) for w1, w2 in _UNRELATED]
    return SimilarityBenchmark("template-rel", tuple(pairs))


def make_nli_examples(seed: int, count: int) -> list[NliExample]:
    """Premise/hypothesis pairs over the grammar's vocabulary.

    Entailment swaps the symptom for a same-slot synonym and drops
    modifiers; contradiction negates it; neutral switches to a different
    symptom slot. Labels are balanced in rotation.
    """
    rng = np.random.default_rng(seed)
    examples = []
    labels = ("entailment", "contradiction", "neutral")
    for i in range(count):
        slot, symptom = _symptom(rng)
        verb = _pick(rng, VERB_SLOTS["report"])
        site = _pick(rng, SITES)
        severity = _pick(rng, SEVERITIES)
        premise = ("The", "patient", verb, severity, symptom, "in", "the", site, ".")
        label = labels[i % 3]
        if label == "entailment":
            _, synonym = _symptom(rng, slot)
            hypothesis = ("The", "patient", _pick(rng, VERB_SLOTS["report"]), synonym, ".")
        elif label == "contradiction":
            _, synonym = _symptom(rng, slot)
            hypothesis = ("The", "patient", "denied", "any", synonym, ".")
        else:
            other_slots = tuple(s for s in SYMPTOM_SLOTS if s != slot)
            _, other = _symptom(rng, _pick(rng, other_slots))
            hypothesis = ("The", "patient", _pick(rng, VERB_SLOTS["report"]), other, ".")
        examples.append(NliExample(premise=premise, hypothesis=hypothesis, label=label))
    return examples


@dataclass(frozen=True)
class TemplateBundle:
    raw_corpus: Path
    benchmark_sim: Path
    benchmark_rel: Path
    nli_train: Path
    nli_test: Path


def write_template_bundle(seed: int, note_count: int, outdir: str | Path) -> TemplateBundle:
    """Write the raw corpus, both word-pair benchmarks and the NLI splits."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = TemplateBundle(
        raw_corpus=outdir / "notes.txt",
        benchmark_sim=outdir / "benchmark_sim.csv",
        benchmark_rel=outdir / "benchmark_rel.csv",
        nli_train=outdir / "nli_train.jsonl",
        nli_test=outdir / "nli_test.jsonl",
    )
    bundle.raw_corpus.write_text(make_template_corpus(seed, note_count), encoding="utf-8")
    write_benchmark(make_similarity_benchmark(), bundle.benchmark_sim)
    write_benchmark(make_relatedness_benchmark(), bundle.benchmark_rel)
    write_nli_jsonl(make_nli_examples(seed + 1, 600), bundle.nli_train)
    write_nli_jsonl(make_nli_examples(seed + 2, 180), bundle.nli_test)
    return bundle
