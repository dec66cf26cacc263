"""Seeded corpus generators for the two benchmark workloads.

Both generators write documents from string templates, the way the
`synth_document` library shape in `crates/bench/src/lib.rs` does, so a
16 MiB corpus takes about a second to produce. The same seed always gives
the same documents; the program under test only ever sees the files.

* `narrow`: the `library` shape of `synth_document` -- 8 element names and
  22 distinct child sequences, about 380 bytes per document.
* `wide`: one-record envelopes. The root `feed` wraps exactly one of
  `RECORD_TYPES` record types; each record type has an `id` attribute and
  a seeded random SORE content model (a sequence of fields and two-way
  unions with `?`, `+` and `*`) over 5 to 12 PCDATA fields drawn from a
  pool of `FIELD_POOL` names. About a tenth of the record types repeat one
  field (`a b a`), which only a k-ORE can say exactly. The shape of the
  schema -- field counts, unions, modifiers, value kinds -- is drawn from
  fixed pools in seeded order, so every seed asks for the same amount of
  work while names, models and documents differ.
"""

import os
import random

NARROW_BYTES = 16 * 1024 * 1024
WIDE_BYTES = 4 * 1024 * 1024
RECORD_TYPES = 150
FIELD_POOL = 300
BASE_SHARE = 0.8

_STEMS = [
    "amount", "batch", "city", "code", "count", "date", "email", "grade",
    "label", "level", "mode", "name", "note", "owner", "phone", "price",
    "qty", "rank", "ref", "region", "score", "sku", "stage", "status",
    "tag", "title", "unit", "uri", "weight", "zone",
]
_WORDS = ["alpha", "beta", "gamma", "delta", "north", "south", "red", "blue",
          "open", "closed", "late", "early", "prime", "spare", "main", "side"]
_KINDS = ("int", "decimal", "token", "date", "text")


def narrow_doc(rng, i):
    """One `library` document, as `synth_document` writes it."""
    out = ['<library id="L%d">' % i]
    for _ in range(rng.randint(1, 4)):
        out.append("<book><title>Volume %d</title>" % rng.randrange(1, 500))
        for a in range(rng.randint(1, 3)):
            out.append("<author>Writer %d</author>" % a)
        out.append("<year>%d</year>" % rng.randrange(1950, 2026))
        if rng.random() < 0.7:
            out.append("<publisher>House %d</publisher>" % rng.randrange(0, 20))
        else:
            out.append("<self-published/>")
        if rng.random() < 0.5:
            out.append("<price>%d.99</price>" % rng.randrange(5, 80))
        out.append("</book>")
    out.append("</library>")
    return "".join(out)


def _pool(rng, weights, total):
    """`total` draws whose counts match `weights` as closely as whole
    numbers allow, in seeded random order. Drawing from such a pool
    instead of independently keeps the schema's aggregate shape -- and so
    the work it makes -- the same for every seed."""
    scale = total / sum(weights.values())
    pool = [value for value, w in weights.items() for _ in range(round(w * scale))]
    pool = (pool + list(weights) * total)[:total]
    rng.shuffle(pool)
    return pool


def wide_schema(rng):
    """The seeded record types: a list of (name, items), where each item is
    (fields, modifier) with one field, or two for a union."""
    names = ["%s%d" % (_STEMS[i % len(_STEMS)], i // len(_STEMS)) for i in range(FIELD_POOL)]
    kinds = dict(zip(names, _pool(rng, dict.fromkeys(_KINDS, 1), FIELD_POOL)))
    sizes = _pool(rng, dict.fromkeys(range(5, 13), 1), RECORD_TYPES)
    unions = iter(_pool(rng, {True: 15, False: 85}, sum(sizes)))
    modifiers = iter(_pool(rng, {"": 55, "?": 20, "+": 10, "*": 15}, sum(sizes)))
    records = []
    for r, size in enumerate(sizes):
        fields = rng.sample(names, size)
        items = []
        while fields:
            pair = (fields.pop(), fields.pop()) if len(fields) >= 2 and next(unions) else (
                fields.pop(),)
            items.append((pair, next(modifiers)))
        if r % 10 == 3:
            # Repeat the first item two items later, made a plain field:
            # `a b a`.
            first = ((items[0][0][0],), "")
            items[0] = first
            items.insert(2, first)
        records.append(("rec%03d" % r, items))
    return records, kinds


def _value(rng, kind):
    if kind == "int":
        return str(rng.randrange(0, 100000))
    if kind == "decimal":
        return "%d.%02d" % (rng.randrange(0, 1000), rng.randrange(0, 100))
    if kind == "date":
        return "20%02d-%02d-%02d" % (rng.randrange(0, 30), rng.randrange(1, 13), rng.randrange(1, 29))
    if kind == "token":
        return rng.choice(_WORDS)
    return "%s %s %d" % (rng.choice(_WORDS), rng.choice(_WORDS), rng.randrange(0, 100))


_REPEATS = {"": (1, 1), "?": (0, 1), "+": (1, 3), "*": (0, 2)}


def wide_doc(rng, i, records, kinds):
    """One `feed` envelope around one record of a random record type."""
    name, items = records[rng.randrange(len(records))]
    out = ['<feed><%s id="r%d">' % (name, i)]
    for fields, modifier in items:
        lo, hi = _REPEATS[modifier]
        for _ in range(rng.randint(lo, hi)):
            field = fields[rng.randrange(len(fields))]
            out.append("<%s>%s</%s>" % (field, _value(rng, kinds[field]), field))
    out.append("</%s></feed>" % name)
    return "".join(out)


def generate(workload, seed, size=None):
    """The workload's documents for `seed`: a list of strings, at least
    `size` bytes in total (the workload's default size when None)."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "narrow":
        size = NARROW_BYTES if size is None else size
        make = lambda i: narrow_doc(rng, i)
    elif workload == "wide":
        size = WIDE_BYTES if size is None else size
        records, kinds = wide_schema(rng)
        make = lambda i: wide_doc(rng, i, records, kinds)
    else:
        raise ValueError("unknown workload %r" % workload)
    docs, total = [], 0
    while total < size:
        doc = make(len(docs))
        docs.append(doc)
        total += len(doc)
    return docs


def split(docs):
    """The base (first 80%) and the stream (the rest)."""
    cut = int(len(docs) * BASE_SHARE)
    return docs[:cut], docs[cut:]


def write_corpus(directory, docs):
    """Writes the corpus as `b<i>.xml` (base) and `s<i>.xml` (stream) under
    `directory` and returns the two lists of short relative names."""
    base, stream = split(docs)
    names = ([], [])
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        for prefix, part, out in (("b", base, names[0]), ("s", stream, names[1])):
            for i, doc in enumerate(part):
                name = "%s%d.xml" % (prefix, i)
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644, dir_fd=dir_fd)
                try:
                    os.write(fd, doc.encode())
                finally:
                    os.close(fd)
                out.append(name)
    finally:
        os.close(dir_fd)
    return names
