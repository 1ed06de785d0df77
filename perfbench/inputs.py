"""Seeded input generators for the three workloads.

Everything here is plain stdlib: the program under test only ever sees the
generated datalog text and row mappings, never this module's random state.
The same seed gives the same catalog, data and operation stream.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

Row = Tuple[int, ...]


def facts_text(data: Dict[str, List[Row]]) -> str:
    """The datalog text of a row mapping (used to size the user's data)."""
    return "".join(
        f"{name}({', '.join(str(v) for v in row)}).\n"
        for name, rows in data.items()
        for row in rows
    )


def delta_text(inserted: Sequence[Tuple[str, Row]], removed: Sequence[Tuple[str, Row]]) -> str:
    lines = [f"- {name}({', '.join(map(str, row))})." for name, row in removed]
    lines += [f"+ {name}({', '.join(map(str, row))})." for name, row in inserted]
    return "\n".join(lines)


def binary_relations(
    rng: random.Random, names: Sequence[str], tuples: int, domain: int
) -> Dict[str, List[Row]]:
    """``tuples`` distinct random pairs over ``range(domain)`` per relation."""
    data = {}
    for name in names:
        rows = set()
        while len(rows) < tuples:
            rows.add((rng.randrange(domain), rng.randrange(domain)))
        data[name] = sorted(rows)
    return data


def _atom(relation: str, args: Sequence[str]) -> str:
    return f"{relation}({', '.join(args)})"


def _query_text(
    head: Sequence[str], body: Sequence[Tuple[str, Sequence[str]]], name: str = "q"
) -> str:
    return f"{name}({', '.join(head)}) :- " + ", ".join(_atom(r, a) for r, a in body) + "."


# ---------------------------------------------------------------------------
# cold-rewrite: chain / star / triangle queries against tens of views
# ---------------------------------------------------------------------------

#: Binary base relations r0..r15; every query family draws from them.
COLD_RELATIONS = 16
#: Small base data: rewriting must dominate, not execution.
COLD_TUPLES = 60
COLD_DOMAIN = 30
#: Three requests in five repeat (renamed and reordered) a recent query.
#: Above one half, so the median request is a warm cache hit and the tail
#: is the cold search.
COLD_NEW_SLOTS = (0, 3)
COLD_CYCLE = 5
#: New queries cycle through these (family, size) shapes in order, so every
#: seed gets the same mix of search difficulties; the seed picks relations,
#: heads and constants.
COLD_SHAPES = (
    ("chain", 2), ("chain", 3), ("chain", 4),
    ("star", 2), ("star", 3), ("star", 4),
    ("triangle", 3),
)
#: Repeats are drawn from this many most recent distinct queries, a window
#: well inside the engine's default 512-entry caches.
COLD_REPEAT_WINDOW = 200


def cold_views() -> str:
    """A catalog of 28 views: unit, chain-segment, star and triangle views.

    Each relation appears in a handful of views only, so a cold MiniCon
    search stays in the millisecond range instead of exploding
    combinatorially over overlapping segments.
    """
    n = COLD_RELATIONS
    lines = []
    for i in range(0, n, 3):
        lines.append(f"u{i}(X, Y) :- r{i}(X, Y).")
    for i in range(0, n - 1, 2):
        lines.append(f"m{i}(X, Z, Y) :- r{i}(X, Z), r{i + 1}(Z, Y).")
    for i in range(1, n - 1, 2):
        lines.append(f"e{i}(X, Y) :- r{i}(X, Z), r{i + 1}(Z, Y).")
    for i in range(1, n - 1, 4):
        lines.append(f"s{i}(C, X, Y) :- r{i}(C, X), r{i + 1}(C, Y).")
    for i in range(2, n - 2, 5):
        lines.append(f"k{i}(X, Y, Z) :- r{i}(X, Y), r{i + 1}(Y, Z), r{i + 2}(X, Z).")
    return "\n".join(lines)


def cold_data(rng: random.Random) -> Dict[str, List[Row]]:
    names = [f"r{i}" for i in range(COLD_RELATIONS)]
    return binary_relations(rng, names, COLD_TUPLES, COLD_DOMAIN)


class ColdQuery:
    """One generated query in structural form, renamable and reorderable."""

    __slots__ = ("head", "body")

    def __init__(self, head: List[str], body: List[Tuple[str, List[str]]]):
        self.head = head
        self.body = body

    def text(self, rng: random.Random, serial: int) -> str:
        """Render with fresh variable names and a shuffled body (same fingerprint)."""
        names = {}
        for _, args in self.body:
            for arg in args:
                if arg[0].isupper() and arg not in names:
                    names[arg] = f"V{serial}_{len(names)}"
        body = [(r, [names.get(a, a) for a in args]) for r, args in self.body]
        if serial:
            rng.shuffle(body)
        return _query_text([names[v] for v in self.head], body)


def _pick_head(rng: random.Random, variables: List[str]) -> List[str]:
    size = rng.randint(1, min(3, len(variables)))
    return sorted(rng.sample(variables, size))


def _maybe_constant(
    rng: random.Random, args: List[str], variables: List[str], head: List[str]
) -> None:
    """Replace one non-head variable occurrence set by a constant, half the time."""
    candidates = [v for v in variables if v not in head]
    if candidates and rng.random() < 0.5:
        victim = rng.choice(candidates)
        value = str(rng.randrange(COLD_DOMAIN))
        for index, arg in enumerate(args):
            if arg == victim:
                args[index] = value


def new_cold_query(rng: random.Random, shape: Tuple[str, int]) -> ColdQuery:
    family, size = shape
    n = COLD_RELATIONS
    if family == "chain":
        length = size
        start = rng.randrange(n - length + 1)
        variables = [f"X{k}" for k in range(length + 1)]
        pairs = [(f"r{start + k}", [variables[k], variables[k + 1]]) for k in range(length)]
    elif family == "star":
        arms = size
        start = rng.randrange(n - arms + 1)
        variables = ["C"] + [f"A{k}" for k in range(arms)]
        pairs = [(f"r{start + k}", ["C", f"A{k}"]) for k in range(arms)]
    else:
        start = rng.randrange(n - 2)
        variables = ["K0", "K1", "K2"]
        pairs = [
            (f"r{start}", ["K0", "K1"]),
            (f"r{start + 1}", ["K1", "K2"]),
            (f"r{start + 2}", ["K0", "K2"]),
        ]
    head = _pick_head(rng, variables)
    flat = [arg for _, args in pairs for arg in args]
    _maybe_constant(rng, flat, variables, head)
    body, cursor = [], 0
    for relation, args in pairs:
        body.append((relation, flat[cursor:cursor + len(args)]))
        cursor += len(args)
    return ColdQuery(head, body)


def cold_stream(rng: random.Random) -> Iterator[str]:
    """Endless query texts for cold-rewrite."""
    recent: List[ColdQuery] = []
    serial = fresh = 0
    while True:
        serial += 1
        if recent and serial % COLD_CYCLE not in COLD_NEW_SLOTS:
            query = rng.choice(recent[-COLD_REPEAT_WINDOW:])
            yield query.text(rng, serial)
            continue
        query = new_cold_query(rng, COLD_SHAPES[fresh % len(COLD_SHAPES)])
        fresh += 1
        recent.append(query)
        if len(recent) > 4 * COLD_REPEAT_WINDOW:
            del recent[: 2 * COLD_REPEAT_WINDOW]
        yield query.text(rng, serial)


# ---------------------------------------------------------------------------
# churn-durable: chain-segment views over >= 100k facts, with deltas
# ---------------------------------------------------------------------------

CHURN_RELATIONS = 4
CHURN_TUPLES = 25_000
CHURN_DOMAIN = 25_000
#: Auto-checkpoint interval in applied deltas; several cycles land per run
#: and the run stops halfway through one, so recovery replays a real tail.
CHURN_CHECKPOINT_EVERY = 32
CHURN_FLUSH_POLICY = "batch"
#: Queries issued per delta (closed loop, one client).
CHURN_QUERIES_PER_DELTA = 2
CHURN_FACTS_PER_DELTA = 4
#: Constants the query templates draw from; all template x constant
#: combinations fit in the caches, so rewriting stays warm.
CHURN_HOT_CONSTANTS = 32


def churn_views() -> str:
    lines = [f"s{i}(X, Y) :- p{i}(X, Y)." for i in range(1, CHURN_RELATIONS + 1)]
    lines += [
        f"d{i}(X, Z, Y) :- p{i}(X, Z), p{i + 1}(Z, Y)."
        for i in range(1, CHURN_RELATIONS)
    ]
    return "\n".join(lines)


def churn_data(rng: random.Random) -> Dict[str, List[Row]]:
    names = [f"p{i}" for i in range(1, CHURN_RELATIONS + 1)]
    return binary_relations(rng, names, CHURN_TUPLES, CHURN_DOMAIN)


CHURN_TEMPLATES = (
    "q1(Y) :- p1({c}, A), p2(A, B), p3(B, Y).",
    "q2(X) :- p2(X, A), p3(A, B), p4(B, {c}).",
    "q3(A, Y) :- p1({c}, A), p2(A, Y).",
    "q4(X, B) :- p3(X, {c}), p4({c}, B).",
)


def churn_constants(rng: random.Random) -> List[int]:
    return rng.sample(range(CHURN_DOMAIN), CHURN_HOT_CONSTANTS)


def churn_query_texts(constants: Sequence[int]) -> List[str]:
    return [t.format(c=c) for t in CHURN_TEMPLATES for c in constants]


#: Where the templates put their constant: deltas through a hot constant at
#: one of these (relation, position) anchors change some query's answers.
CHURN_ANCHORS = (("p1", 0), ("p3", 1), ("p4", 0), ("p4", 1))


class ChurnMirror:
    """The benchmark's own copy of the base rows, to draw deletes from."""

    def __init__(self, data: Dict[str, List[Row]], constants: Sequence[int]):
        self.constants = list(constants)
        self.rows = {name: list(rows) for name, rows in data.items()}
        self.index = {
            name: {row: i for i, row in enumerate(rows)} for name, rows in self.rows.items()
        }
        #: Live rows the deltas inserted through a hot constant.
        self.hot: List[Tuple[str, Row]] = []

    def remove(self, name: str, row: Row) -> bool:
        rows, index = self.rows[name], self.index[name]
        position = index.pop(row, None)
        if position is None:
            return False
        last = rows.pop()
        if position < len(rows):
            rows[position] = last
            index[last] = position
        return True

    def add(self, name: str, row: Row) -> bool:
        if row in self.index[name]:
            return False
        self.index[name][row] = len(self.rows[name])
        self.rows[name].append(row)
        return True


def churn_delta(rng: random.Random, mirror: ChurnMirror):
    """A small delta, applied to ``mirror``; returns (inserted, removed).

    A quarter of the changes insert a row through a hot constant at a
    template's anchor and a quarter delete such a row again, so cached
    answers really go stale; the rest insert and delete random rows, so
    the base churns at a steady size.
    """
    inserted, removed = [], []
    for _ in range(CHURN_FACTS_PER_DELTA):
        roll = rng.random()
        if roll < 0.25:
            relation, position = rng.choice(CHURN_ANCHORS)
            row = [rng.randrange(CHURN_DOMAIN), rng.randrange(CHURN_DOMAIN)]
            row[position] = rng.choice(mirror.constants)
            if mirror.add(relation, tuple(row)):
                inserted.append((relation, tuple(row)))
                mirror.hot.append((relation, tuple(row)))
        elif roll < 0.5 and mirror.hot:
            relation, row = mirror.hot.pop(rng.randrange(len(mirror.hot)))
            if mirror.remove(relation, row):
                removed.append((relation, row))
        elif roll < 0.75:
            relation = f"p{rng.randint(1, CHURN_RELATIONS)}"
            row = (rng.randrange(CHURN_DOMAIN), rng.randrange(CHURN_DOMAIN))
            if mirror.add(relation, row):
                inserted.append((relation, row))
        else:
            relation = f"p{rng.randint(1, CHURN_RELATIONS)}"
            row = rng.choice(mirror.rows[relation])
            mirror.remove(relation, row)
            removed.append((relation, row))
    return inserted, removed


# ---------------------------------------------------------------------------
# http-serve: warm templated traffic, a few cold queries, a small delta share
# ---------------------------------------------------------------------------

HTTP_RELATIONS = 4
HTTP_TUPLES = 400
HTTP_DOMAIN = 800
#: Distinct warm queries: they fit in the caches together.
HTTP_WARM_QUERIES = 48
HTTP_COLD_SHARE = 0.05
HTTP_DELTA_SHARE = 0.03
#: The fixed offered rate of the open-loop phase (requests per second), and
#: the latency limit a request must meet, timed from its due time, to count
#: toward goodput.
HTTP_OFFERED_RATE = 250.0
HTTP_LATENCY_LIMIT_S = 0.050
#: Share of the run spent in the closed-loop saturation phase; the rest is
#: the open-loop phase at the offered rate.
HTTP_CLOSED_SHARE = 0.7
#: Inserted facts use values from here upward, outside the query constants'
#: domain: they change view extents and evict cached answers, but no answer.
HTTP_FRESH_BASE = 1_000_000


def http_views() -> str:
    lines = [f"h{i}(X, Y) :- p{i}(X, Y)." for i in range(1, HTTP_RELATIONS + 1)]
    lines += [
        f"g{i}(X, Y) :- p{i}(X, Z), p{i + 1}(Z, Y)." for i in range(1, HTTP_RELATIONS)
    ]
    return "\n".join(lines)


def http_data(rng: random.Random) -> Dict[str, List[Row]]:
    names = [f"p{i}" for i in range(1, HTTP_RELATIONS + 1)]
    return binary_relations(rng, names, HTTP_TUPLES, HTTP_DOMAIN)


def _http_query(rng: random.Random, constant: int, name: str) -> str:
    length = rng.randint(2, HTTP_RELATIONS)
    start = rng.randint(1, HTTP_RELATIONS - length + 1)
    variables = [f"X{k}" for k in range(length + 1)]
    body = [(f"p{start + k}", [variables[k], variables[k + 1]]) for k in range(length)]
    # Anchor the chain with a constant at its start or its end.
    if rng.random() < 0.5:
        body[0][1][0] = str(constant)
        head = [variables[-1]]
    else:
        body[-1][1][1] = str(constant)
        head = [variables[0]]
    return _query_text(head, body, name)


def http_warm_queries(rng: random.Random) -> List[str]:
    out, seen = [], set()
    while len(out) < HTTP_WARM_QUERIES:
        text = _http_query(rng, rng.randrange(HTTP_DOMAIN), "w")
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


class HttpDeltas:
    """Deltas over fresh values only: inserts, later deleted again."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.live: List[Tuple[str, Row]] = []
        self.next_value = HTTP_FRESH_BASE

    def next(self) -> str:
        rng = self.rng
        if self.live and rng.random() < 0.5:
            removed = [self.live.pop(rng.randrange(len(self.live)))]
            return delta_text([], removed)
        relation = f"p{rng.randint(1, HTTP_RELATIONS)}"
        row = (self.next_value, self.next_value + 1)
        self.next_value += 2
        self.live.append((relation, row))
        return delta_text([(relation, row)], [])


def http_stream(rng: random.Random, warm: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Endless (kind, text) requests: kind is warm, cold or delta."""
    deltas = HttpDeltas(rng)
    serial = 0
    while True:
        roll = rng.random()
        if roll < HTTP_DELTA_SHARE:
            yield "delta", deltas.next()
        elif roll < HTTP_DELTA_SHARE + HTTP_COLD_SHARE:
            serial += 1
            # A never-seen head name plus a random anchor: a new fingerprint.
            yield "cold", _http_query(rng, rng.randrange(HTTP_DOMAIN), f"c{serial}")
        else:
            yield "warm", rng.choice(warm)
