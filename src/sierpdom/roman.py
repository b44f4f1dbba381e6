"""Roman dominating functions and the structure the product bound reads off.

A Roman dominating function (RDF) labels every vertex 0, 1 or 2 so that
each 0-vertex has a neighbor labeled 2.  Its weight is the label sum,
and the minimum weight over all RDFs is the Roman domination number.

is_roman_dominating is the one check of the condition: is_dominating_set
asks it of the labeling with 2 on the set and 0 elsewhere, which is
Roman dominating exactly when the set dominates.  On a Graph it goes
over the edges once.  On S(G, t) it asks SierpinskiGraph.cover for the
closed neighbourhoods of the 2s (label_mask), a few shifts per level and
base edge rather than a step per edge, so the constructions and
copy_weight_profile validate on the runs and make no Graph of S(G, t)
for it.  to_dict with S(G, t) names it and digests its Graph, and
derived_sets and copy_weight_profile read neighbors and degrees, so
they read a Graph too.

A RomanFunction packs its labels once: packed is the bytes(labels) its
check makes, kept beside the labels tuple and left out of ==, hash and
repr.  weight counts its 1s and 2s, is_roman_dominating reads it (as
label_mask's input on S(G, t)), the constructions' perfect-code check
reads it, and every to_json hands it to dumps, so no reader turns the
tuple into bytes or sums it again.

Label lists are written into JSON from their bytes.  dumps encodes a
document once, with LABELS standing where the list goes, and writes the
list there from bytes(labels): the digits are translated and interleaved
with ", " in one bytearray, with no Python str per label.  The text
matches json.dumps(doc, sort_keys=True) byte for byte.  The labelings
of RomanFunction.to_json and ConstructionReport.to_json and the Roman
witness of Certificate.to_json are written this way; the word-keyed form
and the domination witness are plain JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import ContractError
from .graphs import Graph
from .sierpinski import SierpinskiGraph, prefix_vertices, word_of

# bytes.translate tables from labels to binary digits: label >= 1, label >= 2
_AT_LEAST = {1: bytes.maketrans(b"\0\1\2", b"011"), 2: bytes.maketrans(b"\0\1\2", b"001")}
_DIGITS = bytes.maketrans(b"\0\1\2", b"012")
_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(doc, sort_keys=True) builds per call

# stands for the label list in a document that dumps writes; the encoder writes it as NaN
LABELS = float("nan")


def dumps(doc: dict, labels: Optional[Sequence[int]] = None, key: str = "labels") -> str:
    """json.dumps(doc, sort_keys=True), byte for byte, from one encoder call.

    With labels (each 0, 1 or 2), doc holds LABELS once, as the value of
    key, and no other float; the labels are written there as the JSON
    array json.dumps writes of them, made from bytes(labels) with no str
    per label: their digits go between ", " separators in one bytearray,
    around the text of the rest of doc.
    """
    text = _ENCODER.encode(doc)
    if labels is None:
        return text
    # inside a JSON string every quote is escaped, so the quote after key closes a key;
    # its value NaN is LABELS, the document's one float, so the split finds one match
    head, tail = text.split(f'"{key}": NaN', 1)
    out = bytearray(b", 0") * len(labels)
    out[2::3] = bytes(labels).translate(_DIGITS)
    out[:2] = f'{head}"{key}": ['.encode()  # the encoder escapes non-ASCII, so all is ASCII
    out += f"]{tail}".encode()
    return out.decode("ascii")


@dataclass(frozen=True)
class RomanFunction:
    """A total labeling vertex -> {0, 1, 2}, independent of any one graph.

    packed is bytes(labels), made once when the labels are checked; it
    takes no part in ==, hash or repr, which read labels alone.
    """

    labels: tuple[int, ...]
    packed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("labeling must cover at least one vertex")
        try:
            len(self.labels)  # a bare int, which bytes() reads as a length, is no labeling
            packed = bytes(self.labels)
        except (TypeError, ValueError):  # bytes() takes ints only, bools among them, in 0-255
            packed = b"\3"  # no label, so the check below raises
        if packed.translate(None, b"\0\1\2"):
            raise ValueError("labels must be 0, 1 or 2")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_sets(cls, n: int, ones: Iterable[int] = (), twos: Iterable[int] = ()) -> "RomanFunction":
        labels = [0] * n
        for v in ones:
            labels[v] = 1
        for v in twos:
            if labels[v] == 1:
                raise ValueError(f"vertex {v} listed as both 1 and 2")
            labels[v] = 2
        return cls(tuple(labels))

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def zeros(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.labels) if x == 0)

    @property
    def ones(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.labels) if x == 1)

    @property
    def twos(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.labels) if x == 2)

    @property
    def weight(self) -> int:
        return self.packed.count(1) + 2 * self.packed.count(2)

    def to_dict(self, sierpinski: Optional[SierpinskiGraph] = None) -> dict:
        """The document to_json writes through dumps: with sierpinski, the
        labels keyed by its words; without, LABELS under "labels"."""
        doc: dict = {"weight": self.weight}
        if sierpinski is not None:
            doc["labels_by_word"] = dict(zip(sierpinski.word_labels(), self.labels, strict=True))
            doc["graph"] = {"name": sierpinski.name, "sha256": sierpinski.graph.digest()}
        else:
            doc["labels"] = LABELS
        return doc

    def to_json(self, sierpinski: Optional[SierpinskiGraph] = None) -> str:
        return dumps(self.to_dict(sierpinski), self.packed if sierpinski is None else None)

    @classmethod
    def from_json(cls, text: str) -> "RomanFunction":
        """Read the {"labels": [...]} document to_json() writes; "weight" is optional.

        Any other document, the word-keyed one included, raises ValueError.
        """
        doc = json.loads(text)
        if not (isinstance(doc, dict) and set(doc) in ({"labels"}, {"labels", "weight"})):
            raise ValueError('a labeling is {"labels": [...]} with an optional "weight"')
        labels = doc["labels"]
        if not isinstance(labels, list) or any(type(x) is not int for x in labels):
            raise ValueError('"labels" must be a list of the integers 0, 1 and 2')
        f = cls(tuple(labels))
        if doc.get("weight") not in (None, f.weight):
            raise ValueError("stored weight does not match the labels")
        return f


def label_mask(labels: Sequence[int], least: int) -> int:
    """The vertices labeled least or more (least 1 or 2) as a bitmask, bit v for vertex v."""
    return int(bytes(labels)[::-1].translate(_AT_LEAST[least]), 2)


def is_roman_dominating(f: RomanFunction, g: Graph | SierpinskiGraph) -> bool:
    """Check the defining condition: every 0-vertex sees a 2."""
    if f.order != g.order:
        raise ValueError(f"labeling covers {f.order} vertices, graph has {g.order}")
    labels = f.packed
    if isinstance(g, SierpinskiGraph):
        # a vertex needs nothing more when it is labeled 1 or 2, or is next to a 2
        return label_mask(labels, 1) | g.cover(label_mask(labels, 2))[0] == (1 << g.order) - 1
    # nonzero once the vertex needs nothing more: labeled 1 or 2, or next to a 2
    settled = bytearray(labels)
    for u, v in g.edges:
        if labels[u] == 2:
            settled[v] = 1
        elif labels[v] == 2:  # when both are 2, both are settled already
            settled[u] = 1
    return 0 not in settled


def is_dominating_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True when every vertex lies in a closed neighborhood of the set: the
    Roman condition on the labeling with 2 on the set and 0 elsewhere."""
    n = g.order
    labels = [0] * n
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} not in graph of order {n}")
        labels[v] = 2
    return is_roman_dominating(RomanFunction(tuple(labels)), g)


@dataclass(frozen=True)
class DerivedSets:
    """Structure of an RDF that the product upper-bound construction uses.

    linked_ones / linked_twos: vertices labeled 1 (resp. 2) that have a
    neighbor with the same label.
    linked_positive: positive-labeled vertices with a positive-labeled
    neighbor.
    junction_twos: 2-vertices with exactly two 0-neighbors sitting at
    distance 2 from some unlinked 1.
    remote_one_count: the number of unlinked 1-vertices at distance 2
    from some junction 2.
    """

    linked_ones: frozenset[int]
    linked_twos: frozenset[int]
    linked_positive: frozenset[int]
    remote_one_count: int
    junction_twos: frozenset[int]


def derived_sets(f: RomanFunction, g: Graph) -> DerivedSets:
    if not is_roman_dominating(f, g):
        raise ContractError("labeling is not Roman dominating on this graph")
    ones, twos = f.ones, f.twos
    near = {v: [f.labels[u] for u in g.neighbors(v)] for v in ones | twos}
    linked_ones = frozenset(v for v in ones if 1 in near[v])
    linked_twos = frozenset(v for v in twos if 2 in near[v])
    linked_positive = frozenset(v for v, nb in near.items() if any(nb))
    lone_ones = ones - linked_ones
    candidates = [v for v in twos if near[v].count(0) == 2]
    junction = set()
    remote = set()
    for v in candidates:
        for u in lone_ones:
            if g.at_distance_two(v, u):
                junction.add(v)
                remote.add(u)
    return DerivedSets(
        linked_ones=linked_ones,
        linked_twos=linked_twos,
        linked_positive=linked_positive,
        remote_one_count=len(remote),
        junction_twos=frozenset(junction),
    )


@dataclass(frozen=True)
class CopyProfile:
    """Weight bookkeeping of one depth-(t-1) copy over a path base.

    The copy sits at a prefix whose last letter is the anchor vertex.
    left_count / right_count are the base vertices strictly before
    anchor-1 and strictly after anchor+1 in path order; surplus is the
    copy weight minus ceil(2*left/3) minus ceil(2*right/3).  corner_linked
    marks copies whose extreme vertex picked up an extra outside edge.
    """

    prefix: tuple[int, ...]
    anchor: int
    left_count: int
    right_count: int
    weight: int
    surplus: int
    corner_linked: bool


def _ceil_two_thirds(x: int) -> int:
    return -(-2 * x // 3)


def copy_weight_profile(f: RomanFunction, s: SierpinskiGraph) -> list[CopyProfile]:
    """Per-copy weight profiles for S(P_n, t), in prefix order."""
    n = s.base.order
    path_edges = tuple((i, i + 1) for i in range(n - 1))
    if tuple(s.base.edges) != path_edges:
        raise ValueError("copy profiles are defined over a path base in vertex order")
    if s.depth < 2:
        raise ValueError("profiles need depth at least 2")
    if not is_roman_dominating(f, s):
        raise ContractError("labeling is not Roman dominating on this graph")
    profiles = []
    for pid in range(n ** (s.depth - 1)):
        prefix = word_of(pid, n, s.depth - 1)
        anchor = prefix[-1]
        block = prefix_vertices(s, prefix)
        w = sum(f.labels[v] for v in block)
        left = max(0, anchor - 1)
        right = max(0, n - anchor - 2)
        surplus = w - _ceil_two_thirds(left) - _ceil_two_thirds(right)
        corner = s.graph.degree(block[anchor]) != s.base.degree(anchor)
        profiles.append(
            CopyProfile(
                prefix=prefix,
                anchor=anchor,
                left_count=left,
                right_count=right,
                weight=w,
                surplus=surplus,
                corner_linked=corner,
            )
        )
    return profiles
