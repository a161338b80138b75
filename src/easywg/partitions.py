"""Colored set partitions and the six easy partition categories.

Ground sets are {1, ..., k}.  A partition is stored canonically as a
restricted-growth string (block labels in order of first appearance), and
the canonical order on partitions of a common ground set is lexicographic
on that encoding.  Words over the two leg colors drive the unitary-type
categories: a white leg is a plain coordinate, a black leg a conjugated
one; the orthogonal/symmetric-type categories ignore colors.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union


def record(cls=None, /, *, frozen: bool = True, hidden: tuple[str, ...] = ()):
    """Class decorator for a plain record: dataclasses' frozen records
    without importing dataclasses (and inspect) or compiling methods.

    The fields are the class's annotations, in order, and a class attribute
    named like a field is its default.  __init__ takes the fields as
    positional or keyword arguments, then runs the class's __post_init__;
    equality and repr read every field but the `hidden` ones.  A frozen
    record hashes by the same fields, and assigning or deleting any
    attribute raises AttributeError (__post_init__ normalizes through
    object.__setattr__; functools.cached_property still caches); any other
    record is unhashable.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen, hidden=hidden)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = tuple(n for n in names if n not in hidden)
    key = attrgetter(*shown)
    post = getattr(cls, "__post_init__", None)
    put = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """A record's field values from a call with keywords or defaults."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
    given = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    given.update(kwargs)
    missing = [n for n in names if n not in given and n not in defaults]
    if missing:
        raise TypeError(f"{cls.__name__}() missing arguments {', '.join(map(repr, missing))}")
    return [given[n] if n in given else defaults[n] for n in names]


class Color(enum.Enum):
    """Leg color: white = plain variable, black = conjugated variable."""

    WHITE = "o"
    BLACK = "b"

    @classmethod
    def parse(cls, ch: str) -> "Color":
        try:
            return cls(ch)
        except ValueError:
            raise ValueError(f"unknown color {ch!r}; expected 'o' or 'b'") from None

    def __repr__(self) -> str:
        return f"Color.{self.name}"


class ColoredWord:
    """An ordered word of leg colors; the empty word is legal.

    `code` is the word as one int: its colors as bits (white 0, black 1,
    the first leg highest) under a leading 1, so that words of different
    lengths get different codes.  The empty word's code is 1.
    """

    __slots__ = ("colors", "code")

    def __init__(self, colors: Iterable[Color] = ()) -> None:
        colors = tuple(colors)
        code = 1
        for c in colors:
            if not isinstance(c, Color):
                raise TypeError(f"not a Color: {c!r}")
            code = code << 1 | (c is Color.BLACK)
        self.colors = colors
        self.code = code

    @classmethod
    def parse(cls, text: str) -> "ColoredWord":
        return cls(Color.parse(ch) for ch in text)

    @property
    def text(self) -> str:
        return "".join(c.value for c in self.colors)

    def __len__(self) -> int:
        return len(self.colors)

    def __iter__(self) -> Iterator[Color]:
        return iter(self.colors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColoredWord) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return f"ColoredWord({self.text!r})"


WordLike = Union[ColoredWord, str]


def as_word(word: WordLike) -> ColoredWord:
    """Coerce a string over 'o'/'b' (or a ColoredWord) to a ColoredWord."""
    if isinstance(word, ColoredWord):
        return word
    if isinstance(word, str):
        return ColoredWord.parse(word)
    raise TypeError(f"cannot interpret {word!r} as a colored word")


class SetPartition:
    """A partition of {1, ..., k} in canonical restricted-growth form.

    ``rgs[i]`` is the block label of point i+1, blocks labeled 0, 1, ...
    in order of first appearance.  Instances are immutable and hashable.
    """

    __slots__ = ("rgs", "_blocks")

    def __init__(self, rgs: Sequence[int]) -> None:
        rgs = tuple(rgs)
        top = 0
        for a in rgs:
            if not isinstance(a, int) or a < 0 or a > top:
                raise ValueError(f"not a restricted-growth string: {rgs!r}")
            if a == top:
                top += 1
        self.rgs = rgs
        self._blocks: tuple[tuple[int, ...], ...] | None = None

    @property
    def ground_size(self) -> int:
        return len(self.rgs)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples of 1-based points, ordered by minimum."""
        if self._blocks is None:
            out: list[list[int]] = [[] for _ in range(self.block_count)]
            for pos, label in enumerate(self.rgs, start=1):
                out[label].append(pos)
            self._blocks = tuple(tuple(b) for b in out)
        return self._blocks

    def delta(self, indices: Sequence) -> int:
        """1 if the indices are constant on every block, else 0."""
        if len(indices) != len(self.rgs):
            raise ValueError(
                f"expected {len(self.rgs)} indices, got {len(indices)}"
            )
        first: dict[int, object] = {}
        for label, x in zip(self.rgs, indices):
            prev = first.setdefault(label, x)
            if prev != x:
                return 0
        return 1

    def to_text(self) -> str:
        """Blocks joined by '|': digit runs for ground size <= 9, else commas."""
        if self.ground_size <= 9:
            return "|".join("".join(str(x) for x in b) for b in self.blocks)
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetPartition) and self.rgs == other.rgs

    def __hash__(self) -> int:
        return hash(self.rgs)

    def __repr__(self) -> str:
        return f"SetPartition({self.to_text()!r})"


def _links(rgs: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(point, first point of its block) for every point of a growth string
    that does not open its block, points counted from 0."""
    first: list[int] = []
    out = []
    for pos, label in enumerate(rgs):
        if label == len(first):
            first.append(pos)
        else:
            out.append((pos, first[label]))
    return tuple(out)


def _root(parent: list[int], x: int) -> int:
    """The root of point x's tree in a _join_forest."""
    while parent[x] != x:
        x = parent[x]
    return x


def _join_forest(k: int, links: Iterable[Sequence[tuple[int, int]]]) -> tuple[list[int], int]:
    """The join of partitions of k points, given by their _links, as a
    union-find forest (parent pointers, each tree rooted at its smallest
    point) and its block count: k minus the links that merged two trees."""
    parent = list(range(k))
    count = k
    for pairs in links:
        for a, b in pairs:  # _root inlined: this loop is the join tables' cost
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
                count -= 1
    return parent, count


class CategoryId(enum.Enum):
    """The six easy partition categories."""

    S = "S"
    O = "O"
    U = "U"
    S_PLUS = "S+"
    O_PLUS = "O+"
    U_PLUS = "U+"

    @classmethod
    def parse(cls, text: str) -> "CategoryId":
        try:
            return cls(text)
        except ValueError:
            names = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown category {text!r}; expected one of {names}") from None

    def __init__(self, value: str) -> None:
        # plain attributes: word_key and concat_key read them on every call
        self.is_free = value.endswith("+")
        self.color_sensitive = value.startswith("U")  # only U and U+ read leg colors

    # members are singletons: hash by identity, in C, where Enum's __hash__
    # is a Python call that every memo key holding a category pays
    __hash__ = object.__hash__

    @property
    def free_version(self) -> "CategoryId":
        return self if self.is_free else CategoryId(self.value + "+")

    def __repr__(self) -> str:
        return f"CategoryId({self.value!r})"


CategoryLike = Union[CategoryId, str]


def as_category(category: CategoryLike) -> CategoryId:
    if isinstance(category, CategoryId):
        return category
    if isinstance(category, str):
        return CategoryId.parse(category)
    raise TypeError(f"cannot interpret {category!r} as a category")


def _generate(category: CategoryId, key: int) -> list[SetPartition]:
    """The category's partitions for the words with word_key key, by
    depth-first generation of restricted-growth strings, labels ascending,
    so in lexicographic order.

    Branches that cannot lead to a member are cut: pairing categories join
    a leg only to a one-point block (of the opposite color for U, U+) and
    open a block only while fewer blocks wait for a partner than positions
    remain.  Free categories keep a stack of the blocks that may still
    grow: joining a block closes every block above it, so a free pairing
    joins only the top of its stack of waiting blocks.  A pairing category
    has no partitions of an odd number of legs, nor U and U+ of a word
    whose white and black counts differ: such words return none before the
    search.  The search keeps its own stack of moves, so its depth, one leg
    per level, is not bounded by Python's recursion limit.
    """
    k = key_length(category, key)
    pairs = category not in (CategoryId.S, CategoryId.S_PLUS)
    nested = category.is_free
    # leg i's color is the code's bit k-1-i (see ColoredWord)
    colors = [key >> (k - 1 - i) & 1 for i in range(k)] if category.color_sensitive else None
    if pairs and (k % 2 or colors and 2 * sum(colors) != k):
        return []
    rgs = [0] * k
    out: list[SetPartition] = []
    # moves (i, label, blocks, grow): leg i-1 takes the label, which leaves
    # that many blocks, of which those that may still grow (for a pairing
    # category, those waiting for a partner) start at the legs in grow
    todo: list[tuple] = [(0, 0, 0, ())]
    while todo:
        i, label, blocks, grow = todo.pop()
        if i:
            rgs[i - 1] = label
        if i == k:
            out.append(SetPartition(rgs))
            continue
        if not pairs or len(grow) < k - i - 1:  # a new block, pushed first so tried last
            todo.append((i + 1, blocks, blocks + 1, grow + (i,)))
        joins = grow[-1:] if nested and pairs else grow
        for j in range(len(joins) - 1, -1, -1):
            first = joins[j]
            if colors and colors[first] == colors[i]:
                continue
            if pairs:
                rest = grow[:-1] if nested else grow[:j] + grow[j + 1:]
            else:
                rest = grow[:j + 1] if nested else grow
            todo.append((i + 1, rgs[first], blocks, rest))
    return out


def word_key(category: CategoryId, word: ColoredWord) -> int:
    """What the category's partition set for the word depends on, as one
    int: the word's code for the unitary-type categories, its length
    otherwise."""
    return word.code if category.color_sensitive else len(word)


def concat_key(category: CategoryId, head: int, tail: int) -> int:
    """The word_key of a concatenation, from the word_keys of its parts."""
    if not category.color_sensitive:
        return head + tail
    n = tail.bit_length() - 1  # the tail's length
    return ((head - 1) << n) + tail


def key_length(category: CategoryId, key: int) -> int:
    """The length of the words with the given word_key."""
    return key.bit_length() - 1 if category.color_sensitive else key


@lru_cache(maxsize=None)
def _enumerate(category: CategoryId, key: int) -> tuple[SetPartition, ...]:
    """The partition set for a word_key, memoized for the process."""
    return tuple(_generate(category, key))


@lru_cache(maxsize=None)
def _join_blocks(categories: tuple, keys: tuple) -> tuple[int, ...]:
    """The block count of the join of every tuple of factor partitions, in
    itertools.product order, for the factors' categories and keys; empty
    when a factor has no partitions."""
    k = key_length(categories[0], keys[0])
    factors = [[_links(p.rgs) for p in _enumerate(c, key)] for c, key in zip(categories, keys)]
    return tuple(_join_forest(k, combo)[1] for combo in itertools.product(*factors))


def enumerate_partitions(category: CategoryLike, word: WordLike) -> list[SetPartition]:
    """The category's partition set for the word, in canonical order.

    Deterministic: lexicographic on the restricted-growth encoding.  The
    empty word yields exactly the empty partition, for every category.
    """
    category = as_category(category)
    return list(_enumerate(category, word_key(category, as_word(word))))
