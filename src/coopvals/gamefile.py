"""JSON game files: exact parsing and canonical serialisation.

A game file is a UTF-8 JSON object:

    {
      "players": 3,
      "labels": ["a", "b", "c"],
      "worths": {"1": 1, "3": 2, "1,2": "7/2", "1,2,3": "2.5"}
    }

Coalition keys list 1-based player indices in ASCII digits, comma separated
and strictly increasing, with nothing else in the key.  Worths may be
integers, "p/q" strings with q > 0, or decimal strings: an optional sign,
digits, then "/" and digits or an optional "." and digits and exponent, as
in "-2.5" or "3e-2"; nothing else, no spaces.  JSON number literals with a
fractional part are converted from their decimal spelling, never through a
binary float.  A literal, JSON numbers included, has at most
MAX_LITERAL_LENGTH characters, and an exponent counts as that many more.
Missing coalitions default to 0.  Machine pipelines may instead supply
"worths_by_mask", a dense list of 2^players rationals indexed by coalition
bitmask; exactly one of the two keys must be present.

A table is read one of two ways, with the same result.  When every worth
is a JSON int or a string spelling an integer or "p/q" (as game_doc writes
them), the bulk reader checks the whole table's characters a chunk at a
time, then splits each literal once at its "/" and reads it over its
chunk's common denominator, and brings the chunks to the common
denominator L of them all: the ints L * v(S) for TUGame.from_scaled.
A sparse table takes this path when it lists at least a quarter of the
coalitions: each coalition's key is spelt as game_doc spells it and
looked up in the file's object once, and every key must be found that
way.  Any other worth or key (a decimal, an exponent, a JSON number with
a fraction, a bool, bad text, a key with a space) sends the table to the
per-literal reader, which reads each key and literal in file order and
raises the ParseError of the first bad one, naming its place.

Malformed structure raises ParseError.  Well-formed files violating game
constraints (player cap, nonzero empty worth) raise the matching
DomainError from the game layer.

The canonical text of a game is json.dumps(game_doc(v), indent=2), byte
for byte.  One writer makes it for serialise_game and, as the items of a
JSON list, for `coopvals sample --format json`: the keys of the nonzero
coalitions, picked from one key table, and their worths, spelled in one
pass, are joined into the worths object as one string, with no dict and
no encoder call; the labels and the player count go through _json_text,
which writes every JSON document of the command line tool as
json.dumps(doc, indent=2) does, with json's C string encoder and without
its pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quoted
from operator import mul
from typing import NoReturn, Tuple, Union

from .errors import ParseError, PlayerCountExceeded, TooFewPlayers
from .game import TUGame, _denominator, _from_pairs, _spelled, player_cap

__all__ = ["parse_game_file", "serialise_game", "game_doc"]

_KEY_RE = re.compile(r"[1-9][0-9]*(?:,[1-9][0-9]*)*", re.ASCII)

# Groups: integer part, "/" denominator, "." fraction digits, exponent.
_LITERAL_RE = re.compile(
    r"([-+]?\d+)(?:/(\d*[1-9]\d*)|(\.\d+)?(?:[eE]([-+]?\d+))?)", re.ASCII
)
MAX_LITERAL_LENGTH = 1000

# The characters of integer and "p/q" literals, checked on a chunk of
# literals at a time.  The bulk reader reads a chunk at a time too, and
# keeps the pieces it splits a chunk into until the chunk is read: at 1024
# literals they stay in cache, and a 2^16 table reads in about 26 ms
# against 32 ms at 4096 (CPython 3.11, 2-CPU x86-64 Linux).
_PLAIN_CHARS = re.compile(r"[-+/0-9]*")
_CHUNK = 1024

_TOP_LEVEL_KEYS = {"players", "labels", "worths", "worths_by_mask"}


def _no_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return doc


def _no_nonfinite(token):
    raise ParseError(f"non-finite number {token!r} is not a rational")


def _place(where) -> str:
    """The place named in an error message.  Per-worth callers pass a (table,
    key) pair, so the place is spelled only when there is an error."""
    return where if isinstance(where, str) else f"{where[0]}[{where[1]!r}]"


def _checked_literal(text: str, where) -> re.Match:
    """The match of a literal in the documented grammar, within the cap."""
    match = _LITERAL_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"{_place(where)}: {text[:40]!r} is not a rational literal")
    # The length test comes first: it keeps int() off oversized literals and
    # exponents.
    if len(text) > MAX_LITERAL_LENGTH or (
        match[4] and abs(int(match[4])) > MAX_LITERAL_LENGTH - len(text)
    ):
        raise ParseError(
            f"{_place(where)}: literal longer than {MAX_LITERAL_LENGTH} characters"
        )
    return match


def _pair(text: str, where) -> Tuple[int, int]:
    """The exact value p / q of a rational literal in the documented grammar,
    as the int pair (p, q) with q > 0, not necessarily reduced."""
    whole, denominator, decimals, exponent = _checked_literal(text, where).groups()
    if denominator is not None:
        return int(whole), int(denominator)
    digits = decimals[1:] if decimals else ""
    p, q = int(whole + digits), 10 ** len(digits)
    if exponent is not None:
        e = int(exponent)
        if e >= 0:
            p *= 10**e
        else:
            q *= 10**-e
    return p, q


def _literal(text: str, where) -> Fraction:
    """The exact value of a rational literal in the documented grammar."""
    return Fraction(*_pair(text, where))


def _json_int(token: str) -> int:
    _checked_literal(token, "JSON integer")
    return int(token)


def _to_pair(value, where) -> Tuple[int, int]:
    # Strings first: they are the common case, and testing them against
    # Fraction would take the slow abstract-class path.  A Fraction is a JSON
    # number with a fraction or an exponent, read by _literal.
    if isinstance(value, str):
        return _pair(value, where)
    if isinstance(value, bool):
        raise ParseError(f"{_place(where)}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ParseError(
        f"{_place(where)}: expected a rational, got {type(value).__name__}"
    )


def _refuse_key(key: str, n: int) -> NoReturn:
    """Raise the ParseError that says why key names no coalition of n players."""
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise ParseError(f"bad coalition key {key!r}")
    previous = 0
    for token in key.split(","):
        # Keys have no leading zeros, so a token longer than n's digits names
        # a player above n; int() never reads it, however long it is.
        player = int(token) if len(token) <= len(str(n)) else n + 1
        if player <= previous:
            raise ParseError(
                f"coalition key {key!r} is not strictly increasing"
            )
        if player > n:
            raise ParseError(
                f"coalition key {key!r} names player {token} of {n}"
            )
        previous = player
    raise ParseError(f"bad coalition key {key!r}")


def parse_game_file(data: Union[bytes, str]) -> TUGame:
    """Parse a UTF-8 JSON game file into a TUGame, exactly."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(
            data,
            parse_int=_json_int,
            parse_float=lambda token: _literal(token, "JSON number"),
            parse_constant=_no_nonfinite,
            object_pairs_hook=_no_duplicate_keys,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply") from None

    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")

    if "players" not in doc:
        raise ParseError("missing required key 'players'")
    n = doc["players"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError("'players' must be an integer")
    if n < 1:
        raise TooFewPlayers(f"need at least one player, got {n}")
    if n > player_cap():
        raise PlayerCountExceeded(f"{n} players exceeds the cap of {player_cap()}")

    labels = None
    if "labels" in doc:
        raw = doc["labels"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ParseError(f"'labels' must be a list of {n} strings")
        if not all(isinstance(s, str) for s in raw):
            raise ParseError("'labels' entries must be strings")
        labels = raw

    has_sparse = "worths" in doc
    has_dense = "worths_by_mask" in doc
    if has_sparse == has_dense:
        raise ParseError("exactly one of 'worths' and 'worths_by_mask' is required")

    if has_sparse:
        table = doc["worths"]
        if not isinstance(table, dict):
            raise ParseError("'worths' must be an object")
        values = _listed_by_mask(table, n)
        scaled = None if values is None else _plain_scaled(values)
        if scaled is None:
            return _from_pairs(n, _sparse_pairs(table, n), labels)
    else:
        dense = doc["worths_by_mask"]
        if not isinstance(dense, list):
            raise ParseError("'worths_by_mask' must be a list")
        if len(dense) != (1 << n):
            raise ParseError(
                f"'worths_by_mask' must have {1 << n} entries, got {len(dense)}"
            )
        scaled = _plain_scaled(dense)
        if scaled is None:
            pairs = [
                _to_pair(value, ("worths_by_mask", index))
                for index, value in enumerate(dense)
            ]
            return _from_pairs(n, pairs, labels)
    return TUGame.from_scaled(n, *scaled, labels)


def _plain_scaled(values: list) -> Tuple[int, list] | None:
    """(L, [L * value for each value]), L the common denominator, when every
    value is a JSON int or a string spelling an integer or "p/q"; None when
    one is anything else, or when L would pass SCALE_CAP.

    The length and charset guards run on the whole table before any int():
    each string is at most MAX_LITERAL_LENGTH characters of ASCII digits,
    signs and "/".  Then each _CHUNK of values is partitioned at its first
    "/" once and read over the chunk's own denominator K, after the tail
    guards of that chunk: a text after a "/" is all digits and not all
    zeros ("5/" has an empty one).  int() reads a numerator in that
    alphabet only if it is an optional sign and digits, so what is read
    here is what _pair reads.  The chunks are joined over L, the lcm of
    their K, which is the lcm of every denominator.
    """
    kinds = set(map(type, values))
    if not kinds <= {int, str}:  # a bool, a JSON number's Fraction, ...
        return None
    texts = values if int not in kinds else [x for x in values if type(x) is str]
    if max(map(len, texts), default=0) > MAX_LITERAL_LENGTH:
        return None
    # One bounded join per chunk, never a copy of the whole table.
    for start in range(0, len(texts), _CHUNK):
        if not _PLAIN_CHARS.fullmatch("".join(texts[start:start + _CHUNK])):
            return None
    parts = []  # (K, the chunk's values times K)
    for start in range(0, len(values), _CHUNK):
        # An int reads as its own numerator, over 1.
        split = [
            x.partition("/") if type(x) is str else (x, "", "")
            for x in values[start:start + _CHUNK]
        ]
        tails = {q for _, slash, q in split if slash}
        # "" (as in "5/"), "+2" and "2/3" (as in "1/2/3") are not digits.
        if not all(map(str.isdigit, tails)):
            return None
        denominators = {q: int(q) for q in tails}
        if 0 in denominators.values():
            return None
        K = _denominator(denominators.values())
        if K is None:
            return None
        factor = {q: K // d for q, d in denominators.items()}
        factor[""] = K  # integers: partition leaves an empty tail
        try:
            parts.append((K, [int(p) * factor[q] for p, _, q in split]))
        except ValueError:  # a numerator such as "", "+" or "1-2"
            return None
    L = _denominator(K for K, _ in parts)
    if L is None:
        return None
    W = []
    for K, part in parts:
        W += part if K == L else map(mul, part, repeat(L // K))
    return L, W


def _listed_by_mask(table: dict, n: int) -> list | None:
    """The values of a sparse worths table in coalition order, with "0" for
    each coalition not listed, when every key spells a coalition as game_doc
    does; None when some key does not, or when the table lists fewer than
    a quarter of the coalitions.

    Each coalition's key is spelt from two half-width key tables and looked
    up in table once; no table of all the keys is built.  Valid keys are
    exactly these spellings, so they are all found when the hits, the
    values that are not "0", number len(table).  This costs time per
    coalition and _sparse_pairs per listed key; at n = 16 and n = 20 the
    two take the same time when a quarter of the coalitions are listed.
    """
    if 4 * len(table) < 1 << n:
        return None
    half = n // 2
    low, high = _key_table(0, half)[1:], _key_table(half, n)
    get = table.get
    values = []
    for high_key in high:  # the coalitions S with S >> half the same
        if high_key:
            values.append(get(high_key, "0"))
            glue = "," + high_key
            values += [get(key + glue, "0") for key in low]
        else:
            values.append("0")  # the empty coalition has no key
            values += [get(key, "0") for key in low]
    if len(values) - values.count("0") != len(table):
        return None
    return values


def _sparse_pairs(table: dict, n: int) -> list:
    """The (p, q) pair of every coalition of a sparse worths table, (0, 1)
    where it is not listed, read one key and one literal at a time; raises
    the ParseError of the first bad key or literal in file order."""
    # Valid keys are distinct (JSON keys are unique and each coalition has
    # one spelling) and never name the empty coalition.
    bits = {str(i + 1): 1 << i for i in range(n)}
    worths = [(0, 1)] * (1 << n)
    for key, value in table.items():
        mask = 0
        for token in key.split(","):
            bit = bits.get(token, 0)
            if bit <= mask:  # not a player, or not above the ones before
                _refuse_key(key, n)
            mask |= bit
        worths[mask] = _to_pair(value, ("worths", key))
    return worths


def _key_table(first: int, stop: int) -> list:
    """Keys of the coalitions of players first .. stop - 1 (0-based), indexed
    by their bit pattern shifted down by first; "" for the empty one."""
    keys = [""]
    for i in range(first, stop):
        token = str(i + 1)
        keys += [token] + [f"{key},{token}" for key in keys[1:]]
    return keys


def _head(v: TUGame) -> dict:
    """The members of v's document before its worths."""
    head: dict = {"players": v.n}
    if v.labels is not None:
        head["labels"] = list(v.labels)
    return head


def _worth_items(v: TUGame) -> Tuple[list, list]:
    """The keys and the spelled worths of v's nonzero coalitions, in mask
    order: the keys picked from one key table of every coalition, the worths
    spelled by _spelled in one pass."""
    L, W = v.scaled
    (texts,) = _spelled((L, list(compress(W, W))))
    return list(compress(_key_table(0, v.n), W)), texts


def game_doc(v: TUGame) -> dict:
    """The canonical sparse JSON document for v (zero worths omitted)."""
    return {**_head(v), "worths": dict(zip(*_worth_items(v)))}


# The text of a leaf of a document by its exact type, as json.dumps writes it.
_LEAVES = {
    str: _quoted,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(doc, pad: str = "") -> str:
    """json.dumps(doc, indent=2), byte for byte, with every line after the
    first indented by pad more, as when doc is nested at that depth.

    Keys and strings go through json's own encode_basestring_ascii, ints
    through int.__repr__, a list of leaves of one type through one map, and
    tuples as lists.  Raises TypeError on a float, on a key that is not a
    str (which json.dumps would convert) and on any other type.
    """
    leaf = _LEAVES.get(type(doc))
    if leaf is not None:
        return leaf(doc)
    inner = pad + "  "
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        kinds = {*map(type, doc)}
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, doc) if leaf else [_json_text(x, inner) for x in doc]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        members = []
        for key, x in doc.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaf = _LEAVES.get(type(x))
            members.append(_quoted(key) + ": " + (leaf(x) if leaf else _json_text(x, inner)))
        return "{\n" + inner + (",\n" + inner).join(members) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _doc_text(v: TUGame, pad: str = "") -> str:
    """json.dumps(game_doc(v), indent=2), byte for byte, with every line
    after the first indented by pad more, as when the document is nested at
    that depth.

    The worths object is one join of its items, with no dict and no
    encoder: a key and a spelled worth hold only digits, ",", "/" and "-",
    which json writes as they are.  The members before it go through
    _json_text.
    """
    inner = pad + "  "
    members = [
        _quoted(key) + ": " + _json_text(value, inner) for key, value in _head(v).items()
    ]
    keys, texts = _worth_items(v)
    if keys:
        item_pad = inner + "  "
        items = f'",\n{item_pad}"'.join(map('": "'.join, zip(keys, texts)))
        members.append(f'"worths": {{\n{item_pad}"{items}"\n{inner}}}')
    else:
        members.append('"worths": {}')
    return "{\n" + inner + (",\n" + inner).join(members) + "\n" + pad + "}"


def _games_text(games) -> str:
    """json.dumps([game_doc(v) for v in games], indent=2), byte for byte."""
    texts = [_doc_text(v, "  ") for v in games]
    return "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"


def serialise_game(v: TUGame) -> str:
    """Canonical JSON text for v; parse_game_file round-trips it exactly."""
    return _doc_text(v) + "\n"
