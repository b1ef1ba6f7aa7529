"""Record schema for flight recordings: canonical, bit-exact JSONL.

Every record is one JSON line of the shape::

    {"v": 2, "seq": N, "kind": K, "tick": T, "node": NAME, "data": {...}}

serialised canonically (sorted keys, no whitespace) so byte equality of
two lines is exactly semantic equality of two records.  Floats are the
classic JSON determinism hazard — ``repr`` round-trips but invites
rounding at every boundary — so every float payload is hex-encoded as
``"f64:" + struct.pack("<d", v).hex()``: sixteen hex digits of the
IEEE-754 little-endian bits, bit-exact by construction.  Strings that
could collide with an encoded float (or with this escape itself) are
escaped with an ``"s:"`` prefix.

Every record kind is in :data:`DETERMINISTIC_KINDS`: the replayable
stream.  Two runs built from the same recipe must produce
byte-identical streams; tier-1 tests enforce it.  ``seq`` numbers the
records in order, and :func:`parse_line` refuses a line of any other
kind, so a recording cannot smuggle unchecked records past a replay.
"""

from __future__ import annotations

import json
import struct

__all__ = [
    "DETERMINISTIC_KINDS",
    "SCHEMA_VERSION",
    "canonical_line",
    "decode_value",
    "encode_value",
    "is_deterministic",
    "parse_line",
]

SCHEMA_VERSION = 2

#: Replayable record kinds: byte-identical across runs of the same recipe.
DETERMINISTIC_KINDS = frozenset(
    {
        "header",  # schema version + the recipe that produced the run
        "start",  # fleet composition at scheduler start
        "tick",  # per-core perception-counter deltas (only ticks that move them)
        "observation",  # a cache miss leaving the lookup stage
        "verdict",  # the classification a miss resolved to
        "negotiation",  # sign_observed / protocol_state transitions
        "world",  # any other world-log event (mission lifecycle &c.)
        "report",  # final FleetReport counters
        "end",  # footer: deterministic event count + stream digest
    }
)

_FLOAT_PREFIX = "f64:"
_STRING_PREFIX = "s:"


def is_deterministic(kind: str) -> bool:
    """Return True if *kind* belongs to the replayable stream."""
    return kind in DETERMINISTIC_KINDS


_pack_double = struct.Struct("<d").pack
# No circular-reference bookkeeping: records are trees (encode_value would
# recurse forever on a cycle first, and the tap builds its own fresh).
_canonical_encoder = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
)


def _encode_float(value: float) -> str:
    return _FLOAT_PREFIX + _pack_double(value).hex()


def _encode_str(value: str) -> str:
    if value.startswith((_FLOAT_PREFIX, _STRING_PREFIX)):
        return _STRING_PREFIX + value
    return value


# The two container encoders keep an exact int without a call: it is
# already canonical, and most of a tick record is int counters.
def _encode_dict(value: dict) -> dict:
    return {
        str(key): item if type(item) is int else encode_value(item)
        for key, item in value.items()
    }


def _encode_sequence(value) -> list:
    return [item if type(item) is int else encode_value(item) for item in value]


def _keep(value):
    return value


# Every record of a fleet run passes through encode_value, so exact
# built-in types dispatch through one lookup; subclasses (numpy floats,
# int enums, named tuples, ...) match by isinstance.  The type families
# are disjoint, so the order of the entries does not matter.
_ENCODERS = {
    float: _encode_float,
    str: _encode_str,
    dict: _encode_dict,
    list: _encode_sequence,
    tuple: _encode_sequence,
    int: _keep,
    bool: _keep,
    type(None): _keep,
}


def encode_value(value):
    """Recursively encode *value* into its canonical JSON-safe form.

    Floats become ``f64:`` hex strings; strings that could be mistaken
    for an encoded float gain an ``s:`` escape; tuples become lists.
    Dict keys must already be strings.
    """
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    for base, encoder in _ENCODERS.items():
        if isinstance(value, base):
            return encoder(value)
    raise TypeError(f"cannot record value of type {type(value).__name__}: {value!r}")


def decode_value(value):
    """Invert :func:`encode_value`, restoring floats and escaped strings."""
    if isinstance(value, str):
        if value.startswith(_FLOAT_PREFIX):
            return struct.unpack("<d", bytes.fromhex(value[len(_FLOAT_PREFIX) :]))[0]
        if value.startswith(_STRING_PREFIX):
            return value[len(_STRING_PREFIX) :]
        return value
    if isinstance(value, dict):
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def canonical_line(record: dict) -> str:
    """Serialise an (already encoded) *record* as one canonical JSON line."""
    return _canonical_encoder.encode(record)


def parse_line(line: str) -> dict:
    """Parse one canonical line back into its raw (still-encoded) record.

    Raises ``ValueError`` for a line that is not an object or whose
    ``kind`` is not one of :data:`DETERMINISTIC_KINDS`.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"flight record line is not an object: {line!r}")
    kind = record.get("kind")
    if not (isinstance(kind, str) and is_deterministic(kind)):
        raise ValueError(f"unknown flight-record kind: {kind!r}")
    return record
