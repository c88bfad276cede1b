"""The digests as they were computed before the numpy FNV-1a kernel and the
directly written value-map text, kept as test oracles: the FNV-1a byte
loop, the JSON form of a value map that ``digest_map`` used to serialize,
and ``cmd_build``'s report with its digest."""

from vrclosure.pipeline import canonical_json

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(text):
    """64-bit FNV-1a of the UTF-8 bytes, one byte at a time."""
    h = FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def map_json_dict(f):
    """The removed ``DiscreteMap.to_json_dict``."""
    return {
        "base": str(f.base_value),
        "values": {str(i): str(f.values[i]) for i in range(f.domain.n_samples)},
    }


def digest_map(f):
    return fnv1a64(canonical_json(map_json_dict(f)))


def build_report(body):
    """``cmd_build``'s stdout line for a complex's JSON body."""
    return canonical_json(dict(body, digest=fnv1a64(canonical_json(body))))

