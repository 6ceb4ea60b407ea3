#!/usr/bin/env python3
"""Convert an external memory trace to a secpb-trace v1 file.

Bridges third-party trace sources (pin/gem5-style access logs) into
the replay front end: the output loads with --trace-in / the replay
workload. The input grammar is the least common denominator of such
logs, one access per line, '#' comments ignored:

    R <addr> [asid]        load (address hex with 0x or decimal)
    W <addr> [asid]        store
    F [asid]               fence / persist barrier
    I <count>              explicit non-memory instruction bundle

Reads beyond the last-level cache are emitted as mem-level loads (the
conservative choice for a PM study: every read misses); store values
are synthesized deterministically from the op index since access logs
rarely carry data. Store addresses are aligned down to 8 bytes. Use
--think N to insert an N-instruction bundle between accesses when the
source log has no timing at all.

The output is the binary encoding src/workload/trace_file.hh defines:
a 20-byte header, length-prefixed meta strings, then one tag byte per
op followed by LEB128 varints.

Usage: tools/convert_memtrace.py IN.log OUT.trc [--think N]
"""

import argparse
import struct
import sys

MAGIC = b"SECPBTRC"
VERSION = 1
ENCODING = 1  # binary
INSTR, LOAD, STORE, BARRIER = range(4)
LEVEL_MEM = 3


def fail(msg: str) -> None:
    print(f"convert_memtrace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_int(word: str, where: str) -> int:
    try:
        return int(word, 0)
    except ValueError:
        fail(f"{where}: '{word}' is not a number")
    return 0  # unreachable


def varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def field(value: int, bits: int, where: str) -> bytes:
    """A varint that must fit @p bits, as the C++ reader demands."""
    if not 0 <= value < 1 << bits:
        fail(f"{where}: {value} does not fit {bits} unsigned bits")
    return varint(value)


def encode(ops: list[bytes], meta: list[tuple[str, str]]) -> bytes:
    out = bytearray(MAGIC)
    out += struct.pack("<HBBQ", VERSION, ENCODING, len(meta), len(ops))
    for key, value in meta:
        for s in (key, value):
            raw = s.encode("utf-8")
            out += varint(len(raw)) + raw
    for op in ops:
        out += op
    return bytes(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("infile", help="external access log")
    parser.add_argument("outfile", help="secpb-trace file to write")
    parser.add_argument("--think", type=int, default=0, metavar="N",
                        help="instruction bundle inserted between "
                             "accesses (default 0: none)")
    args = parser.parse_args()

    try:
        with open(args.infile, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{args.infile}: {e}")

    ops = []
    for n, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        where = f"{args.infile}:{n}"
        kind = words[0].upper()
        if args.think > 0 and kind in ("R", "W", "F") and ops:
            ops.append(bytes([INSTR]) + field(args.think, 32, "--think"))
        if kind == "R" and len(words) in (2, 3):
            addr = parse_int(words[1], where)
            asid = parse_int(words[2], where) if len(words) == 3 else 0
            ops.append(bytes([LOAD | LEVEL_MEM << 4]) +
                       field(addr, 64, where) + field(asid, 32, where))
        elif kind == "W" and len(words) in (2, 3):
            addr = parse_int(words[1], where) & ~0x7
            asid = parse_int(words[2], where) if len(words) == 3 else 0
            # Deterministic synthetic payload: logs carry no data.
            value = (len(ops) * 0x9E3779B97F4A7C15) % (1 << 64)
            ops.append(bytes([STORE]) + field(addr, 64, where) +
                       struct.pack("<Q", value) + field(asid, 32, where))
        elif kind == "F" and len(words) in (1, 2):
            asid = parse_int(words[1], where) if len(words) == 2 else 0
            ops.append(bytes([BARRIER]) + field(asid, 32, where))
        elif kind == "I" and len(words) == 2:
            count = parse_int(words[1], where)
            ops.append(bytes([INSTR]) + field(count, 32, where))
        else:
            fail(f"{where}: unrecognized record '{line}'")

    if not ops:
        fail(f"{args.infile}: no accesses found")

    meta = [("source", args.infile), ("converter", "convert_memtrace.py")]
    try:
        with open(args.outfile, "wb") as out:
            out.write(encode(ops, meta))
    except OSError as e:
        fail(f"{args.outfile}: {e}")

    print(f"convert_memtrace: OK: {len(ops)} ops -> {args.outfile}")


if __name__ == "__main__":
    main()
