#!/usr/bin/env python3
"""Validate a secpb-trace workload file written by --trace-record.

An independent re-implementation of the v1 binary format, so a bug in
the C++ writer/reader pair cannot self-certify. Checks, in order:

  1. the header is well-formed: magic, version 1, encoding tag, meta
     entries, and the op count;
  2. every op record decodes, with a known kind, a known cache level,
     8-byte-aligned store addresses, varints within 64 bits, and
     instruction counts and ASIDs within 32 bits;
  3. the payload holds exactly the promised number of ops -- no early
     EOF, no trailing bytes after it.

Exit status 0 on success; 1 with a diagnostic on the first violation.
Usage: tools/validate_trace_file.py TRACE.trc [--min-ops N]
       [--expect-meta key=value]...
"""

import argparse
import sys

MAGIC = b"SECPBTRC"
VERSION = 1


def fail(msg: str) -> None:
    print(f"validate_trace_file: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Counts:
    def __init__(self) -> None:
        self.instr = self.load = self.store = self.barrier = 0

    def total(self) -> int:
        return self.instr + self.load + self.store + self.barrier


def read_varint(data: bytes, pos: int, what: str) -> tuple[int, int]:
    value = 0
    for shift in range(0, 64, 7):
        if pos >= len(data):
            fail(f"truncated varint in {what}")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if shift == 63 and byte > 1:
            fail(f"varint overflows 64 bits in {what}")
        if not byte & 0x80:
            return value, pos
    return 0, pos  # unreachable


def read_u32(data: bytes, pos: int, what: str) -> tuple[int, int]:
    value, pos = read_varint(data, pos, what)
    if value >= 1 << 32:
        fail(f"{what}: {value} does not fit 32 bits")
    return value, pos


def read_string(data: bytes, pos: int, what: str) -> tuple[str, int]:
    n, pos = read_varint(data, pos, what)
    if pos + n > len(data):
        fail(f"truncated meta string in {what}")
    return data[pos:pos + n].decode("utf-8", "replace"), pos + n


def check_store_alignment(addr: int, where: str) -> None:
    if addr % 8 != 0:
        fail(f"{where}: store address {addr:#x} is not 8-byte aligned")


def validate(data: bytes) -> tuple[dict, Counts]:
    if data[:len(MAGIC)] != MAGIC:
        fail(f"bad magic (want {MAGIC.decode()}), not a secpb-trace")
    pos = len(MAGIC)
    if len(data) < pos + 2 + 1 + 1 + 8:
        fail("binary header shorter than its fixed fields")
    version = int.from_bytes(data[pos:pos + 2], "little")
    if version != VERSION:
        fail(f"unsupported trace version {version} (want {VERSION})")
    pos += 2
    if data[pos] != 1:
        fail(f"binary header carries encoding tag {data[pos]}")
    n_meta = data[pos + 1]
    pos += 2
    num_ops = int.from_bytes(data[pos:pos + 8], "little")
    pos += 8

    meta = {}
    for _ in range(n_meta):
        key, pos = read_string(data, pos, "meta key")
        value, pos = read_string(data, pos, "meta value")
        meta[key] = value

    counts = Counts()
    for i in range(num_ops):
        where = f"op[{i}]"
        if pos >= len(data):
            fail(f"truncated after {i} of {num_ops} ops")
        tag = data[pos]
        pos += 1
        kind, level = tag & 0x0F, (tag >> 4) & 0x0F
        if kind > 3 or level > 3:
            fail(f"{where}: corrupt op tag {tag:#04x}")
        if kind == 0:  # instr bundle
            _, pos = read_u32(data, pos, f"{where} instr count")
            counts.instr += 1
        elif kind == 1:  # load
            _, pos = read_varint(data, pos, where)
            _, pos = read_u32(data, pos, f"{where} asid")
            counts.load += 1
        elif kind == 2:  # store
            addr, pos = read_varint(data, pos, where)
            check_store_alignment(addr, where)
            if pos + 8 > len(data):
                fail(f"{where}: truncated store value")
            pos += 8
            _, pos = read_u32(data, pos, f"{where} asid")
            counts.store += 1
        else:  # barrier
            _, pos = read_u32(data, pos, f"{where} asid")
            counts.barrier += 1

    if pos != len(data):
        fail(f"{len(data) - pos} trailing bytes after the last op")
    return meta, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="secpb-trace file")
    parser.add_argument("--min-ops", type=int, default=1,
                        help="require at least N ops")
    parser.add_argument("--expect-meta", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="require this meta entry (repeatable)")
    args = parser.parse_args()

    try:
        with open(args.trace, "rb") as f:
            data = f.read()
    except OSError as e:
        fail(f"{args.trace}: {e}")

    meta, counts = validate(data)

    for want in args.expect_meta:
        key, _, value = want.partition("=")
        if meta.get(key) != value:
            fail(f"meta {key}={meta.get(key)!r}, expected {value!r}")

    if counts.total() < args.min_ops:
        fail(f"only {counts.total()} ops (need >= {args.min_ops})")

    print(f"validate_trace_file: OK: v{VERSION}, "
          f"{counts.total()} ops ({counts.instr} instr, {counts.load} "
          f"load, {counts.store} store, {counts.barrier} barrier), "
          f"{len(meta)} meta entries")


if __name__ == "__main__":
    main()
