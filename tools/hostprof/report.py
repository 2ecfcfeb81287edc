#!/usr/bin/env python3
"""Symbolise hostprof samples and report where host time went (README.md).

Reads every pcs.<pid> / maps.<pid> pair in a directory, maps each sampled PC
to its ELF file through the process's maps, symbolises it with
`addr2line -i` and prints the top functions two ways: innermost (the inlined
function the PC is in) and outermost (the real function that inlined it).

    python3 tools/hostprof/report.py [DIR] [--top N] [--pid PID ...]
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys
from pathlib import Path


def read_maps(path):
    """Executable file-backed mappings: sorted [(start, end, offset, file)]."""
    out = []
    for line in Path(path).read_text().splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        out.append((start, end, int(parts[2], 16), parts[5]))
    out.sort()
    return out


def load_segments(path):
    """PT_LOAD (file offset, vaddr, file size) of a 64-bit ELF file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def to_vaddr(segs, off):
    """The link-time address addr2line wants for file offset `off`."""
    for p_offset, p_vaddr, p_filesz in segs:
        if p_offset <= off < p_offset + p_filesz:
            return off - p_offset + p_vaddr
    return None


def symbolise(elf, addrs):
    """{vaddr: [innermost function, ..., outermost function]}."""
    frames = {}
    addrs = sorted(addrs)
    for i in range(0, len(addrs), 4096):
        chunk = addrs[i:i + 4096]
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", elf] +
            [hex(a) for a in chunk],
            capture_output=True, text=True, check=True).stdout.splitlines()
        current = None
        want_function = True  # lines are address, then (function, file:line)*
        for line in out:
            if want_function and line.startswith("0x"):
                current = int(line, 16)
                frames[current] = []
            elif want_function:
                frames[current].append(line)
                want_function = False
            else:
                want_function = True
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", default=".")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--pid", type=int, action="append",
                    help="only these processes (repeatable)")
    args = ap.parse_args()

    per_pid = {}
    by_elf = collections.defaultdict(collections.Counter)  # elf -> vaddr -> n
    unmapped = 0
    for pcs in sorted(Path(args.dir).glob("pcs.*")):
        pid = int(pcs.suffix[1:])
        if args.pid and pid not in args.pid:
            continue
        maps = read_maps(pcs.with_name(f"maps.{pid}"))
        starts = [m[0] for m in maps]
        segs = {}
        n = 0
        for line in pcs.read_text().split():
            pc = int(line, 16)
            n += 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                unmapped += 1
                continue
            start, _, offset, elf = maps[i]
            if elf not in segs:
                segs[elf] = load_segments(elf) if os.path.exists(elf) else []
            vaddr = to_vaddr(segs[elf], pc - start + offset)
            if vaddr is None:
                unmapped += 1
                continue
            by_elf[elf][vaddr] += 1
        per_pid[pid] = n
    total = sum(per_pid.values())
    if total == 0:
        sys.exit(f"no samples in {args.dir}")

    inner = collections.Counter()
    outer = collections.Counter()
    modules = collections.Counter()
    for elf, counts in by_elf.items():
        frames = symbolise(elf, counts)
        name = os.path.basename(elf)
        for vaddr, n in counts.items():
            chain = [f for f in frames.get(vaddr, []) if f != "??"]
            modules[name] += n
            inner[chain[0] if chain else f"?? ({name})"] += n
            outer[chain[-1] if chain else f"?? ({name})"] += n

    print(f"{total} samples from {len(per_pid)} processes: " +
          ", ".join(f"{p}:{n}" for p, n in sorted(per_pid.items())))
    if unmapped:
        modules["(no file: vdso, anonymous)"] += unmapped
    for title, counter in (("module", modules), ("innermost", inner),
                           ("outermost", outer)):
        print(f"\n== {title}")
        for what, n in counter.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:8d}  {what}")


if __name__ == "__main__":
    main()
