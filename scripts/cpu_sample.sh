#!/usr/bin/env bash
# Samples the CPU stacks of one command and prints where its CPU time goes.
#
#   scripts/cpu_sample.sh [--lib SO] [--top N] [--expect-self NAME] -- CMD...
#
# Runs CMD with the sampler (scripts/cpu_sampler.cc, built as
# build/bench/libips_cpu_sampler.so) preloaded: SIGPROF once per
# millisecond of the process's own CPU time, one stack per signal, written
# at exit. No system-wide tracing and no kernel setting is involved, so it
# works where `perf` is unavailable. The stacks are symbolized with
# addr2line against each binary's symbol table and tallied two ways:
#   self       share of samples whose innermost frame is in the function;
#   inclusive  share of samples with the function anywhere on the stack.
# Functions inlined into a caller count as that caller. Only CMD's own
# process is sampled (a child it starts writes its own file, ignored here).
#
# --expect-self NAME exits 1 unless a function whose name contains NAME is
# among the top N self entries (the ctest smoke uses it).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
lib="${root}/build/bench/libips_cpu_sampler.so"
top=20
expect=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --lib) lib="$2"; shift 2 ;;
    --top) top="$2"; shift 2 ;;
    --expect-self) expect="$2"; shift 2 ;;
    --) shift; break ;;
    *) echo "cpu_sample: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ $# -eq 0 ]]; then
  echo "usage: $0 [--lib SO] [--top N] [--expect-self NAME] -- CMD..." >&2
  exit 2
fi
if [[ ! -f "${lib}" ]]; then
  echo "cpu_sample: sampler library ${lib} not built" >&2
  exit 2
fi

LD_PRELOAD="${lib}${LD_PRELOAD:+:${LD_PRELOAD}}" "$@" &
pid=$!
status=0
wait "${pid}" || status=$?
raw="${TMPDIR:-/tmp}/ips_cpu_sample.${pid}"
if [[ ! -f "${raw}" ]]; then
  echo "cpu_sample: ${raw} was not written (exit status ${status})" >&2
  exit 1
fi
if [[ ${status} -ne 0 ]]; then
  echo "cpu_sample: command exited with status ${status}" >&2
fi

python3 - "${raw}" "${top}" "${expect}" <<'PY'
import collections
import os
import subprocess
import sys

raw, top, expect = sys.argv[1], int(sys.argv[2]), sys.argv[3]
stacks, maps, dropped = [], [], 0
with open(raw) as f:
    for line in f:
        kind, _, rest = line.partition(" ")
        if kind == "s":
            stacks.append([int(x, 16) for x in rest.split()])
        elif kind == "m":
            parts = rest.split(maxsplit=5)
            if len(parts) == 6 and "x" in parts[1]:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
        elif kind == "dropped":
            dropped = int(rest)
os.remove(raw)

def locate(pc):
    for lo, hi, offset, path in maps:
        if lo <= pc < hi:
            return path, pc - lo + offset
    return None, pc

# Callers' frames hold return addresses; look up the call instruction.
wanted = collections.defaultdict(set)
for stack in stacks:
    for depth, pc in enumerate(stack):
        path, addr = locate(pc if depth == 0 else pc - 1)
        if path and path.startswith("/"):
            wanted[path].add(addr)
names = {}
for path, addrs in wanted.items():
    addrs = sorted(addrs)
    proc = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                          input="".join("%x\n" % a for a in addrs),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    for i, addr in enumerate(addrs):
        name = lines[2 * i] if 2 * i < len(lines) else "??"
        if name == "??":
            name = "[%s]" % os.path.basename(path)
        names[(path, addr)] = name

def name_of(pc, depth):
    path, addr = locate(pc if depth == 0 else pc - 1)
    return names.get((path, addr), "[%s]" % os.path.basename(path or "?"))

self_counts, incl_counts = collections.Counter(), collections.Counter()
for stack in stacks:
    frames = [name_of(pc, d) for d, pc in enumerate(stack)]
    self_counts[frames[0]] += 1
    for name in set(frames):
        incl_counts[name] += 1

total = len(stacks)
print("cpu_sample: %d samples, %d dropped" % (total, dropped))
for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
    print("%s:" % title)
    for name, n in counts.most_common(top):
        short = name if len(name) <= 110 else name[:107] + "..."
        print("  %5.1f%%  %7d  %s" % (100.0 * n / max(total, 1), n, short))
if expect:
    if total == 0 or not any(expect in name
                             for name, _ in self_counts.most_common(top)):
        print("cpu_sample: FAIL: %s is not among the top %d self frames"
              % (expect, top))
        sys.exit(1)
    print("cpu_sample: PASS: %s is among the top %d self frames"
          % (expect, top))
PY
exit "${status}"
