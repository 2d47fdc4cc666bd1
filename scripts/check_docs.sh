#!/usr/bin/env bash
# Docs lint: cross-check the metric/span name catalogue in docs/METRICS.md
# against the source tree.
#
#   1. Every metric or span name literal in src/ must be documented
#      (backticked) in docs/METRICS.md.
#   2. Every documented name must still exist as a literal in src/ — no
#      dangling catalogue entries.
#
# Name extraction is purely lexical, which works because metric and span
# names are always spelled as full string literals with a known subsystem
# prefix (trace_collector.cc keeps the trace.stage.* table in full literals
# for exactly this reason).
set -euo pipefail

cd "$(dirname "$0")/.."

doc="docs/METRICS.md"
if [[ ! -f "${doc}" ]]; then
  echo "check_docs: ${doc} is missing" >&2
  exit 1
fi

# Subsystem prefixes that metric and span names may use.
prefixes='admission|broker|store_broker|cache|client|server|compaction|isolation|config|overload|trace|rpc|kv|codec|feature|assembler|query'
name_re="(${prefixes})\.[a-z0-9_.]+"

src_names=$(grep -rhoE "\"${name_re}\"" src | tr -d '"' | sort -u)
# Doc side: only backticked tokens that look like metric/span names, so
# prose references like `MetricsRegistry` don't count as catalogue entries.
doc_names=$(grep -hoE "\`${name_re}\`" "${doc}" | tr -d '\`' | sort -u)

fail=0
undocumented=$(comm -23 <(echo "${src_names}") <(echo "${doc_names}"))
if [[ -n "${undocumented}" ]]; then
  echo "check_docs: metric/span names in src/ missing from ${doc}:" >&2
  echo "${undocumented}" | sed 's/^/  /' >&2
  fail=1
fi
dangling=$(comm -13 <(echo "${src_names}") <(echo "${doc_names}"))
if [[ -n "${dangling}" ]]; then
  echo "check_docs: names documented in ${doc} but absent from src/:" >&2
  echo "${dangling}" | sed 's/^/  /' >&2
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: $(echo "${src_names}" | wc -l) metric/span names consistent with ${doc}"
