#!/usr/bin/env bash
# Docs lint: cross-check the metric/span name catalogue in docs/METRICS.md
# and the knob table in docs/ARCHITECTURE.md against the source tree.
#
#   1. Every metric or span name literal in src/ must be documented
#      (backticked) in docs/METRICS.md.
#   2. Every documented name must still exist as a literal in src/ — no
#      dangling catalogue entries.
#   3. Every data member of the serving-path option structs must have a
#      row in docs/ARCHITECTURE.md "Where the knobs live", and every row
#      there must name a current member.
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
prefixes='admission|store_broker|cache|client|server|compaction|isolation|config|overload|trace|rpc|kv|codec|feature|assembler|query'
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

# Knob table. Fields are read lexically: each member of these structs is
# declared on one line, and a member whose type is itself an options struct
# only nests another table, so it has no row.
knob_doc="docs/ARCHITECTURE.md"
knob_structs=(
  src/server/ips_instance.h:IpsInstanceOptions
  src/cache/gcache.h:GCacheOptions
  src/compaction/manager.h:CompactionManagerOptions
  src/server/persistence.h:PersisterOptions
  src/server/overload.h:OverloadControllerOptions
  src/cluster/deployment.h:DeploymentOptions
  src/cluster/client.h:IpsClientOptions
  src/cluster/retry_policy.h:RetryPolicyOptions
  src/cluster/circuit_breaker.h:CircuitBreakerOptions
  src/common/trace_collector.h:TraceCollectorOptions
  src/ingest/bulk_import.h:BulkImportOptions
)

struct_fields() {
  local header="$1" struct="$2"
  awk -v s="${struct}" '
    $0 ~ "^struct " s " [{]" { inside = 1; found = 1; next }
    inside && /^};/ { inside = 0 }
    inside {
      line = $0
      sub(/[[:space:]]*\/\/.*$/, "", line)
      if (line !~ /;[[:space:]]*$/) next
      sub(/[[:space:]]*(=[^;]*)?;[[:space:]]*$/, "", line)
      sub(/^[[:space:]]+/, "", line)
      if (line ~ /^[A-Za-z]+Options[[:space:]]/) next
      n = split(line, parts, /[[:space:]*&]+/)
      print s "::" parts[n]
    }
    END { if (!found) print "MISSING-STRUCT " s }' "${header}"
}

knob_fields=$(for pair in "${knob_structs[@]}"; do
  struct_fields "${pair%%:*}" "${pair##*:}"
done | sort)
if grep -q '^MISSING-STRUCT' <<<"${knob_fields}"; then
  echo "check_docs: option structs not found where expected:" >&2
  grep '^MISSING-STRUCT' <<<"${knob_fields}" | sed 's/^MISSING-STRUCT /  /' >&2
  fail=1
fi
# Table rows of the knob section: | `Struct::field` | second caller |
knob_rows=$(awk '/^## Where the knobs live/ { on = 1; next }
                 on && /^## / { on = 0 }
                 on' "${knob_doc}" |
  grep -oE '^\| `[A-Za-z]+Options::[a-z0-9_]+`' | tr -d '|` ' | sort)
unlisted=$(comm -23 <(echo "${knob_fields}") <(echo "${knob_rows}"))
if [[ -n "${unlisted}" ]]; then
  echo "check_docs: option fields missing from ${knob_doc} \"Where the knobs live\":" >&2
  echo "${unlisted}" | sed 's/^/  /' >&2
  fail=1
fi
stale=$(comm -13 <(echo "${knob_fields}") <(echo "${knob_rows}"))
if [[ -n "${stale}" ]]; then
  echo "check_docs: knob rows in ${knob_doc} naming no current field:" >&2
  echo "${stale}" | sed 's/^/  /' >&2
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: $(echo "${src_names}" | wc -l) metric/span names consistent with ${doc}"
echo "check_docs: $(echo "${knob_fields}" | wc -l) option fields consistent with ${knob_doc}"
