# Telemetry smoke check (run via `cmake -P` from ctest, see
# examples/CMakeLists.txt): drives flow_cli end-to-end with --report/--trace
# on a shrunken design, then validates that the run report carries every flow
# phase, the lane count and the per-iteration placer spans, and that the trace
# file is a Chrome trace_event document. The flat and sharded placement
# strategies must report their own placement phase too (flowbench's place_s
# sums them), and, being --place-only runs, no "ppa" block.
#
# Inputs: -DFLOW_CLI=<path to flow_cli> -DWORK_DIR=<writable directory>

if(NOT DEFINED FLOW_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "telemetry_smoke: FLOW_CLI and WORK_DIR must be defined")
endif()

set(report "${WORK_DIR}/telemetry_smoke_report.json")
set(trace "${WORK_DIR}/telemetry_smoke_trace.json")

execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 400 --flow ours
          --report "${report}" --trace "${trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_cli failed (${rc}):\n${out}\n${err}")
endif()

file(READ "${report}" report_text)
# Every flow phase plus the placer counter and spans must be present in the
# report.
foreach(key
    "schema_version" "lanes" "phases" "spans" "metrics" "options" "place" "ppa"
    "flow.cluster" "flow.shape" "flow.seed_place" "flow.incremental_place"
    "flow.route" "flow.cts" "flow.sta"
    "place.gp.iterations" "place.gp.iter")
  string(FIND "${report_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report missing \"${key}\":\n${report_text}")
  endif()
endforeach()
# Phase durations must be nonzero: a literal zero seconds means the span
# never actually measured anything.
string(REGEX MATCH "\"seconds\": 0[,\n]" zero_phase "${report_text}")
if(zero_phase)
  message(FATAL_ERROR "report has a zero-duration phase:\n${report_text}")
endif()

file(READ "${trace}" trace_text)
foreach(key "traceEvents" "displayTimeUnit" "flow.cluster")
  string(FIND "${trace_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace missing \"${key}\"")
  endif()
endforeach()

# One placement phase per strategy: flat and sharded runs (placement only).
set(strategy_report "${WORK_DIR}/telemetry_smoke_strategy_report.json")
foreach(strategy IN ITEMS
    "flow.global_place|--flow default"
    "flow.sharded_place|--flow ours --sharded --shards 4")
  string(REPLACE "|" ";" strategy "${strategy}")
  list(GET strategy 0 phase)
  list(GET strategy 1 flags)
  separate_arguments(flags UNIX_COMMAND "${flags}")
  execute_process(
    COMMAND "${FLOW_CLI}" --design aes --cells 400 --place-only ${flags}
            --report "${strategy_report}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flow_cli ${flags} failed (${rc}):\n${out}\n${err}")
  endif()
  file(READ "${strategy_report}" strategy_text)
  string(FIND "${strategy_text}" "\"${phase}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report of ${flags} missing \"${phase}\":\n${strategy_text}")
  endif()
  # --place-only measures no PPA, so the report must not claim any.
  string(FIND "${strategy_text}" "\"ppa\"" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "place-only report of ${flags} has \"ppa\":\n${strategy_text}")
  endif()
endforeach()

message(STATUS "telemetry smoke OK: ${report}")
