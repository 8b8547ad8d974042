# Invariant-check smoke (run via `cmake -P` from ctest, see
# examples/CMakeLists.txt): drives flow_cli end-to-end with --check=full on a
# shrunken design and asserts that (a) the run exits 0 — flow_cli exits 2
# when any validator reports a violation — (b) the stdout summary reports
# zero violations, and (c) the JSON run report carries the per-checker
# "checks" section with every phase validator present.
#
# Inputs: -DFLOW_CLI=<path to flow_cli> -DWORK_DIR=<writable directory>

if(NOT DEFINED FLOW_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "check_smoke: FLOW_CLI and WORK_DIR must be defined")
endif()

set(report "${WORK_DIR}/check_smoke_report.json")

execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 400 --flow ours
          --check full --report "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_cli --check full failed (${rc}):\n${out}\n${err}")
endif()

string(FIND "${out}" "check violations: 0 (full level)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected a zero-violation check summary, got:\n${out}")
endif()

file(READ "${report}" report_text)
# The report must record the check level and one entry per phase validator.
foreach(key "checks" "check_level")
  string(FIND "${report_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report missing \"${key}\":\n${report_text}")
  endif()
endforeach()
foreach(checker "netlist" "cluster" "place" "route")
  string(FIND "${report_text}" "\"checker\": \"${checker}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report has no ${checker} check entry:\n${report_text}")
  endif()
endforeach()
string(REGEX MATCH "\"violations\": [1-9]" dirty "${report_text}")
if(dirty)
  message(FATAL_ERROR "report records violations:\n${report_text}")
endif()

message(STATUS "check smoke OK: ${report}")
