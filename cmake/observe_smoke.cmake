# Flight-recorder smoke check (run via `cmake -P` from ctest, see
# examples/CMakeLists.txt): drives flow_cli end-to-end with --observe/--qor
# on a shrunken design, validates the event stream and QoR ledger, then
# exercises the full tools/metric_diff.py exit-code contract (0 self-diff,
# 1 regression with --fail-on-regression, 2 usage, 3 missing file, 4 bad
# schema) and renders the HTML dashboard from the recorded stream.
#
# Inputs: -DFLOW_CLI=<path> -DWORK_DIR=<writable dir> -DSOURCE_DIR=<repo root>

if(NOT DEFINED FLOW_CLI OR NOT DEFINED WORK_DIR OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "observe_smoke: FLOW_CLI, WORK_DIR, SOURCE_DIR required")
endif()

set(events "${WORK_DIR}/observe_smoke_events.json")
set(qor "${WORK_DIR}/observe_smoke.qor.json")
set(report "${WORK_DIR}/observe_smoke_report.json")

execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 400 --flow ours
          --observe=${events} --qor=${qor} --report "${report}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_cli failed (${rc}):\n${out}\n${err}")
endif()

# The event stream must carry the schema, every solver stream, and frames.
file(READ "${events}" events_text)
foreach(key
    "ppacd-observe-v1" "place.iter" "place.cg" "route.batch" "route.round"
    "route.heatmap" "sta.level" "sta.slack" "vpr.candidate" "cluster.level"
    "cluster.size" "cluster.cut" "samples" "frames")
  string(FIND "${events_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "event stream missing \"${key}\"")
  endif()
endforeach()

# The QoR ledger must carry final metrics plus convergence summaries.
file(READ "${qor}" qor_text)
foreach(key
    "ppacd-qor-v1" "metrics" "hpwl_um" "rwl_um" "wns_ps" "tns_ns"
    "convergence" "place_iterations" "cg_iterations_total" "route_rounds"
    "slack_p50_ps")
  string(FIND "${qor_text}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "QoR ledger missing \"${key}\":\n${qor_text}")
  endif()
endforeach()

# The run report folds the event stream in when the recorder was on.
file(READ "${report}" report_text)
string(FIND "${report_text}" "\"observe\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "run report missing folded \"observe\" section")
endif()

find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "observe smoke OK (python3 not found; tool contract skipped)")
  return()
endif()

set(metric_diff "${SOURCE_DIR}/tools/metric_diff.py")

# Exit 0: a ledger diffed against itself is regression-free.
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" "${qor}" "${qor}" --fail-on-regression
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "metric_diff self-diff: want exit 0, got ${rc}:\n${out}${err}")
endif()

# Exit 1: a 10x-worse HPWL must trip --fail-on-regression. Build the mutant
# by string surgery so this stays stdlib-cmake only.
string(REGEX REPLACE "(\"hpwl_um\": )([0-9.eE+-]+)" "\\1999999999"
       worse_text "${qor_text}")
file(WRITE "${WORK_DIR}/observe_smoke_worse.qor.json" "${worse_text}")
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" "${qor}"
          "${WORK_DIR}/observe_smoke_worse.qor.json" --fail-on-regression
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "metric_diff regression: want exit 1, got ${rc}:\n${out}${err}")
endif()
# ... and without --fail-on-regression the same diff is advisory (exit 0).
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" "${qor}"
          "${WORK_DIR}/observe_smoke_worse.qor.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "metric_diff advisory: want exit 0, got ${rc}:\n${out}${err}")
endif()

# Exit 2: bad flags are a usage error (argparse).
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" --no-such-flag
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "metric_diff usage: want exit 2, got ${rc}")
endif()

# Exit 3: missing input file.
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" "${WORK_DIR}/no_such_ledger.json"
          "${qor}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "metric_diff missing file: want exit 3, got ${rc}")
endif()

# Exit 4: parses as JSON but is not a ppacd-qor-v1 ledger.
file(WRITE "${WORK_DIR}/observe_smoke_bad.json" "{\"schema\": \"nope\"}")
execute_process(
  COMMAND "${PYTHON3}" "${metric_diff}" "${WORK_DIR}/observe_smoke_bad.json"
          "${qor}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR "metric_diff bad schema: want exit 4, got ${rc}")
endif()

# Dashboard: one self-contained HTML file with inline SVG charts.
execute_process(
  COMMAND "${PYTHON3}" "${SOURCE_DIR}/tools/flow_dashboard.py" "${events}"
          -o "${WORK_DIR}/observe_smoke_dashboard.html"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_dashboard failed (${rc}):\n${out}${err}")
endif()
file(READ "${WORK_DIR}/observe_smoke_dashboard.html" dash_text)
foreach(key "<svg" "<polyline" "Congestion heatmap" "Endpoint slack")
  string(FIND "${dash_text}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "dashboard missing \"${key}\"")
  endif()
endforeach()

message(STATUS "observe smoke OK: ${events}")
