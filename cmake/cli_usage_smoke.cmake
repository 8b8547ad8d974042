# flow_cli usage-error smoke (run via `cmake -P` from ctest, see
# examples/CMakeLists.txt). Every malformed invocation below must exit 1 with
# a one-line message instead of running some other flow; the invocation
# shapes of flowbench/run.py (clustered, flat and sharded, on a Verilog
# netlist) must still exit 0; under a fault plan, an error no fallback
# absorbs must exit 3 with its code on stderr; and an artifact path that
# cannot be written must exit 1 with "cannot write" on stderr.
#
# Inputs: -DFLOW_CLI=<path to flow_cli> -DWORK_DIR=<writable directory>

if(NOT DEFINED FLOW_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "cli_usage_smoke: FLOW_CLI and WORK_DIR must be defined")
endif()

# Each case is one space-separated argument list.
foreach(case IN ITEMS
    "--flow bogus"
    "--flow default --sharded"
    "--tool innvous"
    "--shapes vrp"
    "--design no-such-design"
    "--cells abc"
    "--cells -5"
    "--threads abc"
    "--shards abc"
    "--clock abc"
    "--report-paths abc")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${FLOW_CLI}" --place-only ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "flow_cli ${case}: want exit 1, got ${rc}:\n${out}\n${err}")
  endif()
  string(STRIP "${err}" err)
  if(err STREQUAL "" OR err MATCHES "\n")
    message(FATAL_ERROR "flow_cli ${case}: want a one-line message, got:\n${err}")
  endif()
endforeach()

# flowbench reads a Verilog netlist; write a small one to read back.
set(netlist "${WORK_DIR}/cli_usage_smoke.v")
execute_process(
  COMMAND "${FLOW_CLI}" --design aes --cells 300 --place-only
          --write-verilog "${netlist}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flow_cli --write-verilog failed (${rc}):\n${out}\n${err}")
endif()

set(common --verilog "${netlist}" --clock 1500 --place-only
    "--qor=${WORK_DIR}/cli_usage_smoke.qor.json"
    --report "${WORK_DIR}/cli_usage_smoke_report.json")
foreach(shape IN ITEMS
    "--flow ours --threads 1"
    "--flow default --threads 1"
    "--flow ours --sharded --shards 8 --threads 4 --check full")
  separate_arguments(args UNIX_COMMAND "${shape}")
  execute_process(
    COMMAND "${FLOW_CLI}" ${common} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flow_cli ${shape}: want exit 0, got ${rc}:\n${out}\n${err}")
  endif()
endforeach()

# Fault plans and unwritable artifacts: `want_rc` is the exit status,
# `want_err` a regex stderr must match. --write-congestion routes outside the
# flow, so its allocation failure skips the artifact instead of aborting the
# process.
function(expect_fault_run want_rc want_err)
  execute_process(
    COMMAND "${FLOW_CLI}" --verilog "${netlist}" --clock 1500 --place-only
            ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc OR NOT err MATCHES "${want_err}")
    message(FATAL_ERROR "flow_cli ${ARGN}: want exit ${want_rc} and stderr "
                        "matching '${want_err}', got ${rc}:\n${out}\n${err}")
  endif()
endfunction()
expect_fault_run(3 "alloc-failure" --fault-plan place.solve=alloc@1)
expect_fault_run(3 "io-read-failed" --fault-plan io.read=error)
expect_fault_run(0 "write-congestion: alloc-failure"
                 --write-congestion "${WORK_DIR}/cli_usage_smoke.ppm"
                 --fault-plan route.maze=alloc@1)

# Artifact writers: a path under a missing directory cannot be opened.
set(missing "${WORK_DIR}/cli_usage_smoke_missing_dir")
file(REMOVE_RECURSE "${missing}")
foreach(writer IN ITEMS --write-def --write-verilog --write-svg
                        --write-congestion)
  expect_fault_run(1 "cannot write" ${writer} "${missing}/artifact")
endforeach()

message(STATUS "cli usage smoke OK")
