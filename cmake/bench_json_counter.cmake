# Runs ssdrr_sim on a scenario with --bench-json and requires every run
# entry of the JSON to report a nonzero FIELD: a counter the scenario
# exercises must reach the bench JSON, not only the RunStats it is
# collected in (e.g. "windows_run" on a windowed fabric scenario).
#
# Inputs (all -D):
#   SIM_TOOL   path to the ssdrr_sim binary
#   SCENARIO   a scenario file that exercises FIELD
#   FIELD      the bench-JSON counter that must be nonzero
#   WORK_DIR   scratch directory for outputs

foreach(var SIM_TOOL SCENARIO FIELD WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_json_counter.cmake: ${var} not set")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(json_path "${WORK_DIR}/bench.json")
file(REMOVE "${json_path}")

execute_process(
    COMMAND "${SIM_TOOL}" --scenario "${SCENARIO}" --bench-json "${json_path}"
    OUTPUT_QUIET
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE code)
if(NOT code EQUAL 0)
    message(FATAL_ERROR
        "ssdrr_sim --scenario ${SCENARIO}: exit ${code}\n${stderr_text}")
endif()

file(READ "${json_path}" json)
string(REGEX MATCHALL "\"${FIELD}\": [0-9]+" entries "${json}")
list(LENGTH entries n)
if(n EQUAL 0)
    message(FATAL_ERROR "${json_path}: no \"${FIELD}\" field")
endif()
foreach(entry ${entries})
    string(REGEX REPLACE ".*: " "" value "${entry}")
    if(value EQUAL 0)
        message(FATAL_ERROR "${json_path}: ${FIELD} is 0 on ${SCENARIO}")
    endif()
endforeach()
message(STATUS "${n} run entries, every ${FIELD} > 0")
