# CTest script for bench_baseline_gate_negative: the baseline gate must
# reject a baseline that differs from a fresh run only in a non-headline
# field.  Copies the baseline with "paper_log2_n":25 changed, runs
# check_baseline.cmake against the copy and requires it to fail naming
# that field.  Run via:
#   cmake -DBENCH=... -DMS_CLI=... -DBASELINE=... -DGATE=check_baseline.cmake \
#         -DWORK_DIR=... -P test_baseline_gate_negative.cmake

foreach(var BENCH MS_CLI BASELINE GATE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(READ "${BASELINE}" text)
string(REPLACE "\"paper_log2_n\":25" "\"paper_log2_n\":24" mutated "${text}")
if(mutated STREQUAL text)
  message(FATAL_ERROR "${BASELINE} has no \"paper_log2_n\":25 to change")
endif()
set(copy "${WORK_DIR}/baseline_gate_negative.json")
file(WRITE "${copy}" "${mutated}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -DBENCH=${BENCH} -DMS_CLI=${MS_CLI}
          -DBASELINE=${copy}
          -DCURRENT=${WORK_DIR}/baseline_gate_negative_current.json
          -P "${GATE}"
  RESULT_VARIABLE gate_rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
message("${out}")
if(gate_rc EQUAL 0)
  message(FATAL_ERROR "the gate passed a baseline with a changed paper_log2_n")
endif()
if(NOT out MATCHES "DRIFT paper_log2_n: baseline 24, current 25")
  message(FATAL_ERROR "the gate failed without naming paper_log2_n")
endif()
message(STATUS "OK: the gate rejects a changed paper_log2_n")
