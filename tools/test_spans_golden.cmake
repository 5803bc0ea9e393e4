# CTest script for tool_ms_cli_chaos_spans_golden: rerun the seeded chaos
# campaign with `ms_cli chaos --requests 60 --spans` and require the span
# dump to match the committed fixture byte for byte.  The fixture pins
# every stage span (epilogues and fault-aborted stages included), so any
# change to where stages open or close fails here.  Run via:
#   cmake -DMS_CLI=... -DGOLDEN=... -DWORK_DIR=... -P test_spans_golden.cmake

foreach(var MS_CLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

set(spans "${WORK_DIR}/chaos_spans_golden.jsonl")
file(REMOVE "${spans}")

execute_process(
  COMMAND "${MS_CLI}" chaos --requests 60 --spans "${spans}"
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "ms_cli chaos --spans exited ${run_rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${spans}" "${GOLDEN}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "span dump ${spans} differs from ${GOLDEN}")
endif()

message(STATUS "OK: chaos span dump matches the committed fixture")
