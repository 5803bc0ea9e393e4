# CTest helper for usage-error gates: runs the command after `--` and fails
# unless it exits 2 and its combined stdout/stderr matches the regex EXPECT.
#
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <program> [args...]
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P ${CMAKE_CURRENT_LIST_FILE} -- <program> [args...]")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
