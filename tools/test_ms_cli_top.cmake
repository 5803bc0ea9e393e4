# CTest script for tool_ms_cli_top: produce telemetry timelines with
# bench/plan_reuse --telemetry and bench/batch_serving --telemetry, then
# render each final snapshot with `ms_cli top` and check the Prometheus
# text output carries the expected series.  Run via:
#   cmake -DPLAN_REUSE=... -DBATCH_SERVING=... -DMS_CLI=... -DWORK_DIR=...
#         -P test_ms_cli_top.cmake

foreach(var PLAN_REUSE BATCH_SERVING MS_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

# render(<name> <bench command list> <needles...>): run the bench with
# --json and --telemetry, render its timeline with `ms_cli top`, and
# require every needle in the output.
function(render name bench)
  set(timeline "${WORK_DIR}/ms_cli_top_${name}.jsonl")
  file(REMOVE "${timeline}")
  execute_process(
    COMMAND ${bench} --json "${WORK_DIR}/ms_cli_top_${name}.json"
            --telemetry "${timeline}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "${name} --telemetry exited ${bench_rc}")
  endif()
  if(NOT EXISTS "${timeline}")
    message(FATAL_ERROR "${name} did not write ${timeline}")
  endif()
  execute_process(
    COMMAND "${MS_CLI}" top "${timeline}"
    RESULT_VARIABLE top_rc
    OUTPUT_VARIABLE top_out)
  if(NOT top_rc EQUAL 0)
    message(FATAL_ERROR "ms_cli top exited ${top_rc}:\n${top_out}")
  endif()
  foreach(needle ${ARGN})
    string(FIND "${top_out}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR
        "ms_cli top output for ${name} missing '${needle}':\n${top_out}")
    endif()
  endforeach()
endfunction()

# The Prometheus rendering must expose the allocator/L2 gauges, the
# request latency summary with percentile quantiles, and the resilience
# series (published by the device's telemetry provider, so they appear --
# as zeros -- even in fault-free runs).
render(plan_reuse "${PLAN_REUSE}"
    "ms_allocator_bytes_reserved"
    "ms_l2_read_hit_pct"
    "ms_request_modeled_ms"
    "quantile=\"0.99\""
    "ms_resilience_retries"
    "ms_request_retry_ms")

# The serving executor's BatchStats, published under the serving.* names
# (serving.retries included although nothing retried).
render(batch_serving "${BATCH_SERVING};--n;14"
    "ms_serving_flushes"
    "ms_serving_packed"
    "ms_serving_retries")

message(STATUS "OK: ms_cli top rendered both timelines' final snapshots")
