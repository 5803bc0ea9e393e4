# CTest script for the tolerance-0 baseline gates (bench_baseline_*): rerun
# a bench at the committed baseline's size and require `ms_cli diff
# --tolerance 0` to find no drift in any value of the report -- headline
# rates and times, stage splits, per-site counters, derived metrics and
# diagnoses alike (host_* wall-clock fields are never compared).  The
# simulator is deterministic, so any finding is a real behavior change.
# log2_n, trials and device are report fields: a baseline recorded at
# another size or on another device fails as a diff finding too.
#
# A change that moves the modeled numbers on purpose regenerates the
# baseline in the same commit:
#   build/bench/table5_rates --n 14 --trials 1 \
#       --json bench/baselines/table5_rates_n14.json
#   build/bench/table4_stage_breakdown --n 14 --trials 1 \
#       --json bench/baselines/table4_stage_breakdown_n14.json
#
# Run via:
#   cmake -DBENCH=... -DMS_CLI=... -DBASELINE=... -DCURRENT=<scratch.json> \
#         -P check_baseline.cmake

foreach(var BENCH MS_CLI BASELINE CURRENT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE "${CURRENT}")
execute_process(
  COMMAND "${BENCH}" --n 14 --trials 1 --json "${CURRENT}"
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --n 14 --trials 1 exited ${run_rc}")
endif()

execute_process(
  COMMAND "${MS_CLI}" diff "${BASELINE}" "${CURRENT}" --tolerance 0
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "${CURRENT} drifted from ${BASELINE} (exit ${diff_rc})")
endif()
