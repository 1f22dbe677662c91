# Replay check for the two concurrent benches: each runs twice at one client
# thread with the same configuration, each time into its own results
# directory, and the two appended trajectory runs must be identical apart
# from their timestamps (scripts/bench_rows_diff.py).
#
# Usage: cmake -DCONCURRENT_BENCH=<bench_concurrent_tpcw>
#              -DOVERLOAD_BENCH=<bench_overload> -DPYTHON=<python3>
#              -DDIFF=<scripts/bench_rows_diff.py> -DWORK_DIR=<dir>
#              -P BenchReplayCheck.cmake

function(replay bench file)
  foreach(run a b)
    set(dir ${WORK_DIR}/${file}.${run})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env SYNERGY_BENCH_THREADS=1
              SYNERGY_BENCH_RESULTS_DIR=${dir} ${ARGN} ${bench}
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bench} (run ${run}) failed: ${rc}")
    endif()
  endforeach()
  execute_process(
    COMMAND ${PYTHON} ${DIFF} ${WORK_DIR}/${file}.a/${file}
            ${WORK_DIR}/${file}.b/${file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${file}: two same-seed runs did not replay")
  endif()
endfunction()

replay(${CONCURRENT_BENCH} BENCH_concurrent_tpcw.json
       SYNERGY_TPCW_CUSTOMERS=120 SYNERGY_BENCH_REPS=40)
replay(${OVERLOAD_BENCH} BENCH_overload.json
       SYNERGY_TPCW_CUSTOMERS=60 SYNERGY_BENCH_RATE=0.7,2.0
       SYNERGY_OVERLOAD_DURATION=2.0)
