# Replay check for the two concurrent benches: each runs twice at one client
# thread with the same configuration, each time into its own results
# directory, and the two appended trajectory runs must be identical apart
# from their timestamps (scripts/bench_rows_diff.py). bench_concurrent_tpcw
# then runs once more at two client threads: its threads=1 rows must equal
# those of the one-thread runs, so a row means the same thing whatever the
# largest thread count of its run.
#
# Usage: cmake -DCONCURRENT_BENCH=<bench_concurrent_tpcw>
#              -DOVERLOAD_BENCH=<bench_overload> -DPYTHON=<python3>
#              -DDIFF=<scripts/bench_rows_diff.py> -DWORK_DIR=<dir>
#              -P BenchReplayCheck.cmake

# Runs `bench` at `threads` client threads, with the environment in ARGN,
# into ${WORK_DIR}/<file>.<run>.
function(run_bench bench file run threads)
  set(dir ${WORK_DIR}/${file}.${run})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SYNERGY_BENCH_THREADS=${threads}
            SYNERGY_BENCH_RESULTS_DIR=${dir} ${ARGN} ${bench}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} (run ${run}) failed: ${rc}")
  endif()
endfunction()

# Diffs run a of `file` against run `run`, with the diff options in ARGN.
function(expect_same file run what)
  execute_process(
    COMMAND ${PYTHON} ${DIFF} ${ARGN} ${WORK_DIR}/${file}.a/${file}
            ${WORK_DIR}/${file}.${run}/${file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${file}: ${what}")
  endif()
endfunction()

function(replay bench file)
  foreach(run a b)
    run_bench(${bench} ${file} ${run} 1 ${ARGN})
  endforeach()
  expect_same(${file} b "two same-seed runs did not replay")
endfunction()

set(tpcw_env SYNERGY_TPCW_CUSTOMERS=120 SYNERGY_BENCH_REPS=40)
replay(${CONCURRENT_BENCH} BENCH_concurrent_tpcw.json ${tpcw_env})
run_bench(${CONCURRENT_BENCH} BENCH_concurrent_tpcw.json t2 2 ${tpcw_env})
expect_same(BENCH_concurrent_tpcw.json t2
            "threads=1 rows changed with the run's thread count" --threads 1)
replay(${OVERLOAD_BENCH} BENCH_overload.json
       SYNERGY_TPCW_CUSTOMERS=60 SYNERGY_BENCH_RATE=0.7,2.0
       SYNERGY_OVERLOAD_DURATION=2.0)
