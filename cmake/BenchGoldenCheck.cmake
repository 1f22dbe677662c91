# Golden check for one paper or ablation bench: it runs at a small scale and
# its stdout must equal bench-results/golden/<bench>.txt byte for byte. Every
# figure these benches print is a virtual time or size from the cost model,
# so a run replays exactly; a change that moves any printed figure fails the
# check until the golden files are regenerated on purpose
# (scripts/update_bench_golden.sh).
#
# Usage: cmake -DBENCH_DIR=<dir holding the bench binaries>
#              -DGOLDEN_DIR=<bench-results/golden> -DWORK_DIR=<dir>
#              [-DBENCH=<name>] [-DUPDATE=ON] -P BenchGoldenCheck.cmake
# BENCH names one bench of GoldenBenches.cmake; without it every bench runs,
# each in WORK_DIR/<bench>. With UPDATE=ON the runs overwrite the golden
# files instead.

include(${CMAKE_CURRENT_LIST_DIR}/GoldenBenches.cmake)

if(DEFINED BENCH)
  list(FIND GOLDEN_BENCHES ${BENCH} at)
  if(at LESS 0)
    message(FATAL_ERROR "${BENCH} is not in GoldenBenches.cmake")
  endif()
  set(benches ${BENCH})
else()
  set(benches ${GOLDEN_BENCHES})
endif()

set(failed "")
foreach(bench ${benches})
  # Repetitions at the bench's own default; trajectory files and stdout go
  # to the bench's own work directory.
  set(work ${WORK_DIR}/${bench})
  file(REMOVE_RECURSE ${work})
  file(MAKE_DIRECTORY ${work})
  set(out ${work}/${bench}.txt)
  golden_bench_env(${bench} env)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=SYNERGY_BENCH_REPS
            SYNERGY_BENCH_RESULTS_DIR=${work} ${env} ${BENCH_DIR}/${bench}
    OUTPUT_FILE ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed: ${rc}")
  endif()
  if(UPDATE)
    configure_file(${out} ${GOLDEN_DIR}/${bench}.txt COPYONLY)
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN_DIR}/${bench}.txt ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    execute_process(COMMAND diff -u ${GOLDEN_DIR}/${bench}.txt ${out})
    list(APPEND failed ${bench})
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "stdout differs from ${GOLDEN_DIR} for: ${failed}")
endif()
