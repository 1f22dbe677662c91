# Golden check for the paper and ablation benches: each runs at a small
# scale and its stdout must equal bench-results/golden/<bench>.txt byte for
# byte. Every figure they print is a virtual time or size from the cost
# model, so a run replays exactly; a change that moves any printed figure
# fails the check until the golden files are regenerated on purpose
# (scripts/update_bench_golden.sh).
#
# Usage: cmake -DBENCH_DIR=<dir holding the bench binaries>
#              -DGOLDEN_DIR=<bench-results/golden> -DWORK_DIR=<dir>
#              [-DUPDATE=ON] -P BenchGoldenCheck.cmake
# With UPDATE=ON the runs overwrite the golden files instead.

set(tpcw_benches
    bench_ablation_locking bench_ablation_selection bench_fig11_lock_overhead
    bench_fig12_tpcw_joins bench_fig14_tpcw_writes bench_table1_qualitative
    bench_table2_total_rt bench_table3_db_size)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(failed "")

# Runs `bench` with the environment in ARGN (repetitions at the bench's own
# default, trajectory files kept in WORK_DIR) and compares or stores its
# stdout.
function(golden bench)
  set(out ${WORK_DIR}/${bench}.txt)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=SYNERGY_BENCH_REPS
            SYNERGY_BENCH_RESULTS_DIR=${WORK_DIR} ${ARGN} ${BENCH_DIR}/${bench}
    OUTPUT_FILE ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed: ${rc}")
  endif()
  if(UPDATE)
    configure_file(${out} ${GOLDEN_DIR}/${bench}.txt COPYONLY)
    return()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN_DIR}/${bench}.txt ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    execute_process(COMMAND diff -u ${GOLDEN_DIR}/${bench}.txt ${out})
    set(failed ${failed} ${bench} PARENT_SCOPE)
  endif()
endfunction()

foreach(bench ${tpcw_benches})
  golden(${bench} SYNERGY_TPCW_CUSTOMERS=300)
endforeach()
golden(bench_fig10_micro_join SYNERGY_MICRO_MAX_CUST=1000)

if(failed)
  message(FATAL_ERROR "stdout differs from ${GOLDEN_DIR} for: ${failed}")
endif()
