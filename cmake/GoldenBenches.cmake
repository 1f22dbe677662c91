# The paper and ablation benches whose stdout bench-results/golden/ holds,
# and the scale each runs at. CMakeLists.txt registers one bench_golden_<name>
# ctest entry per bench from this list; BenchGoldenCheck.cmake, which
# scripts/update_bench_golden.sh runs, reads it too.

set(GOLDEN_BENCHES
    bench_ablation_locking bench_ablation_selection bench_fig10_micro_join
    bench_fig11_lock_overhead bench_fig12_tpcw_joins bench_fig14_tpcw_writes
    bench_table1_qualitative bench_table2_total_rt bench_table3_db_size)

# Sets `out` to the environment `bench` runs with: Fig. 10 sweeps up to 1000
# customers, every TPC-W bench runs at 300.
function(golden_bench_env bench out)
  if(bench STREQUAL "bench_fig10_micro_join")
    set(${out} SYNERGY_MICRO_MAX_CUST=1000 PARENT_SCOPE)
  else()
    set(${out} SYNERGY_TPCW_CUSTOMERS=300 PARENT_SCOPE)
  endif()
endfunction()
