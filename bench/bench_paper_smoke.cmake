# Smoke test of the paper-figure driver (ctest bench_paper_smoke):
#  - the eight figures that run no RL agent exit 0 and each write a CSV
#    with a header and at least one row;
#  - an unknown figure name exits 2 and lists every valid name.
#
#   cmake -DBENCH_PAPER=build/bench_paper -DOUT_DIR=DIR \
#         -P bench/bench_paper_smoke.cmake

set(figures fig07 fig13 fig14 fig15 fig16 fig17 table05 ablation_bw)
set(csvs fig07_job_analysis fig13_subaccel_combos fig14_flexible
         fig15_solution_viz fig16_operator_ablation fig17_group_size
         table05_warmstart ablation_bw_policy)
set(all_names fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 fig16
              fig17 table05 ablation_bw)

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(COMMAND "${BENCH_PAPER}" ${figures} --out-dir "${OUT_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper ${figures} exited ${rc}")
endif()
foreach(csv IN LISTS csvs)
    set(path "${OUT_DIR}/${csv}.csv")
    if(NOT EXISTS "${path}")
        message(FATAL_ERROR "missing ${path}")
    endif()
    file(STRINGS "${path}" lines)
    list(LENGTH lines n)
    if(n LESS 2)
        message(FATAL_ERROR "${path} has ${n} lines, want a header and rows")
    endif()
endforeach()

execute_process(COMMAND "${BENCH_PAPER}" nosuchfig
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_paper nosuchfig exited ${rc}, want 2")
endif()
foreach(name IN LISTS all_names)
    string(FIND "${out}${err}" " ${name}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "bench_paper nosuchfig does not list '${name}':\n"
                            "${out}${err}")
    endif()
endforeach()
