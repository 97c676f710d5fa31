# Malformed numeric flags are usage errors (ctest cli_numeric_flags):
# each front end must exit 2 and name the flag and the value on stderr,
# before any search starts, instead of aborting on an uncaught exception
# or wrapping a negative seed around to 2^64 - 1.
#
#   cmake -DM3E_CLI=build/m3e_cli -DM3E_DYN=build/m3e_dyn \
#         -DM3E_SERVE=build/m3e_serve -P examples/cli_flags_test.cmake

function(expect_usage_error want)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(FIND "${err}" "${want}" at)
    if(NOT rc EQUAL 2 OR at EQUAL -1)
        string(REPLACE ";" " " command "${ARGN}")
        message(FATAL_ERROR "'${command}' exited ${rc}, want 2 with "
                            "'${want}' on stderr; stderr:\n${err}")
    endif()
endfunction()

expect_usage_error("--group: value out of range '4294967304'"
                   "${M3E_CLI}" --group 4294967304)
expect_usage_error("--seed: bad unsigned integer '-1'"
                   "${M3E_CLI}" --seed -1)
expect_usage_error("--threads: bad integer '4abc'"
                   "${M3E_CLI}" --threads 4abc)
expect_usage_error("--bw: bad number '16GB'" "${M3E_CLI}" --bw 16GB)
expect_usage_error("--seed: bad unsigned integer '-1'"
                   "${M3E_DYN}" --seed -1)
expect_usage_error("--threads: bad integer '0x4'" "${M3E_DYN}" --threads 0x4)
expect_usage_error("--budget: bad integer '+5'"
                   "${M3E_SERVE}" --budget +5)
expect_usage_error("--requests: value out of range '99999999999'"
                   "${M3E_SERVE}" --requests 99999999999)
