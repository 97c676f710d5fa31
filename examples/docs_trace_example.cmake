# Replay of the documented workload trace (ctest docs_trace_example):
#  - the first fenced block under the "## magma-workload-trace v1"
#    heading of docs/formats.md is written out as a trace file;
#  - m3e_dyn replays it at --budget 50, must exit 0 and must print one
#    "event <i>" line per `event=` line of the block.
# So the example in the format reference cannot drift from the reader.
#
#   cmake -DM3E_DYN=build/m3e_dyn -DFORMATS_MD=docs/formats.md \
#         -DOUT_DIR=DIR -P examples/docs_trace_example.cmake

set(heading "## magma-workload-trace v1")
file(READ "${FORMATS_MD}" md)
string(FIND "${md}" "${heading}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${FORMATS_MD} has no '${heading}' section")
endif()
string(SUBSTRING "${md}" ${at} -1 section)
string(FIND "${section}" "\n```\n" open)
if(open EQUAL -1)
    message(FATAL_ERROR "no fenced block under '${heading}'")
endif()
math(EXPR begin "${open} + 5")
string(SUBSTRING "${section}" ${begin} -1 section)
string(FIND "${section}" "\n```" close)
if(close EQUAL -1)
    message(FATAL_ERROR "unterminated fenced block under '${heading}'")
endif()
math(EXPR length "${close} + 1")
string(SUBSTRING "${section}" 0 ${length} block)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace "${OUT_DIR}/formats_example.trace")
file(WRITE "${trace}" "${block}")

execute_process(COMMAND "${M3E_DYN}" --trace "${trace}" --budget 50
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "m3e_dyn rejected the documented trace (exit "
                        "${rc}):\n${err}\n--- trace ---\n${block}")
endif()
string(REGEX MATCHALL "\nevent=" events "\n${block}")
list(LENGTH events want)
string(REGEX MATCHALL "(^|\n)event [0-9]+ " replayed "${out}")
list(LENGTH replayed got)
if(want EQUAL 0 OR NOT got EQUAL want)
    message(FATAL_ERROR "m3e_dyn replayed ${got} events, the documented "
                        "trace has ${want}:\n${out}")
endif()
