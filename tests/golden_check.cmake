# Run one reproduction bench and byte-compare its output with the
# committed golden file:
#
#   cmake -DBENCH=<exe> -DENGINE=<wheel|heap> [-DNODES=<n>]
#         [-DDISTRIBUTIONS=ON] -DGOLDEN=<file> -DOUT=<file>
#         -P golden_check.cmake
#
# The protocol is pinned to write-update (the goldens' protocol) so a
# PLUS_PROTOCOL in the environment cannot change what is compared.
#
# With DISTRIBUTIONS on, the compared text is not the bench's stdout but
# the "distributions" object of its --stats-out JSON (every histogram's
# count, sum, min, max, mean and percentiles), written to OUT with a
# trailing newline.

set(args --engine=${ENGINE} --protocol=update)
if(NODES)
    list(APPEND args --nodes=${NODES})
endif()
set(stdout_file ${OUT})
if(DISTRIBUTIONS)
    set(stats_file ${OUT}.stats.json)
    list(APPEND args --stats-out=${stats_file})
    set(stdout_file ${OUT}.stdout.txt)
endif()
execute_process(COMMAND ${BENCH} ${args}
                OUTPUT_FILE ${stdout_file}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${args} exited with ${rc}")
endif()
if(DISTRIBUTIONS)
    # Histogram summaries hold no nested objects, so the first "}}"
    # after the key closes the last summary and the object itself.
    file(READ ${stats_file} stats)
    set(key "\"distributions\":")
    string(FIND "${stats}" "${key}" begin)
    if(begin EQUAL -1)
        message(FATAL_ERROR "${stats_file} has no distributions object")
    endif()
    string(LENGTH "${key}" key_len)
    math(EXPR begin "${begin} + ${key_len}")
    string(SUBSTRING "${stats}" ${begin} -1 rest)
    string(FIND "${rest}" "}}" end)
    math(EXPR end "${end} + 2")
    string(SUBSTRING "${rest}" 0 ${end} distributions)
    file(WRITE ${OUT} "${distributions}\n")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${args}: output ${OUT} differs from "
                        "${GOLDEN}")
endif()
