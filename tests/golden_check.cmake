# Run one reproduction bench and byte-compare its output with the
# committed golden file:
#
#   cmake -DBENCH=<exe> -DENGINE=<wheel|heap> [-DNODES=<n>]
#         -DGOLDEN=<file> -DOUT=<file> -P golden_check.cmake
#
# The protocol is pinned to write-update (the goldens' protocol) so a
# PLUS_PROTOCOL in the environment cannot change what is compared.

set(args --engine=${ENGINE} --protocol=update)
if(NODES)
    list(APPEND args --nodes=${NODES})
endif()
execute_process(COMMAND ${BENCH} ${args}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${args} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${args}: output ${OUT} differs from "
                        "${GOLDEN}")
endif()
