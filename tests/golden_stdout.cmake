# Run one bench and byte-compare its stdout with a checked-in golden.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<scratch file>
#         -P golden_stdout.cmake
#
# The bench runs at --jobs 1.  A non-zero exit or any byte of
# difference fails the test; the diff is printed for the log.
execute_process(COMMAND ${BENCH} --jobs 1
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    execute_process(COMMAND diff ${GOLDEN} ${OUT})
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
