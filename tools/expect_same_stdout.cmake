# Runs two commands and passes only when both exit 0 and print the same
# stdout, byte for byte. Each command separates its words with '|':
#   cmake -DFIRST=prog|arg|... -DSECOND=prog|arg|... -P expect_same_stdout.cmake
foreach(side FIRST SECOND)
  string(REPLACE "|" ";" command "${${side}}")
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out_${side}
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${side}: exit ${code}, expected 0\n${out_${side}}${err}")
  endif()
endforeach()
if(NOT out_FIRST STREQUAL out_SECOND)
  message(FATAL_ERROR
          "stdout differs\n--- FIRST\n${out_FIRST}--- SECOND\n${out_SECOND}")
endif()
message(STATUS "stdout identical")
