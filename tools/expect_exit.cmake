# Runs one command and passes only when it exits with code EXIT and its
# stdout or stderr matches REGEX. COMMAND separates its words with '|',
# because ';' would split the -D value:
#   cmake -DCOMMAND=prog|arg|... -DEXIT=2 -DREGEX=text -P expect_exit.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "exit ${code}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}${err}")
endif()
