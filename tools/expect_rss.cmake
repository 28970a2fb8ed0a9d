# Runs one command that writes a run report to REPORT and passes only when
# it exits 0 and the report's peak resident set (nondeterministic.resources.
# max_rss_kb) is at most MAX_KB. COMMAND separates its words with '|':
#   cmake -DCOMMAND=prog|arg|... -DREPORT=path -DMAX_KB=n -P expect_rss.cmake
string(REPLACE "|" ";" command "${COMMAND}")
file(REMOVE "${REPORT}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "exit ${code}, expected 0\n${out}${err}")
endif()
file(READ "${REPORT}" report)
string(JSON rss_kb GET "${report}" nondeterministic resources max_rss_kb)
if(rss_kb GREATER MAX_KB)
  message(FATAL_ERROR "max_rss_kb ${rss_kb} is over ${MAX_KB}")
endif()
message(STATUS "max_rss_kb ${rss_kb} <= ${MAX_KB}")
