# Runs CMD (arguments separated by "|") and passes only when the command
# exits with a non-zero status of its own — never killed by a signal — and
# its output matches the regular expression EXPECT.
#
#   cmake -DCMD="tool|arg|..." -DEXPECT="regex" -P expect_clean_failure.cmake
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
message("${output}")
if(NOT result MATCHES "^[0-9]+$")
  message(FATAL_ERROR "command died instead of failing: ${result}")
endif()
if(result EQUAL 0)
  message(FATAL_ERROR "command accepted the forged input (exit 0)")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${result} without the expected diagnostic '${EXPECT}'")
endif()
message("exit ${result} with the expected diagnostic")
