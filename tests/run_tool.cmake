# Runs one tool for a ctest fixture and checks how it ended. CMD holds the
# command and its arguments separated by "|".
#
#   cmake -DCMD="tool|arg|..." -DEXPECT="regex" -P run_tool.cmake
#     passes only when the command exits with a non-zero status of its
#     own — never killed by a signal — and its output (stdout + stderr)
#     matches the regular expression EXPECT.
#
#   cmake -DCMD="tool|arg|..." -DGOLDEN=file [-DEXIT=n] [-DINPUT=file]
#         -P run_tool.cmake
#     passes only when the command exits with status EXIT (default 0) and
#     its stdout equals the file GOLDEN byte for byte. INPUT, when given,
#     is fed to its stdin.
string(REPLACE "|" ";" command "${CMD}")

if(DEFINED GOLDEN)
  if(NOT DEFINED EXIT)
    set(EXIT 0)
  endif()
  set(stdin)
  if(DEFINED INPUT)
    set(stdin INPUT_FILE "${INPUT}")
  endif()
  execute_process(COMMAND ${command} ${stdin}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
  file(READ "${GOLDEN}" expected)
  if(NOT result STREQUAL EXIT)
    message("${output}${errors}")
    message(FATAL_ERROR "exit ${result}, expected ${EXIT}")
  endif()
  if(NOT output STREQUAL expected)
    message("${output}")
    message(FATAL_ERROR "stdout above differs from ${GOLDEN}")
  endif()
  message("exit ${result} with the expected stdout")
  return()
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
message("${output}")
if(NOT result MATCHES "^[0-9]+$")
  message(FATAL_ERROR "command died instead of failing: ${result}")
endif()
if(result EQUAL 0)
  message(FATAL_ERROR "command accepted the bad input (exit 0)")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${result} without the expected diagnostic '${EXPECT}'")
endif()
message("exit ${result} with the expected diagnostic")
