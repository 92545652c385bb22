# Runs EXE with a flag no binary declares. It must exit with status 2 and
# print bench::Cli's one-line message, without running anything.
# Usage: cmake -DEXE=<binary> -P cli_rejects.cmake
execute_process(COMMAND ${EXE} --no-such-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} --no-such-flag exited with '${rc}', not 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "^[^\n]*: unknown flag '--no-such-flag'; accepted: [^\n]*\n$"
   OR NOT out STREQUAL "")
  message(FATAL_ERROR "${EXE}: not the parser's message\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
