# Runs PROGRAM with ARGS (one space-separated string) and requires its
# stdout to equal the committed GOLDEN file byte for byte.  With
# ODY_REGEN_GOLDEN set in the environment it rewrites GOLDEN instead:
#
#   ODY_REGEN_GOLDEN=1 ctest -R ody_fuzz
#
# Usage: cmake -DPROGRAM=<exe> "-DARGS=<args>" -DGOLDEN=<file> -P golden_stdout.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}:\n${actual}")
endif()

if(DEFINED ENV{ODY_REGEN_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN}; regenerate with ODY_REGEN_GOLDEN=1")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual\n${actual}"
                      "(if the change is intentional, regenerate with ODY_REGEN_GOLDEN=1)")
endif()
