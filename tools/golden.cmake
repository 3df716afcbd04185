# The one golden check.  Runs PROGRAM with ARGS (one space-separated string)
# inside WORKDIR, which it empties first, and requires the program to exit 0
# and what it produced to equal the committed GOLDEN file byte for byte: its
# stdout, or with OUTPUT the file it wrote (a path relative to WORKDIR).
# Everything the run leaves behind stays in WORKDIR, stdout.txt included, so
# a failure can be inspected or uploaded.  With ODY_REGEN_GOLDEN set in the
# environment it rewrites GOLDEN instead:
#
#   ODY_REGEN_GOLDEN=1 ctest -L golden
#
# Usage: cmake -DPROGRAM=<exe> "-DARGS=<args>" -DGOLDEN=<file> -DWORKDIR=<dir>
#              [-DOUTPUT=<file>] -P golden.cmake

cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${PROGRAM}" ${args} WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE stdout RESULT_VARIABLE status)
file(WRITE "${WORKDIR}/stdout.txt" "${stdout}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}:\n${stdout}")
endif()

if(DEFINED OUTPUT)
  set(actual_file "${WORKDIR}/${OUTPUT}")
  if(NOT EXISTS "${actual_file}")
    message(FATAL_ERROR "${PROGRAM} ${ARGS} did not write ${OUTPUT}")
  endif()
  file(READ "${actual_file}" actual)
else()
  set(actual_file "${WORKDIR}/stdout.txt")
  set(actual "${stdout}")
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
if(actual STREQUAL expected)
  return()
endif()

# Binary-search the longest common prefix, then report the line it ends in.
string(LENGTH "${expected}" lo)
string(LENGTH "${actual}" hi)
if(lo LESS hi)
  set(hi ${lo})
endif()
set(lo 0)
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${expected}" 0 ${mid} expected_prefix)
  string(SUBSTRING "${actual}" 0 ${mid} actual_prefix)
  if(expected_prefix STREQUAL actual_prefix)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()
string(SUBSTRING "${expected}" 0 ${lo} common)
string(REGEX MATCHALL "\n" newlines "${common}")
list(LENGTH newlines line)
math(EXPR line "${line} + 1")
string(FIND "${common}" "\n" line_start REVERSE)
math(EXPR line_start "${line_start} + 1")

function(line_at text start out)
  string(LENGTH "${text}" length)
  if(start GREATER_EQUAL length)
    set(${out} "<end of file>" PARENT_SCOPE)
    return()
  endif()
  string(SUBSTRING "${text}" ${start} -1 rest)
  string(FIND "${rest}" "\n" end)
  string(SUBSTRING "${rest}" 0 ${end} rest)
  set(${out} "${rest}" PARENT_SCOPE)
endfunction()
line_at("${expected}" ${line_start} expected_line)
line_at("${actual}" ${line_start} actual_line)

message(FATAL_ERROR "${actual_file} differs from golden ${GOLDEN} at line ${line}:\n"
                    "  golden: ${expected_line}\n"
                    "  actual: ${actual_line}\n"
                    "(if the change is intentional, regenerate with ODY_REGEN_GOLDEN=1)")
