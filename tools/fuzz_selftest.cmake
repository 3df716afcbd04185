# One seeded-mutation check of the fuzzer, for a build configured with
# ODYSSEY_FUZZ_SELFTEST=ON.  Runs PROGRAM (ody_fuzz) with ARGS inside
# WORKDIR, which it empties first, and requires the run to exit 1, to name
# ORACLE (and SCENARIO, when given) in its stdout, to shrink the failing run
# to at most 12 elements, and to leave a non-empty fuzz_repro.cc and
# fuzz_trace.txt in WORKDIR.
#
# Usage: cmake -DPROGRAM=<exe> "-DARGS=<args>" -DWORKDIR=<dir> -DORACLE=<name>
#              ["-DSCENARIO=<text>"] -P fuzz_selftest.cmake

cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${PROGRAM}" ${args} WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE stdout RESULT_VARIABLE status)
file(WRITE "${WORKDIR}/stdout.txt" "${stdout}")

if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1 from a seeded mutation, got ${status} "
                      "(stdout in ${WORKDIR}/stdout.txt)")
endif()
foreach(text IN ITEMS "${ORACLE}" "${SCENARIO}")
  string(FIND "${stdout}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${WORKDIR}/stdout.txt does not name \"${text}\"")
  endif()
endforeach()
if(NOT stdout MATCHES "shrink: minimized to ([0-9]+)")
  message(FATAL_ERROR "the failing run was not shrunk")
endif()
message(STATUS "${CMAKE_MATCH_0} elements")
if(CMAKE_MATCH_1 GREATER 12)
  message(FATAL_ERROR "shrunk to ${CMAKE_MATCH_1} elements, more than 12")
endif()
foreach(file IN ITEMS fuzz_repro.cc fuzz_trace.txt)
  if(NOT EXISTS "${WORKDIR}/${file}")
    message(FATAL_ERROR "${file} was not written")
  endif()
  file(SIZE "${WORKDIR}/${file}" size)
  if(NOT size GREATER 0)
    message(FATAL_ERROR "${file} is empty")
  endif()
endforeach()
