# Smoke-test wrapper: run a binary and require (a) the expected exit code
# (SMOKE_EXIT, default 0), (b) non-empty stdout when that code is 0, and
# (c) every needle of SMOKE_STDOUT somewhere in stdout and every needle
# of SMOKE_STDERR somewhere in stderr (each a ;-list, default empty).
# CTest's PASS_REGULAR_EXPRESSION ignores the exit code, so a plain
# add_test() cannot express these conditions together — this script can.
#
# Usage: cmake -DSMOKE_BIN=<path> [-DSMOKE_ARGS="a;b;c"] [-DSMOKE_EXIT=<code>]
#              [-DSMOKE_STDOUT=<text;...>] [-DSMOKE_STDERR=<text;...>]
#              -P RunSmokeTest.cmake
if(NOT SMOKE_BIN)
  message(FATAL_ERROR "SMOKE_BIN not set")
endif()
if(NOT DEFINED SMOKE_EXIT)
  set(SMOKE_EXIT 0)
endif()
execute_process(
  COMMAND "${SMOKE_BIN}" ${SMOKE_ARGS}
  OUTPUT_VARIABLE smoke_out
  ERROR_VARIABLE smoke_err
  RESULT_VARIABLE smoke_rc)
if(NOT smoke_rc EQUAL SMOKE_EXIT)
  message(FATAL_ERROR "${SMOKE_BIN} exited with ${smoke_rc}, expected ${SMOKE_EXIT}\nstdout:\n${smoke_out}\nstderr:\n${smoke_err}")
endif()
foreach(stream IN ITEMS out err)
  string(TOUPPER "${stream}" upper)
  foreach(needle IN LISTS SMOKE_STD${upper})
    string(FIND "${smoke_${stream}}" "${needle}" smoke_pos)
    if(smoke_pos EQUAL -1)
      message(FATAL_ERROR "${SMOKE_BIN} std${stream} lacks '${needle}'\nstd${stream}:\n${smoke_${stream}}")
    endif()
  endforeach()
endforeach()
if(SMOKE_EXIT EQUAL 0)
  string(STRIP "${smoke_out}" smoke_stripped)
  if(smoke_stripped STREQUAL "")
    message(FATAL_ERROR "${SMOKE_BIN} exited 0 but printed nothing to stdout")
  endif()
endif()
string(LENGTH "${smoke_out}" smoke_len)
message(STATUS "smoke OK: ${SMOKE_BIN} exited ${smoke_rc}, printed ${smoke_len} bytes")
