# Smoke-test wrapper: run a binary and require (a) the expected exit code
# (SMOKE_EXIT, default 0), (b) non-empty stdout when that code is 0,
# (c) every needle of SMOKE_STDOUT somewhere in stdout and every needle
# of SMOKE_STDERR somewhere in stderr (each a ;-list, default empty), and
# (d) with SMOKE_GOLDEN, stdout equal to that file byte for byte (on a
# mismatch: `diff -u`, else the first differing line of each text).
# CTest's PASS_REGULAR_EXPRESSION ignores the exit code, so a plain
# add_test() cannot express these conditions together — this script can.
# Usage: cmake -DSMOKE_BIN=<path> [-DSMOKE_ARGS="a;b;c"] [-DSMOKE_EXIT=<code>]
#              [-DSMOKE_STDOUT=<text;...>] [-DSMOKE_STDERR=<text;...>]
#              [-DSMOKE_GOLDEN=<file>] -P RunSmokeTest.cmake
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
string(STRIP "${smoke_out}" smoke_stripped)
if(SMOKE_EXIT EQUAL 0 AND smoke_stripped STREQUAL "")
  message(FATAL_ERROR "${SMOKE_BIN} exited 0 but printed nothing to stdout")
endif()
if(SMOKE_GOLDEN)
  file(READ "${SMOKE_GOLDEN}" want)
  if(NOT smoke_out STREQUAL want)
    string(MD5 hash "${SMOKE_BIN};${SMOKE_ARGS};${SMOKE_GOLDEN}")
    set(actual "${CMAKE_CURRENT_BINARY_DIR}/smoke_${hash}.actual")
    file(WRITE "${actual}" "${smoke_out}")
    find_program(SMOKE_DIFF diff)
    if(SMOKE_DIFF)
      execute_process(COMMAND "${SMOKE_DIFF}" -u "${SMOKE_GOLDEN}" "${actual}")
    else()
      file(STRINGS "${SMOKE_GOLDEN}" want_lines)
      file(STRINGS "${actual}" got_lines)
      foreach(want_line got_line IN ZIP_LISTS want_lines got_lines)
        if(NOT want_line STREQUAL got_line)
          message(NOTICE "first differing line:\n-${want_line}\n+${got_line}")
          break()
        endif()
      endforeach()
    endif()
    message(FATAL_ERROR "${SMOKE_BIN} stdout differs from ${SMOKE_GOLDEN} (above)")
  endif()
endif()
string(LENGTH "${smoke_out}" smoke_len)
message(STATUS "smoke OK: ${SMOKE_BIN} exited ${smoke_rc}, printed ${smoke_len} bytes")
