# Checks one area of the BENCH_serve_gates.json record that
# smoke.bench_serve_gates writes: the fields that are exact on any run,
# timed or not, and, when the record says "enforced", the area's gates.
#
#   dispatch  ljf and edf recorded, 12 deadlined requests
#   gen       the shared stream: `count` lines, memo_hits == duplicates
#   obs       observability on vs off leaves the output bytes unchanged
#   persist   warm replay: executed == 0, one disk hit per distinct line,
#             verify() clean, bytes identical cold/warm/post-compact
#
# Usage: cmake -DGATES_JSON=<path> -DGATES_AREA=<area>
#              -P CheckServeGates.cmake
if(NOT EXISTS "${GATES_JSON}")
  message(FATAL_ERROR "no serve-gates record at '${GATES_JSON}'")
endif()
file(READ "${GATES_JSON}" record)

# field(<out> <key>...): the value at the key path; fails when absent.
# JSON booleans read as ON/OFF, numbers as their literal text.
function(field out)
  string(JSON value ERROR_VARIABLE error GET "${record}" ${ARGN})
  if(error)
    message(FATAL_ERROR "${GATES_JSON}: ${error}")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# expect(<want> <key>...): the value at the key path equals <want>.
function(expect want)
  field(got ${ARGN})
  if(NOT got STREQUAL want)
    string(JOIN "." path ${ARGN})
    message(FATAL_ERROR "${GATES_JSON}: ${path} is '${got}', want '${want}'")
  endif()
endfunction()

expect(thermo.bench_serve_gates.v1 schema)
field(enforced enforced)
if(GATES_AREA STREQUAL "dispatch")
  set(gates ljf edf)
  expect(12 gates edf deadline_requests)
  foreach(key IN ITEMS fifo_makespan_s ljf_makespan_s whale_wall_s)
    field(seconds gates ljf ${key})
    if(NOT seconds GREATER 0)
      message(FATAL_ERROR "${GATES_JSON}: gates.ljf.${key} is ${seconds}")
    endif()
  endforeach()
elseif(GATES_AREA STREQUAL "gen")
  set(gates)
  field(count count)
  field(duplicates stream duplicates)
  expect(${count} stream lines)
  expect(${duplicates} stream memo_hits)
  if(NOT duplicates GREATER 0)
    message(FATAL_ERROR "${GATES_JSON}: the gen stream has no duplicates")
  endif()
elseif(GATES_AREA STREQUAL "obs")
  set(gates overhead)
  expect(ON gates overhead bytes_identical)
elseif(GATES_AREA STREQUAL "persist")
  set(gates warm_cache)
  field(lines stream lines)
  field(duplicates stream duplicates)
  math(EXPR distinct "${lines} - ${duplicates}")
  expect(0 gates warm_cache warm_executed)
  expect(${distinct} gates warm_cache disk_hits)
  expect(ON gates warm_cache verify_clean)
  expect(ON gates warm_cache bytes_identical)
else()
  message(FATAL_ERROR "GATES_AREA must be dispatch, gen, obs or persist")
endif()
if(enforced)
  foreach(gate IN LISTS gates)
    expect(ON gates ${gate} ok)
  endforeach()
endif()
message(STATUS "serve gates OK: ${GATES_AREA} (enforced: ${enforced})")
