# Serve-matrix smoke: the one driver behind every "serve a batch under a
# config grid, then byte-compare" smoke. The rows (one per CTest, all
# labelled serve_matrix) live in apps/CMakeLists.txt; this script runs
# one row:
#
#   1. Input: `thermosched gen ${GEN_ARGS}` run twice — the two streams
#      must be byte-identical (gen's determinism contract) — or, without
#      GEN_ARGS, the literal request lines of BATCH.
#   2. Serve it once per CONFIGS entry `threads:policy:dedup`. The first
#      entry is the reference (it also writes --summary-json); every
#      other entry must reproduce its bytes exactly — thread count,
#      placement and memoization change when work runs, never what is
#      written.
#   3. The reference must hold exactly RECORDS records, OKS of them
#      "ok":true.
#   4. Needles: REQUEST_NEEDLES in the input, RESULT_NEEDLES in the
#      reference records, SUMMARY_NEEDLES in the summary JSON. A needle
#      `N*text` must occur exactly N times; a plain `text` at least once.
#
# Usage: cmake -DSCHED_BIN=<thermosched> -DWORK_DIR=<scratch dir>
#              (-DGEN_ARGS=<flag;value;...> | -DBATCH=<line;line;...>)
#              -DCONFIGS=<threads:policy:dedup;...> -DRECORDS=N -DOKS=N
#              [-DREQUEST_NEEDLES=...] [-DRESULT_NEEDLES=...]
#              [-DSUMMARY_NEEDLES=...] -P RunServeMatrix.cmake
cmake_minimum_required(VERSION 3.24)
foreach(required SCHED_BIN WORK_DIR CONFIGS RECORDS OKS)
  if("${${required}}" STREQUAL "")
    message(FATAL_ERROR "${required} must be set")
  endif()
endforeach()
if("${GEN_ARGS}" STREQUAL "" AND "${BATCH}" STREQUAL "")
  message(FATAL_ERROR "one of GEN_ARGS or BATCH must be set")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests.jsonl")
set(summary "${WORK_DIR}/summary.json")

# Occurrences of the literal `needle` in `text` (no regex: JSON needles
# are full of regex metacharacters).
function(count_occurrences text needle out)
  string(LENGTH "${needle}" needle_length)
  set(count 0)
  string(FIND "${text}" "${needle}" at)
  while(NOT at EQUAL -1)
    math(EXPR count "${count} + 1")
    math(EXPR at "${at} + ${needle_length}")
    string(SUBSTRING "${text}" ${at} -1 text)
    string(FIND "${text}" "${needle}" at)
  endwhile()
  set(${out} ${count} PARENT_SCOPE)
endfunction()

function(check_needles what text)
  foreach(needle IN LISTS ARGN)
    if(needle MATCHES "^([0-9]+)\\*(.*)$")
      set(expected ${CMAKE_MATCH_1})
      set(needle "${CMAKE_MATCH_2}")
      count_occurrences("${text}" "${needle}" found)
      if(NOT found EQUAL expected)
        message(FATAL_ERROR
          "${what}: expected ${expected} x ${needle}, found ${found}:\n${text}")
      endif()
    else()
      string(FIND "${text}" "${needle}" at)
      if(at EQUAL -1)
        message(FATAL_ERROR "${what} is missing ${needle}:\n${text}")
      endif()
    endif()
  endforeach()
endfunction()

function(run_checked)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE ignored ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}\nexited with ${rc}\n${err}")
  endif()
endfunction()

if(NOT "${GEN_ARGS}" STREQUAL "")
  set(again "${WORK_DIR}/requests_again.jsonl")
  foreach(outfile "${requests}" "${again}")
    run_checked("${SCHED_BIN}" gen ${GEN_ARGS} --out "${outfile}")
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${requests}" "${again}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
      "two `thermosched gen` runs with identical flags produced different "
      "bytes (${requests} vs ${again})")
  endif()
else()
  set(body "")
  foreach(line IN LISTS BATCH)
    string(APPEND body "${line}\n")
  endforeach()
  file(WRITE "${requests}" "${body}")
endif()
file(READ "${requests}" request_text)
check_needles("request stream" "${request_text}" ${REQUEST_NEEDLES})

set(reference "")
foreach(config IN LISTS CONFIGS)
  string(REPLACE ":" ";" fields "${config}")
  list(GET fields 0 threads)
  list(GET fields 1 policy)
  list(GET fields 2 dedup)
  set(outfile "${WORK_DIR}/results_t${threads}_${policy}_${dedup}.jsonl")
  set(command "${SCHED_BIN}" serve --in "${requests}" --out "${outfile}"
      --threads ${threads} --schedule-policy ${policy} --dedup ${dedup})
  if("${reference}" STREQUAL "")
    run_checked(${command} --summary-json "${summary}")
    set(reference "${outfile}")
    continue()
  endif()
  run_checked(${command})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${reference}" "${outfile}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
      "serve output for ${config} differs from the reference "
      "(${reference} vs ${outfile}) — serve lost determinism")
  endif()
endforeach()

file(READ "${reference}" results)
count_occurrences("${results}" "\n" record_count)
if(NOT record_count EQUAL RECORDS)
  message(FATAL_ERROR "expected ${RECORDS} result records, got ${record_count}")
endif()
check_needles("results" "${results}" "${OKS}*\"ok\":true" ${RESULT_NEEDLES})
file(READ "${summary}" summary_text)
check_needles("summary JSON" "${summary_text}" ${SUMMARY_NEEDLES})

list(LENGTH CONFIGS config_count)
message(STATUS
  "serve matrix OK: ${RECORDS} records (${OKS} ok) byte-identical across "
  "${config_count} configs")
