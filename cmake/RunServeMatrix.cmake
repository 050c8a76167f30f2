# Serve-matrix smoke: the one driver behind every "serve a batch under a
# config grid, then byte-compare" smoke. The rows (one per CTest, all
# labelled serve_matrix) live in apps/CMakeLists.txt; this script runs
# one row:
#
#   1. Input: `thermosched gen ${GEN_ARGS}` run twice — the two streams
#      must be byte-identical (gen's determinism contract) — or, without
#      GEN_ARGS, the literal request lines of BATCH.
#   2. Serve it once per CONFIGS entry `threads:policy:dedup`, each with
#      its own --summary-json. The first entry is the reference; every
#      other entry must reproduce its bytes exactly — thread count,
#      placement and memoization change when work runs, never what is
#      written. Outside MODE cache, every entry with the reference's
#      dedup setting must also reproduce the reference summary's
#      `model_cache`, `memo` and `slo` objects exactly: model sharing,
#      dedup and the deadline scoreboard do not depend on threads or
#      placement either.
#   3. The reference must hold exactly RECORDS records, OKS of them
#      "ok":true.
#   4. Needles: REQUEST_NEEDLES in the input, RESULT_NEEDLES in the
#      reference records, SUMMARY_NEEDLES in the summary JSON. A needle
#      `N*text` must occur exactly N times; a plain `text` at least once.
#   5. MODE (optional) adds what the serves leave besides records:
#      cache  every config is a separate process serving through one
#             shared --cache-dir and writing its own summary. The
#             reference must persist one record per executed request;
#             `cache stats` (reporting that count) and `cache verify`
#             (exit 0) run after it, `cache compact` before the last
#             config; every later config must execute 0 requests and
#             take one disk hit per persisted record.
#      trace  every non-reference config adds --trace and --metrics;
#             each trace must pass CHECK_TRACE (balanced B/E spans,
#             per-thread monotonic timestamps) with at least RECORDS
#             events, and the `metrics` member of each such config's
#             summary must name the dispatch, scenario and thermal
#             metrics below.
#
# Usage: cmake -DSCHED_BIN=<thermosched> -DWORK_DIR=<scratch dir>
#              (-DGEN_ARGS=<flag;value;...> | -DBATCH=<line;line;...>)
#              -DCONFIGS=<threads:policy:dedup;...> -DRECORDS=N -DOKS=N
#              [-DREQUEST_NEEDLES=...] [-DRESULT_NEEDLES=...]
#              [-DSUMMARY_NEEDLES=...] [-DMODE=cache|trace]
#              [-DPYTHON_BIN=<python3> -DCHECK_TRACE=<check_trace.py>]
#              -P RunServeMatrix.cmake
cmake_minimum_required(VERSION 3.24)
foreach(required SCHED_BIN WORK_DIR CONFIGS RECORDS OKS)
  if("${${required}}" STREQUAL "")
    message(FATAL_ERROR "${required} must be set")
  endif()
endforeach()
if("${GEN_ARGS}" STREQUAL "" AND "${BATCH}" STREQUAL "")
  message(FATAL_ERROR "one of GEN_ARGS or BATCH must be set")
endif()
if(NOT "${MODE}" MATCHES "^(|cache|trace)$")
  message(FATAL_ERROR "MODE must be empty, cache or trace")
endif()
if(MODE STREQUAL "trace" AND ("${PYTHON_BIN}" STREQUAL "" OR
                              "${CHECK_TRACE}" STREQUAL ""))
  message(FATAL_ERROR "MODE trace needs PYTHON_BIN and CHECK_TRACE")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests.jsonl")
set(cache_dir "${WORK_DIR}/cache")

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

# run_checked(<command>...): fails unless the command exits 0; its
# stdout lands in `run_output`.
function(run_checked)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}\nexited with ${rc}\n${out}${err}")
  endif()
  set(run_output "${out}" PARENT_SCOPE)
endfunction()

# summary_field(<out> <summary file> <key>...): one value of a serve
# summary; JSON booleans read as ON/OFF.
function(summary_field out path)
  file(READ "${path}" text)
  string(JSON value GET "${text}" ${ARGN})
  set(${out} "${value}" PARENT_SCOPE)
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
set(index 0)
list(LENGTH CONFIGS config_count)
foreach(config IN LISTS CONFIGS)
  math(EXPR index "${index} + 1")
  string(REPLACE ":" ";" fields "${config}")
  list(GET fields 0 threads)
  list(GET fields 1 policy)
  list(GET fields 2 dedup)
  set(outfile "${WORK_DIR}/results_${index}_t${threads}_${policy}_${dedup}.jsonl")
  set(summary "${WORK_DIR}/summary_${index}.json")
  set(trace "${WORK_DIR}/trace_${index}.json")
  set(command "${SCHED_BIN}" serve --in "${requests}" --out "${outfile}"
      --threads ${threads} --schedule-policy ${policy} --dedup ${dedup}
      --summary-json "${summary}")
  if(MODE STREQUAL "cache")
    list(APPEND command --cache-dir "${cache_dir}")
    if(index GREATER 1 AND index EQUAL config_count)
      run_checked("${SCHED_BIN}" cache compact --cache-dir "${cache_dir}")
    endif()
  elseif(MODE STREQUAL "trace" AND NOT "${reference}" STREQUAL "")
    list(APPEND command --trace "${trace}" --metrics)
  endif()
  run_checked(${command})

  if("${reference}" STREQUAL "")
    set(reference "${outfile}")
    set(reference_dedup "${dedup}")
    if(MODE STREQUAL "cache")
      summary_field(enabled "${summary}" disk_cache enabled)
      summary_field(executed "${summary}" memo executed)
      summary_field(persisted "${summary}" disk_cache records)
      if(NOT enabled OR NOT persisted EQUAL executed)
        message(FATAL_ERROR
          "the reference executed ${executed} requests but persisted "
          "${persisted} records (disk cache enabled: ${enabled})")
      endif()
      run_checked("${SCHED_BIN}" cache stats --cache-dir "${cache_dir}")
      if(NOT run_output MATCHES "records[ |]+${persisted}[ |]")
        message(FATAL_ERROR
          "cache stats does not report ${persisted} records:\n${run_output}")
      endif()
      run_checked("${SCHED_BIN}" cache verify --cache-dir "${cache_dir}")
    endif()
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${reference}" "${outfile}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
      "serve output for ${config} differs from the reference "
      "(${reference} vs ${outfile}) — serve lost determinism")
  endif()
  if(NOT MODE STREQUAL "cache" AND dedup STREQUAL reference_dedup)
    foreach(object model_cache memo slo)
      summary_field(want "${WORK_DIR}/summary_1.json" ${object})
      summary_field(got "${summary}" ${object})
      if(NOT got STREQUAL want)
        message(FATAL_ERROR
          "config ${index} (${config}) summary ${object} differs from the "
          "reference's:\n${got}\nwant:\n${want}")
      endif()
    endforeach()
  endif()
  if(MODE STREQUAL "cache")
    summary_field(executed "${summary}" memo executed)
    summary_field(disk_hits "${summary}" disk_cache hits)
    if(NOT executed EQUAL 0 OR NOT disk_hits EQUAL persisted)
      message(FATAL_ERROR
        "config ${index} (${config}) executed ${executed} requests and took "
        "${disk_hits} disk hits; want 0 and ${persisted}")
    endif()
  elseif(MODE STREQUAL "trace")
    run_checked("${PYTHON_BIN}" "${CHECK_TRACE}" "${trace}"
                --min-events ${RECORDS})
    summary_field(metrics_text "${summary}" metrics)
    check_needles("metrics of ${summary}" "${metrics_text}"
      "\"dispatch.jobs\"" "\"dispatch.exec_ns\"" "\"dispatch.queue_wait_ns\""
      "\"scenario.requests\"" "\"thermal.factor_ns\"")
  endif()
endforeach()

file(READ "${reference}" results)
count_occurrences("${results}" "\n" record_count)
if(NOT record_count EQUAL RECORDS)
  message(FATAL_ERROR "expected ${RECORDS} result records, got ${record_count}")
endif()
check_needles("results" "${results}" "${OKS}*\"ok\":true" ${RESULT_NEEDLES})
file(READ "${WORK_DIR}/summary_1.json" summary_text)
check_needles("summary JSON" "${summary_text}" ${SUMMARY_NEEDLES})

message(STATUS
  "serve matrix OK: ${RECORDS} records (${OKS} ok) byte-identical across "
  "${config_count} configs")
