# The tools.compare_records test: tools/compare_records.py on its two
# fixture pairs (tools/testdata/compare_records/). a.jsonl against
# within.jsonl differs in one float by 1.9e-16 relative and must pass at
# --rel 1e-13; a.jsonl against count.jsonl differs in one session count
# and must fail, naming that path.
#
# Usage: cmake -DPYTHON=<python3> -DSOURCE_DIR=<repo> -P CheckCompareRecords.cmake
set(tool "${SOURCE_DIR}/tools/compare_records.py")
set(data "${SOURCE_DIR}/tools/testdata/compare_records")
foreach(pair IN ITEMS "within;0;0 failures" "count;1;points[0].sessions: 2 != 3")
  list(GET pair 0 other)
  list(GET pair 1 expected_rc)
  list(GET pair 2 needle)
  execute_process(
    COMMAND "${PYTHON}" "${tool}" "${data}/a.jsonl" "${data}/${other}.jsonl"
            --rel 1e-13
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(FIND "${out}" "${needle}" pos)
  if(NOT rc EQUAL expected_rc OR pos EQUAL -1)
    message(FATAL_ERROR "a.jsonl vs ${other}.jsonl: exit ${rc} (expected "
            "${expected_rc}), stdout lacks '${needle}'?\nstdout:\n${out}\n"
            "stderr:\n${err}")
  endif()
endforeach()
