# --functional is an audit of the reported witnesses, not a probe-loop pass:
#   * the --json report with --functional is byte-identical to the one
#     without it;
#   * the --functional stdout carries the audit line before the report;
#   * a --fleet 2 --functional run prints the report of the in-process
#     --workers 2 run and the audit line.
#
#   cmake -DEXE=<campaign binary> -DWORK=<scratch dir> -P check_campaign_functional.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(flags --sys BF --hours 1 --share cell --json)

# run(<report file> <stdout var> args...): exit 0 required; the last stdout
# line goes to <report file> under WORK.
function(run report out)
  execute_process(COMMAND "${EXE}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_VARIABLE o ERROR_VARIABLE e RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "campaign ${ARGN}: exit ${rc}\n${e}")
  endif()
  string(STRIP "${o}" o)
  string(REGEX REPLACE "^.*\n" "" last "${o}")
  file(WRITE "${WORK}/${report}" "${last}\n")
  set(${out} "${o}" PARENT_SCOPE)
endfunction()

function(same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/${a}" "${WORK}/${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

function(audited out)
  if(NOT out MATCHES "functional audit: [0-9]+ of [0-9]+ distinct-anomaly witnesses are legal verbs programs")
    message(FATAL_ERROR "no audit line in the --functional output:\n${out}")
  endif()
endfunction()

run(plain.json plain ${flags} --workers 1)
if(plain MATCHES "functional audit")
  message(FATAL_ERROR "a run without --functional printed an audit")
endif()
run(functional.json out ${flags} --workers 1 --functional)
same(plain.json functional.json)
audited("${out}")

run(two.json ignored ${flags} --workers 2)
run(fleet.json out ${flags} --fleet 2 --functional)
same(two.json fleet.json)
audited("${out}")
file(REMOVE_RECURSE "${WORK}")
