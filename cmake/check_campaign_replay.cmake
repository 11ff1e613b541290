# Journal replay failure legs of the campaign CLI (byte identity of a
# replay is pinned in-process by Backend.JournalRecordReplay* and by CI's
# journal equivalence smoke):
#   * a recording that crashed mid-run runs out on replay: exit 3, and
#     stderr names the cell and "ran out";
#   * --functional on a replay only audits the reported witnesses: exit 0,
#     the recording's report, and the audit line before it (a replay whose
#     probes diverge fails loudly in-process: Backend.ReplayDivergence*);
#   * a replay under flags that change the plan is rejected before any
#     probe: exit 2, "different plan";
#   * a replay whose --seed contradicts the journal is rejected: exit 2;
#   * a --fleet journal (no probe records) is rejected up front: exit 2;
#   * a journal of the retired collie-journal-v2 format is refused by both
#     --replay and --resume before any frame is read: exit 2, stderr names
#     both versions, the file keeps its bytes and no .torn file appears;
#   * a --journal path that cannot be read, opened or fsynced (a missing
#     directory, /dev/null, a directory) exits 2 naming the path, never
#     through an uncaught exception.
#
#   cmake -DEXE=<campaign binary> -DWORK=<scratch dir> -P check_campaign_replay.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(flags --sys B --hours 1 --workers 2 --share cell --json)

# run(<exit> <stdout var> <stderr var> args...)
function(run want out err)
  execute_process(COMMAND "${EXE}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_VARIABLE o ERROR_VARIABLE e RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "campaign ${ARGN}: exit ${rc}, want ${want}\n${e}")
  endif()
  string(STRIP "${o}" o)
  string(REGEX REPLACE "^.*\n" "" last "${o}")
  set(${out} "${last}" PARENT_SCOPE)
  set(${err} "${e}" PARENT_SCOPE)
endfunction()

run(0 recorded ignored ${flags} --journal rec.journal)

run(137 ignored ignored ${flags} --journal crash.journal
    --crash-after-probes 5)
run(3 ignored err ${flags} --replay crash.journal)
if(NOT err MATCHES "cell B/Diag#0: .*ran out after 5 recorded probes")
  message(FATAL_ERROR "run-out replay does not name the cell:\n${err}")
endif()

execute_process(COMMAND "${EXE}" ${flags} --functional --replay rec.journal
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE o ERROR_VARIABLE e RESULT_VARIABLE rc)
string(STRIP "${o}" o)
string(REGEX REPLACE "^.*\n" "" audited "${o}")
if(NOT rc EQUAL 0 OR NOT audited STREQUAL recorded)
  message(FATAL_ERROR "--functional replay: exit ${rc}, or its report differs "
                      "from the recording's\n${e}")
endif()
if(NOT o MATCHES "functional audit: [0-9]+ of [0-9]+ distinct-anomaly")
  message(FATAL_ERROR "--functional replay printed no audit line:\n${o}")
endif()

run(2 ignored err ${flags} --modes perf --replay rec.journal)
if(NOT err MATCHES "different plan")
  message(FATAL_ERROR "re-planned replay not rejected up front:\n${err}")
endif()

run(2 ignored err ${flags} --seed 2 --replay rec.journal)

# A --fleet journal carries cell results but no probe records.
run(0 ignored ignored ${flags} --fleet 2 --journal fleet.journal)
run(2 ignored err ${flags} --replay fleet.journal)
if(NOT err MATCHES "holds no probe records")
  message(FATAL_ERROR "probe-less journal not rejected up front:\n${err}")
endif()

# The v2 magic line, then bytes no v3 build parses (refusal happens on the
# header alone).
file(WRITE "${WORK}/v2.journal"
     "collie-journal-v2\n{\"record\":\"driver_state\"}")
file(SHA256 "${WORK}/v2.journal" v2_before)
foreach(mode "--replay;v2.journal" "--journal;v2.journal;--resume")
  run(2 ignored err ${flags} ${mode})
  if(NOT err MATCHES "collie-journal-v2" OR NOT err MATCHES "collie-journal-v3")
    message(FATAL_ERROR "${mode}: v2 journal refusal does not name both "
                        "versions:\n${err}")
  endif()
  file(SHA256 "${WORK}/v2.journal" v2_after)
  if(NOT v2_after STREQUAL v2_before)
    message(FATAL_ERROR "${mode} changed the bytes of a v2 journal")
  endif()
  if(EXISTS "${WORK}/v2.journal.torn")
    message(FATAL_ERROR "${mode} quarantined a v2 journal as torn")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK}/a_directory")
foreach(path "${WORK}/no_such_dir/x.journal" "/dev/null"
             "${WORK}/a_directory")
  run(2 ignored err ${flags} --journal "${path}")
  string(FIND "${err}" "'${path}'" named)
  if(err MATCHES "terminate" OR named EQUAL -1)
    message(FATAL_ERROR "--journal ${path}: no exit-2 message naming the "
                        "path:\n${err}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
