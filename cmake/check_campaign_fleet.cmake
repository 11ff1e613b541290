# Fleet ≡ in-process, as real processes of the campaign CLI at the default
# fleet timings:
#   * a fault-free 4-worker loopback fleet prints a report byte-identical
#     to the in-process campaign under cell scopes, and under the default
#     subsystem scopes on a diag,perf grid;
#   * so does a fleet whose executor dies on a cell (--kill-worker), under
#     either share scope: the cell is re-queued and re-run as the same
#     logical worker with the same preload;
#   * a fleet coordinator that crashes at a journal byte exits 137, and
#     --resume finishes it to the same report;
#   * a --kill-worker cell outside the plan, a negative --seed and every
#     out-of-range fleet timing flag exit 2 naming the value, and so does a
#     --kill-worker whose heartbeat timeout the 120 s stall guard cannot
#     absorb (a killed executor stays down up to four timeouts).
#
#   cmake -DEXE=<campaign binary> -DWORK=<scratch dir> -P check_campaign_fleet.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(flags --sys BF --seeds 2 --hours 1 --share cell --json)

# run(<exit> <report file> <stderr var> args...): the last stdout line goes
# to <report file> under WORK.
function(run want report err)
  execute_process(COMMAND "${EXE}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_VARIABLE o ERROR_VARIABLE e RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "campaign ${ARGN}: exit ${rc}, want ${want}\n${e}")
  endif()
  string(STRIP "${o}" o)
  string(REGEX REPLACE "^.*\n" "" last "${o}")
  file(WRITE "${WORK}/${report}" "${last}\n")
  set(${err} "${e}" PARENT_SCOPE)
endfunction()

function(same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/${a}" "${WORK}/${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(READ "${WORK}/${a}" ta)
    file(READ "${WORK}/${b}" tb)
    message(FATAL_ERROR "${a} and ${b} differ:\n${ta}\n${tb}")
  endif()
endfunction()

run(0 ref.json ignored ${flags} --workers 4)
run(0 fleet.json ignored ${flags} --fleet 4)
same(ref.json fleet.json)

function(killed_leg ref out)
  run(0 ${out} err ${ARGN} --kill-worker "F/Diag#0")
  same(${ref} ${out})
  if(NOT err MATCHES "fleet: .* [1-9][0-9]* re-queues")
    message(FATAL_ERROR "--kill-worker re-queued nothing:\n${err}")
  endif()
endfunction()
killed_leg(ref.json killed.json ${flags} --fleet 4)

# The default share: each subsystem's cells run in dispatch order, so the
# fleet sees what the in-process threads see.
set(shared --sys BF --seeds 2 --modes diag,perf --hours 1 --json)
run(0 shared-ref.json ignored ${shared} --workers 4)
run(0 shared-fleet.json ignored ${shared} --fleet 4)
same(shared-ref.json shared-fleet.json)
killed_leg(shared-ref.json shared-killed.json ${shared} --fleet 4)

run(137 ignored.json ignored ${flags} --fleet 4 --journal f.journal
    --crash-at-journal-byte 20000)
run(0 resumed.json ignored ${flags} --fleet 4 --journal f.journal --resume)
same(ref.json resumed.json)

# Each bad value exits 2 and names its flag (or the cell).
foreach(bad "--kill-worker;Z/Diag#0;Z/Diag#0"
            "--seed;-1;--seed"
            "--heartbeat-ms;0;--heartbeat-ms"
            "--heartbeat-ms;-5;--heartbeat-ms"
            "--heartbeat-ms;2147483648;--heartbeat-ms"
            "--heartbeat-timeout-ms;-1;--heartbeat-timeout-ms"
            "--heartbeat-timeout-ms;0;--heartbeat-timeout-ms"
            "--heartbeat-timeout-ms;20;--heartbeat-timeout-ms")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  list(GET bad 2 named)
  run(2 ignored.json err --sys B --hours 1 --share cell --fleet 2
      ${flag} ${value})
  string(FIND "${err}" "${named}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: message does not name "
                        "${named}:\n${err}")
  endif()
endforeach()
run(2 ignored.json err --sys B --hours 1 --share cell --fleet 1
    --kill-worker "B/Diag#0" --heartbeat-timeout-ms 30000)
if(NOT err MATCHES "heartbeat timeout \\(30000 ms\\)")
  message(FATAL_ERROR "a kill at a 30 s heartbeat timeout: ${err}")
endif()
file(REMOVE_RECURSE "${WORK}")
