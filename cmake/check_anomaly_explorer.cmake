# anomaly_explorer smoke:
#   * --anomaly 1 exits 0 and prints four sample rows and a verdict line;
#   * a bad --sys, a non-numeric or out-of-range --anomaly, an unknown flag
#     and a positional argument each exit 2 with a message on stderr.
#
#   cmake -DEXE=<anomaly_explorer binary> -P check_anomaly_explorer.cmake
execute_process(COMMAND "${EXE}" --anomaly 1
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "anomaly_explorer --anomaly 1: exit ${rc}\n${err}")
endif()
# A sample row: sample index, epoch, t(s).
string(REGEX MATCHALL "\n[0-3] +[0-9]+ +[0-9]+\\.[0-9][0-9] " rows "${out}")
list(LENGTH rows n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "expected 4 sample rows, got ${n}:\n${out}")
endif()
if(NOT out MATCHES "\nverdict: [^\n]*pause ratio")
  message(FATAL_ERROR "no verdict line:\n${out}")
endif()

foreach(args "--anomaly;1;--sys;Q" "--anomaly;x" "--anomaly;0" "--anomaly;19"
             "--bogus" "1")
  execute_process(COMMAND "${EXE}" ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "anomaly_explorer ${args}: exit ${rc}, want 2")
  endif()
  if(NOT err MATCHES "^anomaly_explorer: ")
    message(FATAL_ERROR "anomaly_explorer ${args}: no message: ${err}")
  endif()
endforeach()
