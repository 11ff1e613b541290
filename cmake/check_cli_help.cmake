# CLI help smoke: `EXE --help` exits 0 and prints "usage: NAME" first.
# Flag coverage is structural: --help renders the CLI's flag table, the
# same table that decides which flags the CLI accepts.
#
#   cmake -DEXE=<binary> -DNAME=<cli> -P check_cli_help.cmake
execute_process(COMMAND "${EXE}" --help
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} --help exited with ${rc}")
endif()
if(NOT out MATCHES "^usage: ${NAME}")
  message(FATAL_ERROR "${NAME} --help does not start with 'usage: ${NAME}'")
endif()
