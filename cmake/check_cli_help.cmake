# CLI help smoke: `EXE --help` exits 0, prints "usage: NAME" first, and
# names every flag that the CLI's reject_unknown({...}) list in SOURCE
# accepts, so a flag cannot ship undocumented.
#
#   cmake -DEXE=<binary> -DNAME=<cli> -DSOURCE=<cli .cpp> -P check_cli_help.cmake
execute_process(COMMAND "${EXE}" --help
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} --help exited with ${rc}")
endif()
if(NOT out MATCHES "^usage: ${NAME}")
  message(FATAL_ERROR "${NAME} --help does not start with 'usage: ${NAME}'")
endif()

file(READ "${SOURCE}" source)
string(REGEX MATCH "reject_unknown\\(\\{[^}]*\\}" accepted "${source}")
string(REGEX MATCHALL "\"[a-z0-9-]+\"" flags "${accepted}")
if(NOT flags)
  message(FATAL_ERROR "no reject_unknown({...}) flag list in ${SOURCE}")
endif()
set(missing "")
foreach(quoted IN LISTS flags)
  string(REPLACE "\"" "" flag "${quoted}")
  # Whole-flag match: --journal must not pass on --journal-every alone.
  if(NOT out MATCHES "--${flag}([^a-z0-9-]|$)")
    list(APPEND missing "--${flag}")
  endif()
endforeach()
if(missing)
  list(JOIN missing " " missing)
  message(FATAL_ERROR "${NAME} --help omits accepted flag(s): ${missing}")
endif()
