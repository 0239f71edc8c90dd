# Pins the paper tables byte for byte: runs the full bsched-suite with no
# artifact store and compares the sha256 of its stdout with the checked-in
# digest. Any change to a printed number, label or column fails here.
#
#   cmake -DSUITE=<bsched-suite> -DEXPECTED=<suite_stdout.sha256>
#         -DWORK_DIR=<scratch dir> -P suite_digest.cmake
#
# After a deliberate change to the tables, regenerate the digest with
#   bsched-suite --json /dev/null | sha256sum | cut -d' ' -f1

foreach(Var SUITE EXPECTED WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "suite_digest: -D${Var}=... is required")
  endif()
endforeach()

# A configured store would turn the cold run into a partly warm one.
unset(ENV{BSCHED_ARTIFACT_DIR})

file(MAKE_DIRECTORY ${WORK_DIR})
set(Stdout ${WORK_DIR}/suite_stdout.txt)
execute_process(
  COMMAND ${SUITE} --json ${WORK_DIR}/suite_digest.json
  OUTPUT_FILE ${Stdout}
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "suite_digest: bsched-suite exited with ${Rc}")
endif()

file(SHA256 ${Stdout} Actual)
file(READ ${EXPECTED} Expected)
string(STRIP "${Expected}" Expected)
if(NOT Actual STREQUAL Expected)
  file(SIZE ${Stdout} Bytes)
  message(FATAL_ERROR
    "suite_digest: bsched-suite stdout (${Bytes} bytes, kept at ${Stdout}) "
    "has sha256 ${Actual}; ${EXPECTED} pins ${Expected}")
endif()
message(STATUS "suite_digest: stdout sha256 ${Actual} matches")
