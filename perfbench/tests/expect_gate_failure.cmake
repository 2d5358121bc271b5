# Runs one workload with a wrong answer injected (cmake -P, with -DBIN=
# the perfbench program and -DWORKLOAD= the workload) and passes only if
# the run both reports "correct": false and exits with a nonzero status.
execute_process(
  COMMAND ${BIN} --workload ${WORKLOAD} --seed 1 --seconds 1 --trace 0
          --inject-wrong
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gate self-test: exit status 0 despite a wrong answer\n${out}")
endif()
if(NOT out MATCHES "\"correct\": false")
  message(FATAL_ERROR "gate self-test: no \"correct\": false (status ${rc})\n${out}${err}")
endif()
message(STATUS "gate self-test: status ${rc}, \"correct\": false")
