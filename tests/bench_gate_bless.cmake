# bench_gate end to end: blesses a report whose keys and strings need
# escaping, requires the exact escaped output, checks the report against
# it at zero tolerance, and requires a malformed --tol to exit 2.
# Usage: cmake -DGATE=<bench_gate> -DDIR=<scratch dir> -P bench_gate_bless.cmake
file(WRITE ${DIR}/gate_report.json
     [=[{"s": "line\nbreak", "k\"q": 1, "c": "ctl\u0001z", "sim_wall_s": 0.5}]=])
set(expected [=[{
  "s": "line\nbreak",
  "k\"q": 1,
  "c": "ctl\u0001z"
}
]=])

function(run_gate want)
  execute_process(COMMAND ${GATE} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL want)
    message(FATAL_ERROR "bench_gate ${ARGN}: exit '${rc}', want ${want}\n"
                        "${out}${err}")
  endif()
endfunction()

run_gate(0 --bless ${DIR}/gate_report.json ${DIR}/gate_blessed.json)
file(READ ${DIR}/gate_blessed.json blessed)
if(NOT blessed STREQUAL expected)
  message(FATAL_ERROR "blessed file differs:\n${blessed}")
endif()
run_gate(0 --check ${DIR}/gate_blessed.json ${DIR}/gate_report.json --tol 0)
run_gate(2 --check ${DIR}/gate_blessed.json ${DIR}/gate_report.json --tol abc)
