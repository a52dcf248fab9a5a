# A harness sweep with one failing cell must name the failure on stderr as
# "<app>/<protocol>: <error>", print the rows that finished, and exit 1
# (not abort). mp3d under ERC at 32 processors and seed 117 ends in a
# ProtocolError (tests/test_protocol_races.cpp pins the same cell).
#
#   cmake -DFIG=<harness binary> [-DFAILED_PROTOCOL=ERC]
#         -P fig_failing_cell.cmake
#
# A figure table has one row per app, so the whole mp3d row must be left
# out. A table with a protocol column (ablation_buffers) sets
# FAILED_PROTOCOL: only the mp3d row of that protocol must be left out.
string(CONCAT want_err "mp3d/ERC: node 3: InvalAck from node 8 for line 123: "
                       "forward response with no forward pending")

function(run_fig apps jobs)
  execute_process(
    COMMAND ${FIG} --apps ${apps} --scale test --procs 32 --seed 117 ${jobs}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "--apps ${apps} ${jobs}: exit '${rc}', want 1\n${err}")
  endif()
  string(FIND "${err}" "${want_err}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "--apps ${apps} ${jobs}: stderr lacks\n  ${want_err}\ngot:\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# The exact failing command (default --jobs).
run_fig(mp3d "")

# Serially, with a second app whose row must still be printed.
run_fig(gauss,mp3d "--jobs;1")
if(NOT out MATCHES "\\| gauss +\\|")
  message(FATAL_ERROR "the finished gauss row is missing:\n${out}")
endif()
set(failed_row "\\| mp3d")
if(DEFINED FAILED_PROTOCOL)
  string(APPEND failed_row " +\\| +${FAILED_PROTOCOL} +\\|")
endif()
if(out MATCHES "${failed_row}")
  message(FATAL_ERROR "the failed mp3d row was printed:\n${out}")
endif()
