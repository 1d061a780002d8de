# Golden-plan gate: regenerates a suite_runner CSV on the tiny dataset with
# every iteration-capped LNS-family scheduler and compares it byte for byte
# with the checked-in copy next to this script. A plan that moves changes
# a cost, io or superstep cell. ctest runs it (see the root CMakeLists.txt):
#
#   cmake -DSUITE_RUNNER=<suite_runner> -DCOST=sync|async \
#         -DGOLDEN=<golden csv> -DOUT=<fresh csv> -P check_golden.cmake
#
# An intended plan change re-records the golden with the same command line
# (see the execute_process below) and says why in the commit.
execute_process(
  COMMAND ${SUITE_RUNNER} --budget-ms 0 --max-iterations 1500
          --schedulers bspg+clairvoyant,lns,lns-portfolio,holistic,sharded,repair
          --threads 1 --cost ${COST} --csv ${OUT}
  RESULT_VARIABLE run_status
  OUTPUT_QUIET)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR "suite_runner exited with ${run_status}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
