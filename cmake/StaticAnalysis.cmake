# Static-analysis ctest targets: the TRNG analyzer (lexical TL and
# semantic SA rules) and the clang-tidy sweep. Registered at the top
# level so they run in every build tree (including sanitizer trees),
# independent of TRNG_BUILD_TESTS.
#
#   ctest -L lint   # analyzer run and self-test, bench_diff tripwire
#   ctest -L tidy   # clang-tidy over src/ (skips when clang-tidy is absent)

find_package(Python3 COMPONENTS Interpreter QUIET)

if(NOT Python3_Interpreter_FOUND)
  message(WARNING
    "python3 not found: the trng_analyzer, trng_bench and trng_tidy ctest "
    "targets are not registered in this build tree.")
  return()
endif()

# The analyzer needs nothing beyond the Python standard library, so
# neither test ever skips.
add_test(NAME trng_analyzer.repo
  COMMAND ${Python3_EXECUTABLE}
          ${CMAKE_SOURCE_DIR}/tools/analyzer/analyze.py
          --root ${CMAKE_SOURCE_DIR})
set_tests_properties(trng_analyzer.repo PROPERTIES LABELS "lint")

add_test(NAME trng_analyzer.selftest
  COMMAND ${Python3_EXECUTABLE}
          ${CMAKE_SOURCE_DIR}/tools/analyzer/selftest.py)
set_tests_properties(trng_analyzer.selftest PROPERTIES LABELS "lint")

# Benchmark regression tripwire: trng_bench.selftest proves the gate
# trips on a perturbed baseline (always runs); trng_bench.diff compares a
# fresh BENCH_throughput.json from this build tree against the committed
# baseline and skips (exit 77) when perf_microbench has not been run.
add_test(NAME trng_bench.selftest
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
          --selftest --baseline ${CMAKE_SOURCE_DIR}/BENCH_throughput.json)
set_tests_properties(trng_bench.selftest PROPERTIES LABELS "lint")

add_test(NAME trng_bench.diff
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/bench_diff.py
          --baseline ${CMAKE_SOURCE_DIR}/BENCH_throughput.json
          --fresh ${CMAKE_BINARY_DIR}/BENCH_throughput.json)
set_tests_properties(trng_bench.diff PROPERTIES
  LABELS "lint"
  SKIP_RETURN_CODE 77)

# Exit code 77 is the conventional "skip" sentinel: the runner reports the
# test as skipped (not failed) on hosts without clang-tidy.
add_test(NAME trng_tidy.src
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/run_clang_tidy.py
          -p ${CMAKE_BINARY_DIR} --source-root ${CMAKE_SOURCE_DIR})
set_tests_properties(trng_tidy.src PROPERTIES
  LABELS "tidy"
  SKIP_RETURN_CODE 77
  TIMEOUT 1800)
