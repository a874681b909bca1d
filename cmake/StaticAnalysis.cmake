# Static-analysis ctest targets: the TRNG analyzer (lexical TL and
# semantic SA rules) and the clang-tidy sweep. Registered at the top
# level so they run in every build tree (including sanitizer trees),
# independent of TRNG_BUILD_TESTS.
#
#   ctest -L lint   # analyzer run and self-test
#   ctest -L tidy   # clang-tidy over src/ (skips when clang-tidy is absent)

find_package(Python3 COMPONENTS Interpreter QUIET)

if(NOT Python3_Interpreter_FOUND)
  message(WARNING
    "python3 not found: the trng_analyzer and trng_tidy ctest "
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

# Exit code 77 is the conventional "skip" sentinel: the runner reports the
# test as skipped (not failed) on hosts without clang-tidy.
add_test(NAME trng_tidy.src
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/run_clang_tidy.py
          -p ${CMAKE_BINARY_DIR} --source-root ${CMAKE_SOURCE_DIR})
set_tests_properties(trng_tidy.src PROPERTIES
  LABELS "tidy"
  SKIP_RETURN_CODE 77
  TIMEOUT 1800)
