// TL008 fixture: kernels outside src/stattests/ marked by the kernel
// annotation, one covered by the fixture equivalence suite
// (tests/fixture_equivalence.cpp), one not. The unmarked helper is not a
// kernel and needs no equivalence test.
#pragma once

namespace trng::common {

// trng-analyzer: kernel
void covered_fold(const unsigned* in, unsigned* out, unsigned n);

// trng-analyzer: kernel
void uncovered_fold(const unsigned* in, unsigned* out, unsigned n);

void plain_helper(unsigned n);

}  // namespace trng::common
