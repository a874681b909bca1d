// TL008 fixture corpus: exercises exactly one of the two word-parallel
// fixture kernels and one of the two annotated ones, so the analyzer must
// flag the other of each.
void fixture() {
  (void)covered_kernel(1);
  covered_fold(nullptr, nullptr, 0);
}
