// TL008 fixture corpus: exercises exactly one of the two fixture kernels,
// so the analyzer must flag the other one.
void fixture() { (void)covered_kernel(1); }
