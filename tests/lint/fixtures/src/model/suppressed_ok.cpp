// Fixture: a justified allow() on the preceding line and on the same line
// must both suppress TL003 cleanly.
bool sentinel_prev(double bias) {
  // trng-analyzer: allow(TL003) -- exact zero is the documented sentinel
  return bias == 0.0;
}

bool sentinel_same(double bias) {
  return bias == 0.0;  // trng-analyzer: allow(TL003) -- documented sentinel
}
