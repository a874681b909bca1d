// Fixture: an allow() without a "-- justification" must surface as SA000,
// not silently suppress the finding.
bool unjustified(double bias) {
  // trng-analyzer: allow(TL003)
  return bias == 0.0;
}
