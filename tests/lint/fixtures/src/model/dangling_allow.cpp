// Fixture: an allow() that matches no finding must surface as SA000 so
// stale suppressions cannot accumulate.
double identity(double x) {
  // trng-analyzer: allow(TL003) -- nothing here actually compares
  return x;
}
