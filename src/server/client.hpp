// Client-side conveniences for the daemon protocol (session.hpp): frame a
// draw or metrics request on an fd and read the response back. Used by
// the tests, the examples and perfbench's daemon_mix so none of them
// re-implement the wire format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "server/session.hpp"

namespace trng::server::client {

/// Largest metrics payload the client will accept. A metrics reply has no
/// request-side length to validate against, so allocation is bounded by
/// this ceiling instead of the peer's claimed (up to 4 GiB) frame length.
inline constexpr std::uint32_t kMaxMetricsBytes = 1u << 22;  // 4 MiB

/// Outcome of one framed exchange. `ok` means the transport worked and
/// the response both decoded and obeyed the protocol's length rules: a
/// kOk draw carries exactly the requested bytes, any other status carries
/// none. `status` is the server's verdict.
struct DrawReply {
  bool ok = false;
  Status status = Status::kBadRequest;
  std::uint16_t shard = 0;
  std::vector<std::uint8_t> bytes;
};

/// Sends one draw request and reads the reply. `shard` defaults to the
/// session's assigned shard; set `prediction_resistance` to demand a
/// fresh reseed before the generate. The reply's payload length is
/// validated against `nbytes` before any allocation, so a hostile server
/// cannot make the client allocate or block on bytes it never asked for.
[[nodiscard]] DrawReply draw(int fd, std::uint32_t nbytes,
               bool prediction_resistance = false,
               std::uint16_t shard = kAnyShard);

/// Sends one metrics request; returns the daemon's metrics JSON, or an
/// empty string on transport failure.
[[nodiscard]] std::string fetch_metrics(int fd);

/// Connects to a daemon's AF_UNIX socket; returns the fd or -1.
int connect_unix(const std::string& path);

}  // namespace trng::server::client
