// ServerDaemon: the network-facing entropy daemon.
//
//   EntropyPool (producers, health gate, rings)
//        │ draw_from_shard
//   Conditioner (one Hash_DRBG per shard)
//        │ draw
//   Session threads ── framed protocol ── client fds (socketpair / UDS)
//
// The daemon owns the whole vertical slice: the pool, the per-shard
// conditioning tier, the metrics, an optional AF_UNIX listener, and one
// joined thread per client session (analyzer rule TL007 confines raw threads
// to src/service/ and src/server/). Clients connect two ways:
//
//   connect_client()      — in-process socketpair; returns the client fd
//                           (hermetic tests, examples, bench)
//   listen_unix(path)     — filesystem AF_UNIX socket a separate process
//                           can connect() to (the scrapeable daemon)
//
// Sessions are assigned pool shards round-robin, so clients spread across
// the per-shard DRBGs and a quarantined producer degrades only the
// sessions pinned to its shard.
//
// Shutdown (stop()) is graceful: the draining flag flips first, the
// listener and every session socket get a read-side shutdown, sessions
// finish the request in hand and answer anything still buffered with
// kShuttingDown, and every thread is joined before the pool stops.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/conditioner.hpp"
#include "server/metrics.hpp"
#include "server/session.hpp"
#include "service/entropy_pool.hpp"

namespace trng::server {

struct ServerConfig {
  service::PoolConfig pool;
  ConditionerConfig conditioner;
  SessionConfig session;

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

class ServerDaemon {
 public:
  /// Constructs the pool/conditioner synchronously; no threads run until
  /// start(). Throws std::invalid_argument on a bad config or factory.
  ServerDaemon(service::SourceFactory make, ServerConfig config);

  /// stop()s everything.
  ~ServerDaemon();

  ServerDaemon(const ServerDaemon&) = delete;
  ServerDaemon& operator=(const ServerDaemon&) = delete;

  /// Starts the pool's producer threads. Idempotent.
  void start();

  /// Creates a connected in-process client endpoint: spawns the serving
  /// session thread on one end of a socketpair and returns the other end
  /// (caller owns and closes it). The session's default shard is assigned
  /// round-robin. Returns -1 once the daemon is draining.
  int connect_client();

  /// Same, pinned to a specific pool shard.
  /// Throws std::out_of_range on a bad shard.
  int connect_client_to_shard(std::uint16_t shard);

  /// Binds an AF_UNIX listener at `path` (unlinking any stale socket) and
  /// starts the accept thread. Call at most once, before stop().
  /// Throws std::runtime_error on socket errors.
  void listen_unix(const std::string& path);

  /// Graceful shutdown: refuse new work, drain in-flight requests, join
  /// every session and the acceptor, then stop the pool. Idempotent.
  void stop();

  service::EntropyPool& pool() { return pool_; }
  Conditioner& conditioner() { return conditioner_; }
  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }

  /// The trng.server.metrics.v2 snapshot (daemon + shards + embedded
  /// service snapshot).
  std::string metrics_json() const {
    return metrics_.snapshot_json(pool_.metrics());
  }

 private:
  /// The one admission path for a new session's server-side `fd`: reaps
  /// finished sessions, then under sessions_mu_ refuses while draining
  /// (closing `fd`, returning false) or starts the session on `shard`,
  /// or on the next round-robin shard when none is given.
  bool admit(int fd, std::optional<std::uint16_t> shard);
  /// Socketpair front end of admit(): returns the client end, or -1 when
  /// admit() refused the server end.
  int connect_pair(std::optional<std::uint16_t> shard);
  void spawn_session_locked(int fd, std::uint16_t shard);
  /// Takes every finished session out of the table under sessions_mu_,
  /// then joins its thread and closes its fd outside the lock. Called
  /// before each new session, so the table, the fds and the exited
  /// threads' stacks stay bounded by the live sessions.
  void reap_finished_sessions();
  void accept_loop();
  /// Pause after a failed accept before retrying it.
  static constexpr std::chrono::milliseconds kAcceptBackoff{5};

  struct SessionHandle {
    std::unique_ptr<Session> session;
    std::thread thread;
    int fd;  ///< server-side fd, owned by the daemon (shutdown in stop())
  };

  ServerConfig config_;
  service::EntropyPool pool_;
  ServerMetrics metrics_;
  Conditioner conditioner_;

  /// One-way latches; same discipline as EntropyPool: exchange() makes
  /// start/stop idempotent, sessions observe draining_ with acquire.
  // trng-analyzer: atomic(flag)
  std::atomic<bool> started_{false};
  // trng-analyzer: atomic(flag)
  std::atomic<bool> draining_{false};
  // trng-analyzer: atomic(flag)
  std::atomic<bool> stopped_{false};

  mutable std::mutex sessions_mu_;
  // Declared locking contract (SA005): the session table, the shard
  // cursor and the listener fd are mutated by connect_client callers,
  // the accept thread and stop(), so every access takes sessions_mu_.
  // trng-analyzer: guards(sessions_, sessions_mu_)
  // trng-analyzer: guards(next_shard_, sessions_mu_)
  // trng-analyzer: guards(listen_fd_, sessions_mu_)
  std::vector<SessionHandle> sessions_;
  std::size_t next_shard_ = 0;
  int listen_fd_ = -1;

  std::thread accept_thread_;
  std::string unix_path_;
};

}  // namespace trng::server
