#include "server/serverd.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace trng::server {

void ServerConfig::validate() const {
  conditioner.validate();
  // Checked here as well as in each Session's constructor, so a bad
  // config fails the daemon's constructor instead of the acceptor thread.
  session.validate(conditioner.drbg.max_request_bytes);
}

ServerDaemon::ServerDaemon(service::SourceFactory make, ServerConfig config)
    : config_(std::move(config)),
      pool_(std::move(make), config_.pool),
      metrics_(config_.pool.producers),
      conditioner_(pool_, config_.conditioner, metrics_) {
  config_.validate();
}

ServerDaemon::~ServerDaemon() { stop(); }

void ServerDaemon::start() {
  if (started_.exchange(true)) return;
  pool_.start();
}

void ServerDaemon::spawn_session_locked(int fd, std::uint16_t shard) {
  SessionHandle handle;
  handle.fd = fd;
  handle.session = std::make_unique<Session>(
      fd, shard, conditioner_, metrics_,
      [this] { return metrics_json(); }, config_.session, draining_);
  Session* session = handle.session.get();
  handle.thread = std::thread([session] { session->serve(); });
  sessions_.push_back(std::move(handle));
}

void ServerDaemon::reap_finished_sessions() {
  std::vector<SessionHandle> finished;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->session->finished()) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A concurrent stop() may have moved a thread out to join it itself.
  for (SessionHandle& handle : finished) {
    if (handle.thread.joinable()) handle.thread.join();
  }
  // ~Session closes each fd; stop() can no longer see these handles.
}

bool ServerDaemon::admit(int fd, std::optional<std::uint16_t> shard) {
  reap_finished_sessions();
  const std::size_t nshards = pool_.producers();
  std::lock_guard<std::mutex> lk(sessions_mu_);
  if (draining_.load(std::memory_order_acquire)) {
    ::close(fd);
    return false;
  }
  if (!shard) {
    shard = static_cast<std::uint16_t>(next_shard_);
    next_shard_ = (next_shard_ + 1) % nshards;
  }
  spawn_session_locked(fd, *shard);
  return true;
}

int ServerDaemon::connect_pair(std::optional<std::uint16_t> shard) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("ServerDaemon: socketpair failed");
  }
  if (!admit(sv[0], shard)) {
    ::close(sv[1]);
    return -1;
  }
  return sv[1];
}

int ServerDaemon::connect_client() { return connect_pair(std::nullopt); }

int ServerDaemon::connect_client_to_shard(std::uint16_t shard) {
  if (shard >= pool_.producers()) {
    throw std::out_of_range("ServerDaemon: shard index out of range");
  }
  return connect_pair(shard);
}

void ServerDaemon::listen_unix(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un::sun_path)) {
    throw std::invalid_argument("ServerDaemon: bad unix socket path");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("ServerDaemon: socket() failed");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("ServerDaemon: bind/listen failed on " + path);
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    if (listen_fd_ >= 0) {
      ::close(fd);
      throw std::logic_error("ServerDaemon: already listening");
    }
    listen_fd_ = fd;
  }
  unix_path_ = path;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ServerDaemon::accept_loop() {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    fd = listen_fd_;
  }
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      // stop() shuts the listener down after setting draining_; that is
      // the only way out. Any other failure (EMFILE/ENFILE when the fd
      // table is full, ENOBUFS/ENOMEM, ECONNABORTED) is metered, finished
      // sessions are reaped to free their fds, and accept is retried after
      // a short back-off, so the daemon serves again once fds free up.
      if (draining_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      metrics_.accept_retries.fetch_add(1, std::memory_order_relaxed);
      reap_finished_sessions();
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    if (!admit(client, std::nullopt)) return;
  }
}

void ServerDaemon::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);

  // Wake the acceptor first so no new session can appear, then join it
  // without holding sessions_mu_ (it takes the lock per accept).
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Read-side shutdown on every session socket: each serve() loop
  // finishes the request in hand, answers anything still buffered with
  // kShuttingDown, and exits at EOF. Writes stay open for the drain.
  // The thread handles move out under the lock and join outside it, so a
  // still-serving session never contends with stop() for sessions_mu_.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    workers.reserve(sessions_.size());
    for (SessionHandle& handle : sessions_) {
      ::shutdown(handle.fd, SHUT_RD);
      workers.push_back(std::move(handle.thread));
    }
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions_.clear();  // ~Session closes each server-side fd
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  pool_.stop();
}

}  // namespace trng::server
