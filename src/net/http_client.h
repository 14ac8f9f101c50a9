#ifndef THOR_NET_HTTP_CLIENT_H_
#define THOR_NET_HTTP_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/util/clock.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace thor::net {

/// Tuning knobs for the blocking HTTP/1.1 client.
struct HttpClientOptions {
  double connect_timeout_ms = 2000.0;
  /// Whole-request deadline: connect + write + full response read.
  double request_timeout_ms = 5000.0;
  /// Pooled idle keep-alive sockets kept per host:port.
  size_t max_idle_per_host = 4;
  /// Politeness: concurrent in-flight requests allowed per host:port.
  /// Excess callers block until a slot frees.
  int max_in_flight_per_host = 4;
  /// Time source for deadlines (null = wall clock).
  const Clock* clock = nullptr;
  /// Optional sink for net.client.* counters.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Blocking HTTP/1.1 client with per-host connection pooling.
///
/// The crawler-side counterpart of NetServer: HttpTransport issues every
/// probe query through one of these, so pooling (keep-alive reuse) and the
/// per-host in-flight cap sit below the resilient prober's retry loop —
/// the prober decides *whether* to retry, the client decides how many
/// requests a host may have in flight at all.
///
/// Thread-safe: concurrent requests to the same host share the pool and
/// its in-flight cap. Socket-level failures and deadline expiry are
/// Status errors; HTTP error statuses are successful Results (the caller
/// maps status codes to its own error taxonomy). A request that dies on a
/// pooled (possibly stale) connection before reading any response byte is
/// retried once on a fresh connection — real keep-alive races, not server
/// failures, are the only thing that path forgives.
class HttpClient {
 public:
  /// Side-channel facts about how a request fared, for callers whose retry
  /// policy depends on more than the final Status. `request_sent` is true
  /// once the request reached a live connection — after that the server
  /// may have processed it, so only idempotent requests may be resent. It
  /// stays false exactly when no fresh connect ever succeeded (the pooled
  /// stale-socket race the client forgives internally does not count: its
  /// bytes died with an already-closed connection).
  struct IssueInfo {
    bool request_sent = false;
  };

  explicit HttpClient(HttpClientOptions options = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  Result<HttpResponse> Get(const std::string& host, uint16_t port,
                           const std::string& target,
                           IssueInfo* info = nullptr);
  Result<HttpResponse> Post(const std::string& host, uint16_t port,
                            const std::string& target,
                            const std::string& body,
                            IssueInfo* info = nullptr);

 private:
  /// Per-host:port pool entry; guarded by mu_.
  struct HostState {
    std::vector<Socket> idle;
    int in_flight = 0;
  };

  Result<HttpResponse> Issue(const std::string& host, uint16_t port,
                             std::string_view method,
                             const std::string& target,
                             const std::string& body, IssueInfo* info);
  /// One attempt on one socket. `fresh` marks a just-connected socket
  /// (failures on it are real, not stale-keep-alive races).
  Result<HttpResponse> Attempt(Socket& sock, std::string_view wire,
                               const Deadline& deadline, bool* started);

  HttpClientOptions options_;
  const Clock* clock_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, HostState> hosts_;
};

}  // namespace thor::net

#endif  // THOR_NET_HTTP_CLIENT_H_
