#ifndef THOR_NET_NET_SERVER_H_
#define THOR_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/http.h"
#include "src/net/socket.h"
#include "src/serve/server_loop.h"
#include "src/util/clock.h"
#include "src/util/metrics.h"

namespace thor::net {

/// Tuning knobs for the TCP/HTTP front-end.
struct NetServerOptions {
  uint16_t port = 0;       ///< 0 = ephemeral; Start() returns the bound port
  /// Close a connection with no in-flight requests after this long without
  /// traffic. 0 disables the idle reaper.
  double idle_timeout_ms = 60000.0;
  /// Close a connection whose oldest in-flight request has waited this long
  /// for its response (a stuck-extraction backstop, normally never hit
  /// because ServerLoop has its own batch deadline). 0 disables.
  double request_timeout_ms = 0.0;
  /// Per-message bounds; max_line_bytes doubles as the NDJSON line cap.
  WireLimits limits;
  /// Time source for idle/request timeouts (null = wall clock).
  const Clock* clock = nullptr;
  /// Optional sink for net.* counters and the net.connections gauge.
  MetricsRegistry* metrics = nullptr;
  /// Optional extra GET endpoints (the fleet worker's /ledger and
  /// /template replication surface). Invoked on the loop thread for GET
  /// paths the built-in routes do not claim; return true when handled,
  /// filling status, content type, and body. Handlers must be fast and
  /// non-blocking — they run inside the connection event loop.
  using ExtraGetHandler = std::function<bool(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& query,
      int* status, std::string* content_type, std::string* body)>;
  ExtraGetHandler extra_get;
};

/// \brief The networked thord front-end: many concurrent TCP connections
/// multiplexed into the one ServerLoop batching core.
///
/// Architecture: one EventLoop thread owns every connection (accept, read,
/// parse, write — all single-threaded, no locks around connection state).
/// Parsed requests enter ServerLoop tagged with their connection id; the
/// ServerLoop consumer thread hands each finished response to Deliver,
/// which posts it back to the loop thread for rendering and writeout. The
/// per-connection descriptor FIFO pairs responses with the request kind
/// that produced them (NDJSON line vs HTTP POST vs health probe), which
/// works because ServerLoop emits in submission order and each connection's
/// submissions are themselves ordered.
///
/// Protocol sniff: a connection that opens with an HTTP method token
/// ("GET ", "POST ", ...) is parsed as HTTP/1.1 (POST /extract with the
/// same JSON request document as body, plus GET /healthz and GET /metrics)
/// with keep-alive and pipelining; anything else — including malformed
/// garbage — speaks NDJSON, the stdio wire format over a socket, so bad
/// input earns the same "bad request" line stdio thord would print.
///
/// Overload and shutdown semantics are inherited from ServerLoop:
/// admission-control shed and drain responses come back through the same
/// tagged stream, in order, per connection. BeginDrain() stops accepting
/// and reading, then drains ServerLoop — every request already read gets a
/// real response ("draining" shed at worst), then connections flush and
/// close. Failpoints net.accept / net.read / net.write gate the three
/// connection-lifecycle boundaries for the chaos suite.
class NetServer {
 public:
  NetServer(serve::ServerLoop* loop, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, spawns the loop thread, returns the listening port.
  Result<uint16_t> Start();

  /// Routes one finished response back to its connection. Called by the
  /// ServerLoop consumer via the TaggedEmitFn; thread-safe.
  void Deliver(uint64_t tag, const std::string& site,
               const serve::ServerLoop::Response& response);

  /// Stops accepting and reading, then asks ServerLoop to drain. Safe from
  /// any thread (signal-handler-adjacent: thord calls it from its main
  /// thread when SIGTERM is observed).
  void BeginDrain();

  /// Flushes every outbox (up to `grace_ms`), stops the loop thread, and
  /// closes all sockets. Call after the ServerLoop consumer has returned
  /// so no Deliver races the teardown. Idempotent.
  void Shutdown(double grace_ms = 2000.0);

 private:
  /// What kind of request a pending ServerLoop submission was, so its
  /// response renders on the right protocol.
  enum class PendingKind : uint8_t {
    kNdjson,       ///< render as one JSON line + '\n'
    kHttpExtract,  ///< render as an HTTP response, status from source
    kHttpHealth,   ///< 200 "ok"
    kHttpMetrics,  ///< 200 metrics snapshot JSON
    kHttpError,    ///< pre-decided status + message (parse/route errors)
    kHttpRaw,      ///< pre-rendered body from an ExtraGetHandler
  };
  struct Pending {
    PendingKind kind = PendingKind::kNdjson;
    bool keep_alive = true;   ///< HTTP only
    int status = 0;           ///< kHttpError / kHttpRaw only
    std::string message;      ///< kHttpError message / kHttpRaw body
    std::string content_type; ///< kHttpRaw only
  };

  enum class Protocol : uint8_t { kUnknown, kNdjson, kHttp };

  struct Conn {
    uint64_t id = 0;
    Socket sock;
    Protocol protocol = Protocol::kUnknown;
    std::unique_ptr<LineFramer> framer;        ///< NDJSON mode
    std::unique_ptr<HttpRequestParser> parser; ///< HTTP mode
    std::string http_inbox;   ///< bytes not yet consumed by the parser
    std::string outbox;
    size_t outbox_offset = 0;
    std::deque<Pending> pending;  ///< submitted, response not yet delivered
    uint32_t interest = 0;        ///< current epoll interest bits
    bool read_eof = false;        ///< peer half-closed (or we stopped reading)
    bool close_after_flush = false;
    bool paused = false;          ///< reading suspended by backpressure
    double last_active_ms = 0.0;
    double oldest_pending_ms = 0.0;  ///< when pending went non-empty
  };

  void LoopThread();
  void OnAcceptReady();
  void OnConnReady(uint64_t id, uint32_t ready);
  void HandleRead(Conn& conn);
  void HandleWrite(Conn& conn);
  /// Decides NDJSON vs HTTP from the buffered first bytes and replays them
  /// into the chosen parser; true while still undecided or healthy.
  bool FeedSniff(Conn& conn);
  bool FeedNdjson(Conn& conn, std::string_view data);
  bool FeedHttp(Conn& conn, std::string_view data);
  void RouteHttpRequest(Conn& conn, const HttpRequest& request);
  /// Submits via ServerLoop and records the descriptor; returns false when
  /// the connection should stop reading (keep-alive ended).
  void Push(Conn& conn, Pending pending);
  void DeliverOnLoop(uint64_t tag, const std::string& site,
                     const serve::ServerLoop::Response& response);
  void Append(Conn& conn, std::string bytes);
  void SetInterest(Conn& conn, uint32_t interest);
  void CloseConn(uint64_t id, const char* why);
  void SweepTimeouts();
  void StopReading(Conn& conn);
  /// True when nothing remains to flush anywhere.
  bool AllFlushed() const;

  serve::ServerLoop* loop_;
  NetServerOptions options_;
  const Clock* clock_;
  MetricsRegistry* metrics_;

  EventLoop event_loop_;
  Socket listener_;
  std::thread thread_;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_down_{false};

  // Loop-thread-only state.
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  bool draining_ = false;
  bool flush_and_stop_ = false;
  double flush_deadline_ms_ = 0.0;
};

}  // namespace thor::net

#endif  // THOR_NET_NET_SERVER_H_
