#include "src/net/net_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/serve/wire.h"
#include "src/util/failpoint.h"

namespace thor::net {

namespace {

/// HTTP status for an extraction response: overload and drain shed → 503,
/// deadline expiry → 504, client mistakes (parse errors arrive as
/// immediates whose error starts "bad request") → 400, everything else a
/// 200 whose body carries the same JSON line the NDJSON stream would.
int StatusForResponse(const serve::ServerLoop::Response& response) {
  using Source = serve::ExtractionService::Source;
  if (response.source == Source::kShed) return 503;
  if (response.source == Source::kDeadline) return 504;
  if (!response.error.empty() &&
      response.error.rfind("bad request", 0) == 0) {
    return 400;
  }
  return 200;
}

constexpr const char* kJsonType = "application/json";

/// Connections beyond this are accepted and closed at once
/// (net.accept_over_capacity).
constexpr size_t kMaxConnections = 1024;
/// Stop reading from a connection whose unsent responses exceed this —
/// per-connection backpressure so one slow reader cannot buffer without
/// bound. Reading resumes when the outbox drains below the mark.
constexpr size_t kMaxOutboxBytes = 8u << 20;

}  // namespace

NetServer::NetServer(serve::ServerLoop* loop, NetServerOptions options)
    : loop_(loop),
      options_(options),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()),
      metrics_(options_.metrics) {}

NetServer::~NetServer() { Shutdown(0.0); }

Result<uint16_t> NetServer::Start() {
  THOR_RETURN_IF_ERROR(event_loop_.Init());
  auto listener = ListenTcp(options_.port);
  THOR_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(*listener);
  auto port = LocalPort(listener_);
  THOR_RETURN_IF_ERROR(port.status());
  THOR_RETURN_IF_ERROR(event_loop_.Add(
      listener_.fd(), Ready::kRead, [this](uint32_t) { OnAcceptReady(); }));
  started_ = true;
  thread_ = std::thread([this] { LoopThread(); });
  return *port;
}

void NetServer::LoopThread() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short slices so the timeout sweep and drain/flush checks run even
    // while the fds are quiet; SimulatedClock tests rely on this cadence.
    event_loop_.PollOnce(50);
    SweepTimeouts();
    if (flush_and_stop_ &&
        (AllFlushed() || clock_->NowMs() >= flush_deadline_ms_)) {
      stop_.store(true, std::memory_order_relaxed);
    }
  }
}

void NetServer::OnAcceptReady() {
  for (;;) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a race with a vanished client
    Socket sock(fd);
    if (draining_) continue;  // closes: drain refuses new connections
    Status gate = THOR_FAILPOINT("net.accept");
    if (!gate.ok()) {
      AddCounter(metrics_, "net.accept_failures");
      continue;  // the injected failure costs this connection only
    }
    if (conns_.size() >= kMaxConnections) {
      AddCounter(metrics_, "net.accept_over_capacity");
      continue;
    }
    if (!SetNonBlocking(sock.fd()).ok()) continue;
    SetNoDelay(sock.fd());
    auto conn = std::make_unique<Conn>();
    conn->id = next_id_++;
    conn->sock = std::move(sock);
    conn->last_active_ms = clock_->NowMs();
    const int conn_fd = conn->sock.fd();
    const uint64_t id = conn->id;
    conn->interest = Ready::kRead;
    if (!event_loop_
             .Add(conn_fd, Ready::kRead,
                  [this, id](uint32_t ready) { OnConnReady(id, ready); })
             .ok()) {
      continue;  // conn (and its fd) destroyed
    }
    conns_.emplace(id, std::move(conn));
    AddCounter(metrics_, "net.accepted");
    SetGauge(metrics_, "net.connections",
             static_cast<double>(conns_.size()));
  }
}

void NetServer::OnConnReady(uint64_t id, uint32_t ready) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if ((ready & Ready::kError) != 0) {
    CloseConn(id, "net.closed_error");
    return;
  }
  if ((ready & Ready::kWrite) != 0) {
    HandleWrite(conn);
    if (conns_.find(id) == conns_.end()) return;  // closed during write
  }
  if ((ready & Ready::kRead) != 0 && !conn.read_eof && !conn.paused) {
    HandleRead(conn);
  }
}

void NetServer::HandleRead(Conn& conn) {
  const uint64_t id = conn.id;
  Status gate = THOR_FAILPOINT("net.read");
  if (!gate.ok()) {
    AddCounter(metrics_, "net.read_failures");
    CloseConn(id, "net.closed_error");
    return;
  }
  conn.last_active_ms = clock_->NowMs();
  bool submitted = false;
  char buf[65536];
  for (;;) {
    IoResult io = ReadSome(conn.sock.fd(), buf, sizeof(buf));
    if (io.status == IoStatus::kOk) {
      std::string_view data(buf, io.bytes);
      AddCounter(metrics_, "net.bytes_in", static_cast<int64_t>(io.bytes));
      bool alive;
      if (conn.protocol == Protocol::kUnknown) {
        conn.http_inbox.append(data.data(), data.size());
        alive = FeedSniff(conn);
      } else {
        alive = conn.protocol == Protocol::kNdjson ? FeedNdjson(conn, data)
                                                   : FeedHttp(conn, data);
      }
      submitted = true;  // descriptors may have been queued either way
      if (!alive || conns_.find(id) == conns_.end()) break;
      if (conn.outbox.size() - conn.outbox_offset > kMaxOutboxBytes) {
        conn.paused = true;
        SetInterest(conn, conn.interest & ~Ready::kRead);
        break;
      }
      continue;
    }
    if (io.status == IoStatus::kWouldBlock) break;
    // kClosed / kError: the peer half-closed (shutdown(SHUT_WR)) or reset.
    // Responses already in flight still get written; the connection closes
    // once everything owed has flushed.
    if (conn.protocol == Protocol::kUnknown && !conn.http_inbox.empty()) {
      // EOF before the sniff settled: a lone unterminated line can no
      // longer be an HTTP head, so it gets the NDJSON treatment.
      conn.protocol = Protocol::kNdjson;
      conn.framer =
          std::make_unique<LineFramer>(options_.limits.max_line_bytes);
      std::string buffered = std::move(conn.http_inbox);
      conn.http_inbox.clear();
      FeedNdjson(conn, buffered);
      submitted = true;
    }
    if (conn.protocol == Protocol::kNdjson && conn.framer != nullptr &&
        conn.framer->pending_bytes() > 0) {
      // A final request without a trailing newline still counts — stdio
      // getline accepts it, so the socket front-end must too.
      FeedNdjson(conn, "\n");
      submitted = true;
    }
    conn.read_eof = true;
    SetInterest(conn, conn.interest & ~Ready::kRead);
    if (conn.protocol == Protocol::kNdjson || conn.pending.empty()) {
      conn.close_after_flush = true;
    }
    if (conn.pending.empty() &&
        conn.outbox.size() == conn.outbox_offset) {
      CloseConn(id, io.status == IoStatus::kClosed ? "net.closed_eof"
                                                   : "net.closed_error");
      return;
    }
    break;
  }
  if (conns_.find(id) == conns_.end()) return;
  if (submitted && !conn.pending.empty()) loop_->Kick();
}

bool NetServer::FeedSniff(Conn& conn) {
  // NDJSON is the native wire format; a connection is HTTP only when its
  // first token is an actual method. Anything else — '{', garbage, a
  // typo'd method — goes down the NDJSON path so malformed input earns
  // the same "bad request" line stdio thord prints.
  std::string_view text(conn.http_inbox);
  size_t first = text.find_first_not_of("\r\n \t");
  if (first == std::string_view::npos) return true;  // keep sniffing
  text.remove_prefix(first);
  bool is_http = false;
  if (text[0] != '{') {
    static constexpr std::string_view kMethods[] = {
        "GET ", "POST ", "PUT ", "HEAD ", "DELETE ", "OPTIONS ", "PATCH "};
    for (std::string_view method : kMethods) {
      if (text.size() < method.size()) {
        // A proper prefix of a method ("GE"): undecidable, wait for more.
        if (method.substr(0, text.size()) == text) return true;
        continue;
      }
      if (text.substr(0, method.size()) == method) {
        is_http = true;
        break;
      }
    }
  }
  if (is_http) {
    conn.protocol = Protocol::kHttp;
    conn.parser = std::make_unique<HttpRequestParser>(options_.limits);
    return FeedHttp(conn, "");  // parse what the sniff buffered
  }
  conn.protocol = Protocol::kNdjson;
  conn.framer = std::make_unique<LineFramer>(options_.limits.max_line_bytes);
  std::string buffered = std::move(conn.http_inbox);
  conn.http_inbox.clear();
  return FeedNdjson(conn, buffered);
}

bool NetServer::FeedNdjson(Conn& conn, std::string_view data) {
  for (LineFramer::Line& line : conn.framer->Feed(data)) {
    if (line.oversized) {
      // Byte-identical to the stdio front-end's oversized-line answer.
      AddCounter(metrics_, "net.oversized_lines");
      AddCounter(metrics_, "serve.shed");
      serve::ServerLoop::Response response;
      response.source = serve::ExtractionService::Source::kShed;
      response.error = "request too large";
      loop_->SubmitImmediate(conn.id, "", std::move(response));
      Push(conn, Pending{PendingKind::kNdjson, true, 0, "", ""});
      continue;
    }
    if (line.text.empty()) continue;
    std::string site;
    std::string html;
    std::string error = serve::ParseRequestLine(line.text, &site, &html);
    if (!error.empty()) {
      AddCounter(metrics_, "net.parse_errors");
      serve::ServerLoop::Response response;
      response.error = std::move(error);
      loop_->SubmitImmediate(conn.id, site, std::move(response));
    } else {
      loop_->Submit(conn.id, std::move(site), std::move(html));
    }
    AddCounter(metrics_, "net.requests");
    Push(conn, Pending{PendingKind::kNdjson, true, 0, "", ""});
  }
  return true;
}

bool NetServer::FeedHttp(Conn& conn, std::string_view data) {
  conn.http_inbox.append(data.data(), data.size());
  for (;;) {
    size_t consumed = 0;
    ParseState state = conn.parser->Feed(conn.http_inbox, &consumed);
    conn.http_inbox.erase(0, consumed);
    if (state == ParseState::kNeedMore) return true;
    if (state == ParseState::kError) {
      AddCounter(metrics_, "net.parse_errors");
      // A malformed head poisons the framing; answer once in stream order
      // and stop reading — the connection closes after the flush.
      const Status& error = conn.parser->error();
      int status = 400;
      if (error.message().find("exceeds") != std::string::npos ||
          error.message().find("too many") != std::string::npos) {
        status = error.message().find("body") != std::string::npos ? 413
                                                                   : 431;
      }
      loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
      Push(conn, Pending{PendingKind::kHttpError, false, status,
                         error.message(), ""});
      StopReading(conn);
      return false;
    }
    RouteHttpRequest(conn, conn.parser->request());
    const bool keep_alive = conn.parser->request().keep_alive;
    conn.parser->Reset();
    if (!keep_alive) {
      StopReading(conn);
      return false;
    }
    // Loop: the parser buffers surplus bytes internally, so feed it the
    // (possibly empty) remaining inbox until it reports kNeedMore — that
    // drains a pipelined burst in one pass.
  }
}

void NetServer::RouteHttpRequest(Conn& conn, const HttpRequest& request) {
  AddCounter(metrics_, "net.requests");
  const bool keep_alive = request.keep_alive;
  std::string path;
  std::vector<std::pair<std::string, std::string>> query;
  if (!ParseTarget(request.target, &path, &query).ok()) {
    loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
    Push(conn, Pending{PendingKind::kHttpError, keep_alive, 400,
                       "bad request: malformed target", ""});
    return;
  }
  if (request.method == "POST" && path == "/extract") {
    std::string site;
    std::string html;
    std::string error = serve::ParseRequestLine(request.body, &site, &html);
    if (!error.empty()) {
      AddCounter(metrics_, "net.parse_errors");
      serve::ServerLoop::Response response;
      response.error = std::move(error);
      loop_->SubmitImmediate(conn.id, site, std::move(response));
    } else {
      loop_->Submit(conn.id, std::move(site), std::move(html));
    }
    Push(conn, Pending{PendingKind::kHttpExtract, keep_alive, 0, "", ""});
    return;
  }
  if (request.method == "GET" && path == "/healthz") {
    loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
    Push(conn, Pending{PendingKind::kHttpHealth, keep_alive, 0, "", ""});
    return;
  }
  if (request.method == "GET" && path == "/metrics") {
    loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
    Push(conn, Pending{PendingKind::kHttpMetrics, keep_alive, 0, "", ""});
    return;
  }
  if (request.method == "GET" && options_.extra_get) {
    int status = 200;
    std::string content_type = kJsonType;
    std::string body;
    if (options_.extra_get(path, query, &status, &content_type, &body)) {
      loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
      Push(conn, Pending{PendingKind::kHttpRaw, keep_alive, status,
                         std::move(body), std::move(content_type)});
      return;
    }
  }
  const int status =
      (path == "/extract" || path == "/healthz" || path == "/metrics")
          ? 405
          : 404;
  loop_->SubmitImmediate(conn.id, "", serve::ServerLoop::Response{});
  Push(conn, Pending{PendingKind::kHttpError, keep_alive, status,
                     status == 405 ? "method not allowed" : "not found", ""});
}

void NetServer::Push(Conn& conn, Pending pending) {
  if (conn.pending.empty()) conn.oldest_pending_ms = clock_->NowMs();
  conn.pending.push_back(std::move(pending));
}

void NetServer::StopReading(Conn& conn) {
  conn.read_eof = true;
  conn.close_after_flush = true;
  SetInterest(conn, conn.interest & ~Ready::kRead);
}

void NetServer::Deliver(uint64_t tag, const std::string& site,
                        const serve::ServerLoop::Response& response) {
  if (shut_down_.load(std::memory_order_acquire)) return;
  event_loop_.PostTask([this, tag, site, response] {
    DeliverOnLoop(tag, site, response);
  });
}

void NetServer::DeliverOnLoop(uint64_t tag, const std::string& site,
                              const serve::ServerLoop::Response& response) {
  auto it = conns_.find(tag);
  if (it == conns_.end()) return;  // client vanished; drop the response
  Conn& conn = *it->second;
  if (conn.pending.empty()) return;  // defensive: nothing owed
  Pending pending = std::move(conn.pending.front());
  conn.pending.pop_front();
  if (!conn.pending.empty()) conn.oldest_pending_ms = clock_->NowMs();
  switch (pending.kind) {
    case PendingKind::kNdjson:
      Append(conn, serve::ResponseToJson(site, response) + "\n");
      break;
    case PendingKind::kHttpExtract: {
      const int status = StatusForResponse(response);
      std::vector<std::pair<std::string, std::string>> headers = {
          {"Content-Type", kJsonType}};
      if (status == 503) {
        // Overload shed: tell polite clients (the fleet router included)
        // how long to back off before hammering this shard again. The
        // hint grows with the backlog — a drain shed and an empty queue
        // still advertise the 1-second floor.
        const size_t depth = loop_->QueueDepth();
        const long long hint = static_cast<long long>(
            std::min<size_t>(1 + depth / 64, 30));
        headers.emplace_back("Retry-After", std::to_string(hint));
      }
      Append(conn, SerializeResponse(
                       status, ReasonPhrase(status),
                       serve::ResponseToJson(site, response) + "\n",
                       headers, pending.keep_alive));
      break;
    }
    case PendingKind::kHttpHealth:
      Append(conn, SerializeResponse(200, "OK", "ok\n",
                                     {{"Content-Type", "text/plain"}},
                                     pending.keep_alive));
      break;
    case PendingKind::kHttpMetrics: {
      std::string body =
          metrics_ != nullptr ? metrics_->Snapshot().ToJson() + "\n" : "{}\n";
      Append(conn, SerializeResponse(200, "OK", std::move(body),
                                     {{"Content-Type", kJsonType}},
                                     pending.keep_alive));
      break;
    }
    case PendingKind::kHttpError:
      Append(conn,
             SerializeResponse(pending.status, ReasonPhrase(pending.status),
                               "{\"error\":\"" + pending.message + "\"}\n",
                               {{"Content-Type", kJsonType}},
                               pending.keep_alive));
      break;
    case PendingKind::kHttpRaw:
      Append(conn,
             SerializeResponse(pending.status, ReasonPhrase(pending.status),
                               std::move(pending.message),
                               {{"Content-Type", pending.content_type}},
                               pending.keep_alive));
      break;
  }
  if (!pending.keep_alive) StopReading(conn);
  if (!conn.paused && !conn.read_eof &&
      conn.outbox.size() - conn.outbox_offset > kMaxOutboxBytes) {
    conn.paused = true;
    SetInterest(conn, conn.interest & ~Ready::kRead);
  }
  HandleWrite(conn);  // opportunistic write; arms kWrite if short
}

void NetServer::Append(Conn& conn, std::string bytes) {
  if (conn.outbox_offset == conn.outbox.size()) {
    conn.outbox = std::move(bytes);
    conn.outbox_offset = 0;
  } else {
    conn.outbox += bytes;
  }
}

void NetServer::HandleWrite(Conn& conn) {
  const uint64_t id = conn.id;
  while (conn.outbox_offset < conn.outbox.size()) {
    Status gate = THOR_FAILPOINT("net.write");
    if (!gate.ok()) {
      AddCounter(metrics_, "net.write_failures");
      CloseConn(id, "net.closed_error");
      return;
    }
    IoResult io =
        WriteSome(conn.sock.fd(), conn.outbox.data() + conn.outbox_offset,
                  conn.outbox.size() - conn.outbox_offset);
    if (io.status == IoStatus::kOk) {
      conn.outbox_offset += io.bytes;
      AddCounter(metrics_, "net.bytes_out", static_cast<int64_t>(io.bytes));
      continue;
    }
    if (io.status == IoStatus::kWouldBlock) {
      SetInterest(conn, conn.interest | Ready::kWrite);
      return;
    }
    // kClosed: the peer's read side is gone (EPIPE with SIGPIPE ignored).
    // Typed, counted, and fatal only to this one connection.
    AddCounter(metrics_, io.status == IoStatus::kClosed ? "net.epipe_closed"
                                                        : "net.io_errors");
    CloseConn(id, "net.closed_error");
    return;
  }
  conn.outbox.clear();
  conn.outbox_offset = 0;
  SetInterest(conn, conn.interest & ~Ready::kWrite);
  if (conn.paused) {
    conn.paused = false;
    if (!conn.read_eof) SetInterest(conn, conn.interest | Ready::kRead);
  }
  if (conn.pending.empty() && (conn.close_after_flush || conn.read_eof)) {
    CloseConn(id, "net.closed");
  }
}

void NetServer::SetInterest(Conn& conn, uint32_t interest) {
  if (interest == conn.interest) return;
  conn.interest = interest;
  event_loop_.Modify(conn.sock.fd(), interest);
}

void NetServer::CloseConn(uint64_t id, const char* why) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  event_loop_.Remove(it->second->sock.fd());
  conns_.erase(it);
  AddCounter(metrics_, why);
  SetGauge(metrics_, "net.connections", static_cast<double>(conns_.size()));
}

void NetServer::SweepTimeouts() {
  if (options_.idle_timeout_ms <= 0.0 && options_.request_timeout_ms <= 0.0) {
    return;
  }
  const double now = clock_->NowMs();
  std::vector<uint64_t> idle;
  std::vector<uint64_t> stuck;
  for (const auto& [id, conn] : conns_) {
    if (conn->pending.empty()) {
      if (options_.idle_timeout_ms > 0.0 && !conn->close_after_flush &&
          now - conn->last_active_ms >= options_.idle_timeout_ms) {
        idle.push_back(id);
      }
    } else if (options_.request_timeout_ms > 0.0 &&
               now - conn->oldest_pending_ms >= options_.request_timeout_ms) {
      stuck.push_back(id);
    }
  }
  for (uint64_t id : idle) CloseConn(id, "net.idle_timeouts");
  for (uint64_t id : stuck) CloseConn(id, "net.request_timeouts");
}

bool NetServer::AllFlushed() const {
  for (const auto& [id, conn] : conns_) {
    if (!conn->pending.empty() ||
        conn->outbox_offset < conn->outbox.size()) {
      return false;
    }
  }
  return true;
}

void NetServer::BeginDrain() {
  event_loop_.PostTask([this] {
    if (draining_) return;
    draining_ = true;
    // Stop accepting and stop reading: every byte already read gets a
    // response (ServerLoop's drain sheds the queued remainder), nothing
    // new is admitted.
    if (listener_.valid()) {
      event_loop_.Remove(listener_.fd());
      listener_.Close();
    }
    for (auto& [id, conn] : conns_) {
      conn->read_eof = true;
      conn->close_after_flush = true;
      SetInterest(*conn, conn->interest & ~Ready::kRead);
    }
    loop_->RequestDrain();
  });
}

void NetServer::Shutdown(double grace_ms) {
  if (!started_ || shut_down_.exchange(true)) return;
  event_loop_.PostTask([this, grace_ms] {
    flush_and_stop_ = true;
    flush_deadline_ms_ = clock_->NowMs() + grace_ms;
  });
  if (thread_.joinable()) thread_.join();
  // Loop thread is gone; safe to tear down its state from here.
  for (auto& [id, conn] : conns_) event_loop_.Remove(conn->sock.fd());
  conns_.clear();
  if (listener_.valid()) {
    event_loop_.Remove(listener_.fd());
    listener_.Close();
  }
}

}  // namespace thor::net
