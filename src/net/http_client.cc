#include "src/net/http_client.h"

#include <utility>

namespace thor::net {

namespace {

std::string HostKey(const std::string& host, uint16_t port) {
  return host + ":" + std::to_string(port);
}

}  // namespace

HttpClient::HttpClient(HttpClientOptions options)
    : options_(options),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()) {
  IgnoreSigPipe();
}

HttpClient::~HttpClient() = default;

Result<HttpResponse> HttpClient::Get(const std::string& host, uint16_t port,
                                     const std::string& target,
                                     IssueInfo* info) {
  return Issue(host, port, "GET", target, "", info);
}

Result<HttpResponse> HttpClient::Post(const std::string& host, uint16_t port,
                                      const std::string& target,
                                      const std::string& body,
                                      IssueInfo* info) {
  return Issue(host, port, "POST", target, body, info);
}

Result<HttpResponse> HttpClient::Issue(const std::string& host,
                                       uint16_t port,
                                       std::string_view method,
                                       const std::string& target,
                                       const std::string& body,
                                       IssueInfo* info) {
  if (info != nullptr) *info = IssueInfo{};
  const std::string key = HostKey(host, port);
  // Admission: an in-flight slot. It is per-host, so hammering one host
  // cannot starve requests to another.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return hosts_[key].in_flight < options_.max_in_flight_per_host;
    });
    ++hosts_[key].in_flight;
  }

  Deadline deadline = Deadline::After(clock_, options_.request_timeout_ms);
  std::string wire = SerializeRequest(method, target, body,
                                      {{"Host", HostKey(host, port)}});

  Result<HttpResponse> result = Status::Internal("unreachable");
  bool keep = false;
  Socket sock;
  // First try a pooled keep-alive socket; a failure before any response
  // byte arrives is most likely the server having timed out the idle
  // connection, so that one case retries on a fresh connect.
  {
    std::lock_guard<std::mutex> lock(mu_);
    HostState& state = hosts_[key];
    if (!state.idle.empty()) {
      sock = std::move(state.idle.back());
      state.idle.pop_back();
    }
  }
  bool attempted = false;
  if (sock.valid()) {
    bool started = false;
    result = Attempt(sock, wire, deadline, &started);
    attempted = result.ok() || started;
    if (attempted) {
      if (info != nullptr) info->request_sent = true;
      AddCounter(options_.metrics, "net.client.reused");
    } else {
      // The stale keep-alive race: the pooled socket was already dead, so
      // the written bytes never reached a live server — still unsent.
      AddCounter(options_.metrics, "net.client.stale_retries");
      sock.Close();
    }
  }
  if (!attempted) {
    Deadline connect_deadline =
        Deadline::After(clock_, options_.connect_timeout_ms);
    auto fresh = ConnectTcp(host, port, connect_deadline);
    if (fresh.ok()) {
      sock = std::move(*fresh);
      if (info != nullptr) info->request_sent = true;
      bool started = false;
      result = Attempt(sock, wire, deadline, &started);
      AddCounter(options_.metrics, "net.client.connects");
    } else {
      result = fresh.status();
      AddCounter(options_.metrics, "net.client.connect_failures");
    }
  }
  keep = result.ok() && result->keep_alive && !result->truncated;

  {
    std::lock_guard<std::mutex> lock(mu_);
    HostState& state = hosts_[key];
    --state.in_flight;
    if (keep && state.idle.size() < options_.max_idle_per_host) {
      state.idle.push_back(std::move(sock));
    }
  }
  cv_.notify_all();
  if (result.ok()) {
    AddCounter(options_.metrics, "net.client.requests");
  }
  return result;
}

Result<HttpResponse> HttpClient::Attempt(Socket& sock, std::string_view wire,
                                         const Deadline& deadline,
                                         bool* started) {
  *started = false;
  // Write the serialized request, waiting out short writes.
  size_t sent = 0;
  while (sent < wire.size()) {
    IoResult io = WriteSome(sock.fd(), wire.data() + sent, wire.size() - sent);
    if (io.status == IoStatus::kOk) {
      sent += io.bytes;
      continue;
    }
    if (io.status == IoStatus::kWouldBlock) {
      THOR_RETURN_IF_ERROR(WaitReady(sock.fd(), /*for_write=*/true, deadline));
      continue;
    }
    return Status::Internal("connection closed during request write");
  }
  // Read until the parser completes one response.
  HttpResponseParser parser;
  char buf[65536];
  for (;;) {
    IoResult io = ReadSome(sock.fd(), buf, sizeof(buf));
    if (io.status == IoStatus::kWouldBlock) {
      THOR_RETURN_IF_ERROR(WaitReady(sock.fd(), /*for_write=*/false, deadline));
      continue;
    }
    if (io.status == IoStatus::kError) {
      return Status::Internal("socket read failed");
    }
    if (io.status == IoStatus::kClosed) {
      ParseState state = parser.FeedEof();
      if (state == ParseState::kDone) break;
      if (*started) return parser.error();
      return Status::Internal("connection closed before response");
    }
    *started = true;
    size_t consumed = 0;
    ParseState state = parser.Feed(std::string_view(buf, io.bytes), &consumed);
    if (state == ParseState::kDone) break;
    if (state == ParseState::kError) return parser.error();
  }
  HttpResponse response = parser.response();
  if (!response.keep_alive) sock.Close();
  return response;
}

}  // namespace thor::net
