#include "src/fleet/router.h"

#include <utility>

#include "src/serve/wire.h"
#include "src/util/failpoint.h"
#include "src/util/json.h"
#include "src/util/parallel.h"

namespace thor::fleet {

namespace {

/// Concurrent forwards allowed per worker (HttpClient in-flight cap).
constexpr int kMaxInFlightPerWorker = 32;

net::HttpClientOptions ClientOptions(const RouterOptions& options,
                                     const Clock* clock) {
  net::HttpClientOptions client;
  client.connect_timeout_ms = options.connect_timeout_ms;
  client.request_timeout_ms = options.request_timeout_ms;
  client.max_in_flight_per_host = kMaxInFlightPerWorker;
  client.clock = clock;
  client.metrics = options.metrics;
  return client;
}

}  // namespace

Router::Router(std::vector<std::vector<Endpoint>> shards,
               RouterOptions options)
    : ring_(shards.size(), options.vnodes),
      shards_(std::move(shards)),
      options_(options),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()),
      client_(ClientOptions(options_, clock_)),
      next_replica_(shards_.size(), 0) {}

std::vector<size_t> Router::Candidates(size_t shard) {
  const std::vector<Endpoint>& replicas = shards_[shard];
  const double now = clock_->NowMs();
  std::vector<size_t> allowed;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start = next_replica_[shard]++;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const size_t idx = (start + i) % replicas.size();
    Health& health = health_[replicas[idx].Key()];
    if (!health.ejected) {
      allowed.push_back(idx);
      continue;
    }
    if (now - health.ejected_at_ms >= options_.halfopen_ms) {
      // Half-open: let one probe through and re-arm the sit-out, so a
      // concurrent burst doesn't all pile onto a possibly-dead replica.
      health.ejected_at_ms = now;
      AddCounter(options_.metrics, "fleet.halfopen_probes");
      allowed.push_back(idx);
    }
  }
  if (allowed.empty()) {
    // Every replica ejected and none due a probe: the breaker yields
    // rather than manufacturing an outage the workers may not deserve.
    for (size_t i = 0; i < replicas.size(); ++i) {
      allowed.push_back((start + i) % replicas.size());
    }
  }
  return allowed;
}

void Router::RecordSuccess(const Endpoint& endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  Health& health = health_[endpoint.Key()];
  health.consecutive_failures = 0;
  if (health.ejected) {
    health.ejected = false;
    AddCounter(options_.metrics, "fleet.reinstated");
  }
}

void Router::RecordFailure(const Endpoint& endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  Health& health = health_[endpoint.Key()];
  ++health.consecutive_failures;
  if (health.ejected) {
    health.ejected_at_ms = clock_->NowMs();  // failed probe re-arms
    return;
  }
  if (health.consecutive_failures >= options_.eject_after) {
    health.ejected = true;
    health.ejected_at_ms = clock_->NowMs();
    AddCounter(options_.metrics, "fleet.ejections");
  }
}

Router::Response Router::Forward(const Request& request) {
  Response shed;
  shed.source = serve::ExtractionService::Source::kShed;
  Status gate = THOR_FAILPOINT("fleet.route");
  if (!gate.ok()) {
    AddCounter(options_.metrics, "fleet.route_errors");
    shed.error = "router unavailable: " + gate.message();
    return shed;
  }
  const size_t shard = ring_.ShardFor(request.site);
  const std::vector<Endpoint>& replicas = shards_[shard];
  const std::vector<size_t> candidates = Candidates(shard);
  const int max_attempts = options_.max_attempts > 0
                               ? options_.max_attempts
                               : static_cast<int>(candidates.size());

  JsonWriter json;
  json.BeginObject();
  json.Key("site").String(request.site);
  json.Key("html").String(request.html);
  json.EndObject();
  const std::string body = json.str();

  std::string last_error = "no replica available";
  int attempt = 0;
  for (size_t idx : candidates) {
    if (attempt >= max_attempts) break;
    const Endpoint& endpoint = replicas[idx];
    if (attempt > 0) {
      Status redirect = THOR_FAILPOINT("fleet.redirect");
      if (!redirect.ok()) {
        AddCounter(options_.metrics, "fleet.redirect_errors");
        last_error = "redirect failed: " + redirect.message();
        break;
      }
      AddCounter(options_.metrics, "fleet.redirects");
    }
    ++attempt;
    net::HttpClient::IssueInfo info;
    auto result =
        client_.Post(endpoint.host, endpoint.port, "/extract", body, &info);
    if (result.ok()) {
      if (result->status_code == 503) {
        // The worker is alive and explicitly refused the request before
        // processing it — shed, not breaker failure, and always safe to
        // hand to the next replica.
        RecordSuccess(endpoint);
        AddCounter(options_.metrics, "fleet.upstream_shed");
        last_error = "replica " + endpoint.Key() + " shedding";
        continue;
      }
      std::string site;
      auto parsed = serve::ResponseFromJson(result->body, &site);
      if (!parsed.ok()) {
        // The worker answered, so the request was processed — returning
        // a typed shed (never a retry) keeps the no-replay rule intact.
        RecordFailure(endpoint);
        AddCounter(options_.metrics, "fleet.bad_upstream");
        shed.error = "bad upstream response from " + endpoint.Key() + ": " +
                     parsed.status().message();
        return shed;
      }
      RecordSuccess(endpoint);
      AddCounter(options_.metrics, "fleet.forwarded");
      return *parsed;
    }
    RecordFailure(endpoint);
    if (info.request_sent) {
      // The request reached a live worker and then the connection died.
      // It may have been processed (and may have started a relearn) —
      // replaying it on another replica could fork the fleet's stores,
      // so the failure surfaces to the client as a typed shed instead.
      AddCounter(options_.metrics, "fleet.inflight_failures");
      shed.error = "replica " + endpoint.Key() +
                   " failed mid-request: " + result.status().message();
      return shed;
    }
    // Connect-class failure: the request never left this process, so the
    // next replica can take it without any replay risk.
    AddCounter(options_.metrics, "fleet.connect_failures");
    last_error = "replica " + endpoint.Key() + " unreachable: " +
                 result.status().message();
  }
  AddCounter(options_.metrics, "fleet.shed");
  shed.error = last_error;
  return shed;
}

std::vector<Router::Response> Router::ForwardBatch(
    const std::vector<Request>& requests, const Deadline& deadline) {
  return ParallelMap(
      requests.size(),
      [&](size_t i) {
        Status expired = deadline.Check("forward " + requests[i].site);
        if (!expired.ok()) {
          Response response;
          response.source = serve::ExtractionService::Source::kDeadline;
          response.error = expired.message();
          AddCounter(options_.metrics, "fleet.deadline");
          return response;
        }
        return Forward(requests[i]);
      },
      options_.threads);
}

std::map<std::string, Router::EndpointHealth> Router::HealthSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, EndpointHealth> snapshot;
  for (const auto& [key, health] : health_) {
    snapshot[key] =
        EndpointHealth{health.consecutive_failures, health.ejected};
  }
  return snapshot;
}

}  // namespace thor::fleet
