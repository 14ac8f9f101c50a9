#ifndef THOR_FLEET_ROUTER_H_
#define THOR_FLEET_ROUTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/fleet/hash_ring.h"
#include "src/net/http_client.h"
#include "src/serve/extraction_service.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"

namespace thor::fleet {

/// Tuning knobs for the fleet router.
struct RouterOptions {
  /// Virtual nodes per shard on the consistent-hash ring.
  int vnodes = 64;
  /// Consecutive failures that eject an endpoint from rotation.
  int eject_after = 3;
  /// How long an ejected endpoint sits out before one half-open probe
  /// request is allowed through to test it.
  double halfopen_ms = 500.0;
  /// Per-forward attempt budget: how many replicas of the owning shard one
  /// request may try (0 = all of them). Redirects beyond the first
  /// candidate count fleet.redirects.
  int max_attempts = 0;
  /// HttpClient timeouts for worker requests.
  double connect_timeout_ms = 1000.0;
  double request_timeout_ms = 10000.0;
  /// Threads for the per-batch forward fan-out (0 = process default).
  int threads = 0;
  const Clock* clock = nullptr;          ///< null = wall clock
  MetricsRegistry* metrics = nullptr;    ///< optional fleet.* sink
};

/// \brief The thin front half of a sharded extraction fleet: maps each
/// request's site onto its shard (consistent hashing), forwards it to a
/// healthy replica over HTTP, and turns replica failure into bounded,
/// idempotency-safe retries instead of client-visible errors.
///
/// Health model: a per-endpoint circuit breaker. `eject_after`
/// consecutive failures remove a replica from rotation; after
/// `halfopen_ms` one probe request is let through — success reinstates
/// the replica, failure re-arms the sit-out. When every replica of a
/// shard is ejected the breaker yields (all are candidates again): the
/// breaker exists to shed doomed work, never to turn a reachable fleet
/// into an outage.
///
/// Retry rule (the non-negotiable part): a request is re-sent to the next
/// replica only when the previous attempt provably never reached a live
/// worker — a connect-class failure (HttpClient::IssueInfo.request_sent
/// false) — or when the worker explicitly refused it with a 503 shed.
/// Once a request may have been received, a failure returns a typed shed
/// to the client instead of retrying: POST /extract can trigger a
/// relearn, and replaying a maybe-processed relearn on another replica
/// would fork the fleet's store state.
///
/// Forward/ForwardBatch are ServerLoop-shaped (index-addressed responses)
/// so a router process is just NetServer → ServerLoop → this class — the
/// whole batching, ordering, and drain machinery is reused as-is.
class Router {
 public:
  /// `shards[i]` lists the replica endpoints of shard i (at least one
  /// shard with one replica).
  Router(std::vector<std::vector<Endpoint>> shards, RouterOptions options);

  using Request = serve::ExtractionService::Request;
  using Response = serve::ExtractionService::Response;

  /// Routes and forwards one request; always returns a response (a typed
  /// kShed with the failure in `error` when no replica could serve it).
  Response Forward(const Request& request);

  /// Index-addressed batch fan-out over ParallelMap; the ServerLoop
  /// BatchFn. Requests the deadline overtakes degrade to kDeadline.
  std::vector<Response> ForwardBatch(const std::vector<Request>& requests,
                                     const Deadline& deadline);

  /// Breaker state of one endpoint (tests and the --metrics dump).
  struct EndpointHealth {
    int consecutive_failures = 0;
    bool ejected = false;
  };
  std::map<std::string, EndpointHealth> HealthSnapshot() const;

  size_t ShardFor(const std::string& site) const {
    return ring_.ShardFor(site);
  }

 private:
  struct Health {
    int consecutive_failures = 0;
    bool ejected = false;
    double ejected_at_ms = 0.0;
  };

  /// Candidate replica order for one forward to `shard`: rotation-offset
  /// healthy endpoints first (plus ejected ones due a half-open probe);
  /// every replica when that set is empty.
  std::vector<size_t> Candidates(size_t shard);

  void RecordSuccess(const Endpoint& endpoint);
  void RecordFailure(const Endpoint& endpoint);

  HashRing ring_;
  std::vector<std::vector<Endpoint>> shards_;
  RouterOptions options_;
  const Clock* clock_;
  net::HttpClient client_;

  mutable std::mutex mu_;
  std::map<std::string, Health> health_;       ///< by Endpoint::Key()
  std::vector<uint64_t> next_replica_;         ///< per-shard rotation
};

}  // namespace thor::fleet

#endif  // THOR_FLEET_ROUTER_H_
