#ifndef THOR_DEEPWEB_HTTP_TRANSPORT_H_
#define THOR_DEEPWEB_HTTP_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "src/deepweb/transport.h"
#include "src/net/http_client.h"
#include "src/util/clock.h"

namespace thor::deepweb {

/// \brief SiteTransport that issues probe queries over real loopback HTTP.
///
/// The socket-backed realization of the transport seam: Fetch(keyword)
/// becomes `GET /site<K>/search?q=<keyword>` through a pooled HttpClient
/// (keep-alive reuse, per-host in-flight caps), and the
/// response — served by net::SimSiteServer in tests — is reassembled into
/// the same QueryResponse DirectTransport returns, bit for bit. Error
/// mapping onto the transport taxonomy the resilient prober retries on:
///
///   deadline expiry                → kTimeout
///   connect refused / reset / EOF  → kConnectionReset
///   HTTP 5xx                       → kServerError
///   HTTP 429                       → kRateLimited (Retry-After honored)
///   other HTTP 4xx                 → kPermanent
///   short Content-Length body      → truncated_body (a body property,
///                                    not a connection error)
///
/// Retries stay the prober's job; this class reports one attempt's truth.
/// Thread-safe for concurrent Fetch calls (the pool caps in-flight
/// requests per host).
class HttpTransport : public SiteTransport {
 public:
  /// Probes site `site_id` at `host`:`port` through `client` (borrowed;
  /// share one client across transports to share its pool).
  HttpTransport(net::HttpClient* client, std::string host, uint16_t port,
                int site_id, const Clock* clock = nullptr);

  FetchResult Fetch(std::string_view keyword) override;

 private:
  net::HttpClient* client_;
  std::string host_;
  uint16_t port_;
  int site_id_;
  const Clock* clock_;
};

}  // namespace thor::deepweb

#endif  // THOR_DEEPWEB_HTTP_TRANSPORT_H_
