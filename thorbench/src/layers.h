#ifndef THORBENCH_SRC_LAYERS_H_
#define THORBENCH_SRC_LAYERS_H_

// The per-layer probes every traced run takes on its own workload's pages
// and templates: direct HotParser / HotExtractor calls, the service at one
// and at nproc threads, store loads, and the learn-path stage times.

#include "thorbench/src/bench.h"
#include "thorbench/src/inputs.h"

namespace thorbench {

/// Appends the html.*, core.hot_*, serve.* and store probes to
/// `out->layers`. `set` needs requests, request_site, names and compiled
/// templates; `store` must hold every site in `set.names`.
void MeasureServingLayers(const ServeSet& set,
                          thor::serve::TemplateStore* store, int nproc,
                          SpanLog* log, Result* out);

/// Appends the learn-path stage metrics (deepweb.*, core.thor_*,
/// core.registry_learn, core.compile, serve.store_put/bytes).
void AddLearnLayers(const StageTimes& times, Result* out);

/// Appends the hit/miss/low-confidence counts of a measured run.
void AddServeCounts(const ServeCounts& counts, Result* out);

/// The network path on `set`'s stream: `thord --listen` on loopback with
/// its defaults, driven open loop at serve_net's reference rate for
/// `seconds`/10 (at least 1 s). Appends the server_loop.* and net.*
/// figures to `out->extra` and, with `log`, a span tree per request.
/// Defined beside serve_net, whose network probe it shares.
void MeasureNetLayers(thor::serve::TemplateStore* store, const ServeSet& set,
                      double seconds, SpanLog* log, Result* out);

/// The background-relearn path: serve_drift's fixture and stream
/// variants, each served once at one thread as its reference and once at
/// nproc threads with `log`. Appends the relearn.* figures to
/// `out->extra`; a reference mismatch fails `out`. Defined beside
/// serve_drift, whose passes it runs.
void MeasureRelearnLayers(const Options& options, SpanLog* log, Result* out);

}  // namespace thorbench

#endif  // THORBENCH_SRC_LAYERS_H_
