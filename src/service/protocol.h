// Line-oriented JSON wire protocol of the query service (DESIGN.md §10).
//
// One request object per line in, one response object per line out, over
// either a TCP connection or the stdin/stdout batch mode — the framing is
// identical. Grammar (all fields but `op` optional):
//
//   request  := { "op": "query" | "ping" | "stats" | "metrics"
//                        | "slowlog" | "instances" | "mutate" | "version"
//                        | "load" | "shutdown",
//                 "id": number,            // echoed verbatim in the reply
//                 "instance": string,      // query/mutate/version/load
//                 "qnum": 1 | 2 | 3,       // query: paper query number
//                 "deadline_ms": number,   // query: wall budget, 0 =>
//                                          //   degrade immediately
//                 "mc_worlds": number,     // query: degraded sample size
//                 "seed": number,          // query: degraded sample seed,
//                                          //   an integer in [0, 2^53]
//                 "action": "append" | "retract" | "edit" | "fix",
//                                          // mutate: which mutation
//                 "relation": string,      // append/retract: target
//                 "row": string,           // append/retract: comma cells
//                 "maybe": bool,           // append: allocate a fresh var
//                 "cindex": number,        // edit: constraint index
//                 "cop": "le"|"ge"|"eq",   // edit: new comparison
//                 "rhs": number,           // edit: new right-hand side
//                 "var": number,           // fix: variable to pin
//                 "value": 0 | 1,          // fix: pinned value
//                 "spec": string,          // load: instance spec string
//                 "replace": bool }        // load: swap an existing name
//   response := { "id": ..., "ok": bool, ... }  // see the renderers
//
// `mutate` commits one versioned mutation (DESIGN.md §13): `append`
// inserts one row (maybe=true allocates a fresh variable, returned in
// new_vars), `retract` removes the first row matching `row`, `edit`
// rewrites constraint `cindex`'s comparison in place (editing a fix
// constraint to "ge 0" releases it — always true over binaries), and
// `fix` pins variable `var` to `value` by appending the constraint
// 1*b_var = value, echoing the constraint index for a later release.
//
// Every malformed line yields exactly one {"ok":false,...} response with
// the typed status name — the connection survives, so a client bug never
// wedges the stream.
#ifndef LICM_SERVICE_PROTOCOL_H_
#define LICM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/query_service.h"

namespace licm::service {

struct WireRequest {
  /// Client-chosen correlation id, echoed in the response; -1 = absent.
  int64_t id = -1;
  std::string op;
  std::string instance;
  int qnum = 1;
  /// Negative = service default; 0 = already expired (degrade path).
  double deadline_ms = -1.0;
  int mc_worlds = 0;
  uint64_t seed = 0;
  /// mutate: "append" | "retract" | "edit" | "fix".
  std::string action;
  std::string relation;
  /// Comma-separated cells, parsed against the relation's schema.
  std::string row;
  bool maybe = false;
  int64_t cindex = -1;
  /// "le" | "ge" | "eq"; empty = absent.
  std::string cop;
  int64_t rhs = 0;
  int64_t var = -1;
  int64_t value = 0;
  /// load: instance spec (same grammar as licm_serve --instance).
  std::string spec;
  bool replace = false;
};

/// Parses one request line. Unknown fields are ignored (forward
/// compatibility); wrongly typed known fields are errors.
Result<WireRequest> ParseRequestLine(const std::string& line);

/// Narrows a decoded 64-bit request field to one of WireRequest's int
/// fields, rejecting a value outside [min, INT_MAX] with InvalidArgument
/// instead of wrapping it. Both codecs (this one and net/wire.h's binary
/// one) decode `qnum` and `mc_worlds` through it, so they accept and
/// reject the same values.
Result<int> NarrowIntField(const char* name, int64_t value, int64_t min);

/// Largest request `seed` either codec accepts: 2^53, the top of the range
/// in which a JSON number (a double) holds every integer exactly, so each
/// accepted seed has exactly one value in both codecs.
inline constexpr uint64_t kMaxWireSeed = uint64_t{1} << 53;

/// Narrows a decoded `seed` to [0, kMaxWireSeed], rejecting any other
/// value with InvalidArgument instead of wrapping it. The JSON parser
/// passes the signed integer it decoded, the binary decoder its unsigned
/// varint; both get the same range and the same message.
Result<uint64_t> NarrowSeedField(int64_t value);
Result<uint64_t> NarrowSeedField(uint64_t value);

/// Response renderers. Each returns one JSON object without the trailing
/// newline; the transport appends it.
std::string RenderError(int64_t id, const Status& status);
std::string RenderQueryResponse(int64_t id, const QueryResponse& response);
std::string RenderStats(int64_t id, const ServiceStats& stats);
/// Full metrics-registry dump: {"id":...,"ok":true,"metrics":{...}} with
/// the registry's counters/gauges/histograms JSON (p50/p90/p99/p999 per
/// histogram). Supersedes `stats` for pollers that want distributions.
std::string RenderMetrics(int64_t id);
/// Slow-query ring, newest first (see ServiceConfig::slo_ms).
std::string RenderSlowLog(int64_t id,
                          const std::vector<SlowQueryRecord>& records);
std::string RenderPong(int64_t id);
std::string RenderInstances(int64_t id,
                            const std::vector<std::string>& names);
/// One committed mutation: version, dirty-set sizes, fresh variables and
/// (for constraint mutations) the slot the constraint landed at.
std::string RenderMutateResponse(int64_t id, const MutationResult& result);
/// {"id":...,"ok":true,"instance":...,"version":N}
std::string RenderVersion(int64_t id, const std::string& instance,
                          uint64_t version);
/// Ack for `load`: the published version (1 for a fresh name, the bumped
/// counter when replace=true swapped a live instance).
std::string RenderLoadAck(int64_t id, const std::string& instance,
                          uint64_t version, bool replaced);
std::string RenderShutdownAck(int64_t id);

}  // namespace licm::service

#endif  // LICM_SERVICE_PROTOCOL_H_
