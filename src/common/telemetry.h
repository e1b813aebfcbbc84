// Process-wide tracing & metrics: spans, instant events, and counters
// recorded into lock-free per-thread buffers, exported as Chrome
// trace-event JSON (trace_export.h) and per-phase wall-time summaries.
//
// Overhead contract: every macro/inline record site compiles down to one
// relaxed atomic load when no trace session is active — no allocation, no
// lock, no clock read. With a session active, the recording thread appends
// to its own chunked buffer without taking any lock (the only
// synchronization is a release store of the buffer's event count, matched
// by an acquire load in the exporter), so tracing perturbs parallel solver
// runs as little as possible and stays ThreadSanitizer-clean.
//
// Usage:
//   telemetry::StartTracing();
//   { LICM_TRACE_SPAN("solver", "decompose"); ... }      // RAII span
//   telemetry::Instant("scheduler", "steal", {{"from", 2.0}});
//   telemetry::WriteChromeTrace("trace.json");            // trace_export.h
//
// `name` / `category` arguments must be string literals (or otherwise
// outlive the session): events store the pointers, not copies.
//
// Concurrency contract: recording is safe from any number of threads at
// any time. StartTracing() must not run concurrently with recording
// threads or with Snapshot() (start sessions from quiescent points, e.g.
// before solver calls); Snapshot()/export may run while recording threads
// are merely idle-but-alive.
#ifndef LICM_COMMON_TELEMETRY_H_
#define LICM_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace licm::telemetry {

/// Named numeric payload of an event. A null key marks an unused slot.
struct Arg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr int kMaxArgs = 6;

/// One trace event. `phase` follows the Chrome trace-event convention:
/// 'X' complete span (ts + dur), 'i' instant, 'C' counter.
struct Event {
  const char* name = nullptr;      // static-lifetime string
  const char* category = nullptr;  // static-lifetime string
  char phase = 'X';
  uint32_t tid = 0;    // registration-order thread id, stable per thread
  int64_t ts_ns = 0;   // steady-clock ns since the process trace anchor
  int64_t dur_ns = 0;  // 'X' spans only
  Arg args[kMaxArgs] = {};
};

namespace detail {
extern std::atomic<bool> g_enabled;
int64_t NowNs();
void Record(const Event& e);  // appends to this thread's buffer
}  // namespace detail

/// True while a trace session is recording. Single relaxed atomic load:
/// this is the only cost every instrumentation site pays when tracing is
/// off.
inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Steady-clock nanoseconds since the process trace anchor — the timebase
/// of Event::ts_ns. Monotone across sessions; usable as a mark for
/// "events since" queries even while tracing is off.
int64_t NowNs();

/// Starts (or restarts) the process-wide trace session. A restart
/// logically clears previously recorded events.
void StartTracing();

/// Stops recording. Events recorded so far stay readable via Snapshot()
/// and the exporters until the next StartTracing().
void StopTracing();

/// All events of the current session, merged across threads and sorted by
/// (ts_ns, dur_ns descending) so enclosing spans precede their children.
std::vector<Event> Snapshot();

/// Events dropped because a thread exhausted its buffer capacity.
int64_t DroppedEvents();

/// Nanoseconds-since-anchor of the current session's start (0 when no
/// session was ever started). Exporters subtract this so traces start
/// near t=0.
int64_t SessionStartNs();

/// Records an instant event ('i').
inline void Instant(const char* category, const char* name,
                    std::initializer_list<Arg> args = {}) {
  if (!Enabled()) return;
  Event e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.ts_ns = detail::NowNs();
  int i = 0;
  for (const Arg& a : args) {
    if (i >= kMaxArgs) break;
    e.args[i++] = a;
  }
  detail::Record(e);
}

/// Records a counter sample ('C'); rendered as a track in Perfetto.
inline void Counter(const char* category, const char* name, double value) {
  if (!Enabled()) return;
  Event e;
  e.name = name;
  e.category = category;
  e.phase = 'C';
  e.ts_ns = detail::NowNs();
  e.args[0] = {name, value};
  detail::Record(e);
}

/// RAII span: measures construction-to-End() (or destruction) as one
/// complete 'X' event. Inert (one relaxed load, nothing else) when
/// tracing is off at construction time.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) {
    if (!Enabled()) return;
    active_ = true;
    event_.name = name;
    event_.category = category;
    event_.ts_ns = detail::NowNs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a named value to the span (up to kMaxArgs; extras ignored).
  void AddArg(const char* key, double value) {
    if (!active_) return;
    for (Arg& slot : event_.args) {
      if (slot.key == nullptr) {
        slot = {key, value};
        return;
      }
    }
  }

  /// Ends the span early; idempotent.
  void End() {
    if (!active_) return;
    active_ = false;
    event_.dur_ns = detail::NowNs() - event_.ts_ns;
    detail::Record(event_);
  }

 private:
  bool active_ = false;
  Event event_;
};

}  // namespace licm::telemetry

#define LICM_TELEMETRY_CONCAT_INNER(a, b) a##b
#define LICM_TELEMETRY_CONCAT(a, b) LICM_TELEMETRY_CONCAT_INNER(a, b)

/// Declares an RAII span covering the rest of the enclosing scope.
#define LICM_TRACE_SPAN(category, name)                                   \
  ::licm::telemetry::ScopedSpan LICM_TELEMETRY_CONCAT(licm_trace_span_,   \
                                                      __LINE__)(category, \
                                                                name)

#endif  // LICM_COMMON_TELEMETRY_H_
