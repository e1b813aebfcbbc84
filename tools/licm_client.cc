// Load driver for licm_serve (DESIGN.md §10, §14).
//
//   licm_client --port P [--host H] [--connections C] [--requests N]
//               [--binary] [--rate R --duration-s T [--max-outstanding W]]
//               [--instance SPEC]... [--qnums 1,2,3] [--deadline-ms D]
//               [--degraded-every K] [--burst B] [--verify]
//               [--json BENCH_service.json] [--json-append]
//               [--shutdown] [--version]
//   licm_client --port P --raw LINE [--raw LINE]...
//
// --raw sends the given request lines verbatim over one connection and
// prints each response line to stdout — the scriptable path to the
// `mutate` / `version` / `load` verbs (exit 1 if any response has
// ok:false). No load phase, no JSON report.
//
// --binary speaks the length-prefixed binary protocol of net/wire.h
// instead of line-JSON (the server auto-detects per connection).
//
// Closed loop (default): C concurrent connections each issue N query
// requests round-robin over the instance x qnum mix, measuring
// per-request latency. Open loop (--rate R): requests arrive by a
// Poisson process at R req/s for --duration-s seconds, fanned over the C
// connections with at most --max-outstanding requests in flight (excess
// arrivals are shed client-side and counted); latency is measured from
// the *intended* arrival time, so queueing delay the server causes under
// saturation is in the tail, not hidden by coordinated omission.
// Phase 2 (optional, --burst B): B one-shot connections fire
// simultaneously to provoke admission control; kOverloaded responses are
// expected there and are not protocol errors. A final `stats` request
// snapshots the server counters. Throughput (answered requests per
// second of the load phase; typed rejections are counted apart) and
// p50/p95/p99 latency go to --json in the standard BENCH format
// (--json-append accumulates rows across runs; the codec and load shape
// form the row's identity columns, so bench_diff compares like with
// like).
//
// --verify rebuilds every instance from the same specs the server got
// and computes offline exact bounds per (instance, qnum); every
// non-degraded response must match them bit-identically and every
// degraded response's interval must contain them. Exit code 1 on any
// protocol error or verification failure.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/version.h"
#include "harness.h"
#include "licm/evaluator.h"
#include "net/wire.h"
#include "service/json.h"
#include "service_workload.h"

namespace {

using namespace licm;

class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void set_binary(bool binary) { binary_ = binary; }

  Status Connect(const std::string& host, int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad host '" + host + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Status::OK();
  }

  /// Unblocks any thread inside recv() (open-loop drain teardown).
  void ShutdownSocket() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  Status SendBytes(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t w = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        return Status::IOError(std::string("send: ") + std::strerror(errno));
      }
      sent += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status SendLine(const std::string& line) { return SendBytes(line + "\n"); }

  /// Sends one query-protocol request in the connection's codec.
  Status SendRequest(const service::WireRequest& req) {
    if (binary_) return SendBytes(net::EncodeRequestFrame(req));
    return SendLine(RenderRequestLine(req));
  }

  Result<std::string> RecvLine() {
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      LICM_RETURN_NOT_OK(Fill());
    }
  }

  /// One response document in the connection's codec — always the
  /// line-JSON text (the binary framing carries it verbatim).
  Result<std::string> RecvResponse() {
    if (!binary_) return RecvLine();
    while (true) {
      size_t consumed = 0;
      net::Frame frame;
      LICM_ASSIGN_OR_RETURN(bool complete,
                            net::TryDecodeFrame(buffer_, &consumed, &frame));
      if (complete) {
        buffer_.erase(0, consumed);
        if (frame.type != net::kFrameResponse) {
          return Status::InvalidArgument("unexpected frame type from server");
        }
        return std::move(frame.payload);
      }
      LICM_RETURN_NOT_OK(Fill());
    }
  }

  Result<service::JsonValue> RoundTrip(const std::string& request) {
    LICM_RETURN_NOT_OK(SendLine(request));
    LICM_ASSIGN_OR_RETURN(std::string line, RecvLine());
    return service::ParseJson(line);
  }

  Result<service::JsonValue> RoundTripRequest(
      const service::WireRequest& req) {
    LICM_RETURN_NOT_OK(SendRequest(req));
    LICM_ASSIGN_OR_RETURN(std::string response, RecvResponse());
    return service::ParseJson(response);
  }

  /// Client-side rendering of a query request as a protocol line.
  static std::string RenderRequestLine(const service::WireRequest& req) {
    std::string line = "{\"op\":\"" + req.op +
                       "\",\"id\":" + std::to_string(req.id);
    if (!req.instance.empty()) line += ",\"instance\":\"" + req.instance + "\"";
    if (req.op == "query") {
      line += ",\"qnum\":" + std::to_string(req.qnum);
      if (req.deadline_ms >= 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", req.deadline_ms);
        line += std::string(",\"deadline_ms\":") + buf;
      }
    }
    return line + "}";
  }

 private:
  Status Fill() {
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("connection closed mid-response");
      buffer_.append(chunk, static_cast<size_t>(n));
      return Status::OK();
    }
  }

  int fd_ = -1;
  bool binary_ = false;
  std::string buffer_;
};

struct Expected {
  double min = 0, max = 0;
};

struct Tally {
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t overloaded = 0;
  int64_t protocol_errors = 0;
  int64_t verify_failures = 0;
};

std::atomic<int64_t> g_next_id{1};

service::WireRequest MakeQuery(const std::string& instance, int qnum,
                               double deadline_ms) {
  service::WireRequest req;
  req.op = "query";
  req.id = g_next_id.fetch_add(1);
  req.instance = instance;
  req.qnum = qnum;
  req.deadline_ms = deadline_ms;
  return req;
}

// Classifies one query response into the tally, verifying against the
// offline bounds when available. Returns false only on protocol errors
// or verification failures (kOverloaded is an expected outcome).
bool Classify(const Result<service::JsonValue>& reply, const Expected* want,
              Tally* tally) {
  if (!reply.ok()) {
    ++tally->protocol_errors;
    std::fprintf(stderr, "protocol error: %s\n",
                 reply.status().ToString().c_str());
    return false;
  }
  auto ok = reply->GetBool("ok", false);
  if (!ok.ok()) {
    ++tally->protocol_errors;
    return false;
  }
  if (!*ok) {
    auto code = reply->GetString("status", "");
    if (code.ok() && *code == "Overloaded") {
      ++tally->overloaded;
      return true;
    }
    ++tally->protocol_errors;
    std::fprintf(stderr, "request failed: %s\n",
                 code.ok() ? code->c_str() : "?");
    return false;
  }
  auto degraded = reply->GetBool("degraded", false);
  auto min = reply->GetNumber("min", 0);
  auto max = reply->GetNumber("max", 0);
  if (!degraded.ok() || !min.ok() || !max.ok()) {
    ++tally->protocol_errors;
    return false;
  }
  ++tally->ok;
  if (*degraded) ++tally->degraded;
  if (want == nullptr) return true;
  if (*degraded) {
    // Containment: the degraded interval must cover the exact bounds.
    if (*min > want->min || *max < want->max) {
      ++tally->verify_failures;
      std::fprintf(stderr,
                   "VERIFY: degraded interval [%g, %g] does not contain "
                   "exact [%g, %g]\n",
                   *min, *max, want->min, want->max);
      return false;
    }
  } else if (*min != want->min || *max != want->max) {
    ++tally->verify_failures;
    std::fprintf(stderr,
                 "VERIFY: exact response [%g, %g] != offline [%g, %g]\n",
                 *min, *max, want->min, want->max);
    return false;
  }
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [--host H] [--connections C] [--requests N]\n"
      "          [--binary] [--rate R --duration-s T [--max-outstanding W]]\n"
      "          [--instance SPEC]... [--qnums 1,2] [--deadline-ms D]\n"
      "          [--degraded-every K] [--burst B] [--verify]\n"
      "          [--json FILE] [--json-append] [--shutdown] [--version]\n"
      "       %s --port P --raw LINE [--raw LINE]...\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 4;
  int requests = 8;
  bool binary = false;
  double rate = 0.0;       // > 0 selects the open-loop mode
  double duration_s = 5.0;
  int max_outstanding = 256;
  std::vector<std::string> instance_args;
  std::vector<int> qnums;
  double deadline_ms = -1.0;
  int degraded_every = 0;
  int burst = 0;
  bool verify = false;
  bool send_shutdown = false;
  std::string json_path = "BENCH_service.json";
  bool json_append = false;
  std::vector<std::string> raw_lines;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--version") {
      std::printf("%s\n", VersionString("licm_client").c_str());
      return 0;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--binary") {
      binary = true;
    } else if (arg == "--shutdown") {
      send_shutdown = true;
    } else if (arg == "--json-append") {
      json_append = true;
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--connections") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      connections = std::atoi(v);
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      requests = std::atoi(v);
    } else if (arg == "--rate") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      rate = std::atof(v);
    } else if (arg == "--duration-s") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      duration_s = std::atof(v);
    } else if (arg == "--max-outstanding") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      max_outstanding = std::atoi(v);
    } else if (arg == "--instance") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      instance_args.push_back(v);
    } else if (arg == "--qnums") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      for (const char* p = v; *p != '\0'; ++p) {
        if (*p >= '1' && *p <= '9') qnums.push_back(*p - '0');
      }
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      deadline_ms = std::atof(v);
    } else if (arg == "--degraded-every") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      degraded_every = std::atoi(v);
    } else if (arg == "--burst") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      burst = std::atoi(v);
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      json_path = v;
    } else if (arg == "--raw") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      raw_lines.push_back(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (port <= 0) return Usage(argv[0]);

  if (!raw_lines.empty()) {
    Conn conn;
    Status connected = conn.Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.ToString().c_str());
      return 1;
    }
    bool all_ok = true;
    for (const std::string& line : raw_lines) {
      Status sent = conn.SendLine(line);
      if (!sent.ok()) {
        std::fprintf(stderr, "%s\n", sent.ToString().c_str());
        return 1;
      }
      auto response = conn.RecvLine();
      if (!response.ok()) {
        std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
        return 1;
      }
      std::printf("%s\n", response->c_str());
      auto parsed = service::ParseJson(*response);
      if (!parsed.ok()) {
        all_ok = false;
      } else {
        auto ok = parsed->GetBool("ok", false);
        if (!ok.ok() || !*ok) all_ok = false;
      }
    }
    return all_ok ? 0 : 1;
  }

  if (instance_args.empty()) instance_args.push_back("demo=kanon:4");
  if (qnums.empty()) qnums = {1, 2};
  if (connections < 1) connections = 1;
  if (requests < 1) requests = 1;
  if (max_outstanding < 1) max_outstanding = 1;

  std::vector<tools::InstanceSpec> specs;
  for (const std::string& text : instance_args) {
    auto spec = tools::ParseInstanceSpec(text);
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --instance: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    specs.push_back(*spec);
  }

  // Offline oracle: exact bounds per (instance, qnum), computed from the
  // same spec strings the server was started with.
  std::map<std::pair<std::string, int>, Expected> expected;
  if (verify) {
    for (const auto& spec : specs) {
      auto enc = tools::BuildInstance(spec);
      if (!enc.ok()) {
        std::fprintf(stderr, "offline build of '%s' failed: %s\n",
                     spec.name.c_str(), enc.status().ToString().c_str());
        return 1;
      }
      for (int qnum : qnums) {
        auto query = tools::BuildServiceQuery(spec, qnum);
        if (!query.ok()) return 1;
        auto ans = AnswerAggregate(**query, enc->db, {});
        if (!ans.ok()) {
          std::fprintf(stderr, "offline solve of %s q%d failed: %s\n",
                       spec.name.c_str(), qnum,
                       ans.status().ToString().c_str());
          return 1;
        }
        if (!ans->bounds.min.exact || !ans->bounds.max.exact) {
          std::fprintf(stderr,
                       "offline solve of %s q%d not exact; refusing to "
                       "verify against it\n",
                       spec.name.c_str(), qnum);
          return 1;
        }
        expected[{spec.name, qnum}] = {ans->bounds.min.value,
                                       ans->bounds.max.value};
      }
    }
    std::fprintf(stderr, "offline oracle ready (%zu cells)\n",
                 expected.size());
  }

  auto oracle_for = [&](const std::string& instance,
                        int qnum) -> const Expected* {
    if (!verify) return nullptr;
    auto it = expected.find({instance, qnum});
    return it == expected.end() ? nullptr : &it->second;
  };

  // Latencies go straight into a shared lock-free histogram; worker
  // threads never contend on the tally mutex per request.
  static licm::metrics::Histogram latency_hist;
  std::mutex tally_mu;
  Tally tally;
  auto merge_tally = [&](const Tally& local) {
    std::lock_guard<std::mutex> lock(tally_mu);
    tally.ok += local.ok;
    tally.degraded += local.degraded;
    tally.overloaded += local.overloaded;
    tally.protocol_errors += local.protocol_errors;
    tally.verify_failures += local.verify_failures;
  };

  double load_s = 0.0;
  int64_t shed = 0;

  if (rate > 0.0) {
    // ----------------------------------------------------------------
    // Open loop: Poisson arrivals at `rate` req/s over C connections,
    // at most `max_outstanding` in flight. One sender thread paces the
    // schedule; one receiver thread per connection correlates responses
    // by id against the intended arrival time.
    // ----------------------------------------------------------------
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < connections; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->set_binary(binary);
      Status connected = conn->Connect(host, port);
      if (!connected.ok()) {
        std::fprintf(stderr, "conn %d: %s\n", c,
                     connected.ToString().c_str());
        return 1;
      }
      conns.push_back(std::move(conn));
    }

    struct PendingReq {
      const Expected* want = nullptr;
      double intended_ms = 0.0;
    };
    std::mutex pending_mu;
    std::unordered_map<int64_t, PendingReq> pending;
    std::atomic<int64_t> outstanding{0};
    std::atomic<int64_t> local_shed{0};
    std::atomic<bool> draining{false};
    StopWatch clock;

    std::vector<std::thread> receivers;
    receivers.reserve(conns.size());
    for (auto& conn_ptr : conns) {
      receivers.emplace_back([&, conn = conn_ptr.get()] {
        Tally local;
        while (true) {
          auto response = conn->RecvResponse();
          if (!response.ok()) {
            // Socket torn down by the drain path — expected; anything
            // else already failed the pending-map accounting below.
            break;
          }
          auto parsed = service::ParseJson(*response);
          PendingReq info;
          bool known = false;
          if (parsed.ok()) {
            auto id = parsed->GetInt("id", -1);
            if (id.ok()) {
              std::lock_guard<std::mutex> lock(pending_mu);
              auto it = pending.find(*id);
              if (it != pending.end()) {
                info = it->second;
                pending.erase(it);
                known = true;
              }
            }
          }
          if (known) {
            latency_hist.Observe(clock.ElapsedMs() - info.intended_ms);
            outstanding.fetch_sub(1);
          }
          Classify(parsed, known ? info.want : nullptr, &local);
        }
        merge_tally(local);
      });
    }

    Tally sender_tally;
    {
      Rng rng(0x0b5e12a7);  // fixed seed: reproducible schedules
      const double duration_ms = duration_s * 1e3;
      double next_ms = 0.0;
      size_t rr = 0;
      int64_t seq = 0;
      while (next_ms <= duration_ms) {
        const double now = clock.ElapsedMs();
        if (next_ms > now) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(next_ms - now));
        }
        if (outstanding.load(std::memory_order_relaxed) >= max_outstanding) {
          // Bounded window: this arrival is shed, the schedule advances.
          local_shed.fetch_add(1);
        } else {
          const auto& spec = specs[static_cast<size_t>(seq) % specs.size()];
          const int qnum = qnums[static_cast<size_t>(seq) % qnums.size()];
          const bool degrade =
              degraded_every > 0 && (seq + 1) % degraded_every == 0;
          service::WireRequest req =
              MakeQuery(spec.name, qnum, degrade ? 0.0 : deadline_ms);
          {
            std::lock_guard<std::mutex> lock(pending_mu);
            pending[req.id] = {oracle_for(spec.name, qnum), next_ms};
          }
          outstanding.fetch_add(1);
          Status sent = conns[rr % conns.size()]->SendRequest(req);
          ++rr;
          if (!sent.ok()) {
            {
              std::lock_guard<std::mutex> lock(pending_mu);
              pending.erase(req.id);
            }
            outstanding.fetch_sub(1);
            ++sender_tally.protocol_errors;
          }
          ++seq;
        }
        // Exponential inter-arrival gap: a Poisson arrival process.
        const double u =
            static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
        next_ms += -std::log1p(-u) * (1e3 / rate);
      }
    }

    // Drain: give in-flight requests a grace period, then tear down the
    // sockets to unblock the receivers.
    StopWatch drain;
    while (outstanding.load() > 0 && drain.ElapsedMs() < 30e3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    load_s = clock.ElapsedMs() / 1e3;
    const int64_t leftover = outstanding.load();
    if (leftover > 0) {
      std::fprintf(stderr, "drain timeout: %lld responses never arrived\n",
                   static_cast<long long>(leftover));
      sender_tally.protocol_errors += leftover;
    }
    draining.store(true);
    for (auto& conn : conns) conn->ShutdownSocket();
    for (std::thread& t : receivers) t.join();
    merge_tally(sender_tally);
    shed = local_shed.load();
  } else {
    // ----------------------------------------------------------------
    // Closed loop: C connections, N sequential round trips each.
    // ----------------------------------------------------------------
    StopWatch load_watch;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        Tally local;
        Conn conn;
        conn.set_binary(binary);
        Status connected = conn.Connect(host, port);
        if (!connected.ok()) {
          std::fprintf(stderr, "conn %d: %s\n", c,
                       connected.ToString().c_str());
          local.protocol_errors += requests;
        } else {
          for (int r = 0; r < requests; ++r) {
            const auto& spec =
                specs[static_cast<size_t>(c + r) % specs.size()];
            const int qnum = qnums[static_cast<size_t>(r) % qnums.size()];
            const bool degrade =
                degraded_every > 0 && (r + 1) % degraded_every == 0;
            StopWatch watch;
            auto reply = conn.RoundTripRequest(
                MakeQuery(spec.name, qnum, degrade ? 0.0 : deadline_ms));
            latency_hist.Observe(watch.ElapsedMs());
            Classify(reply, oracle_for(spec.name, qnum), &local);
          }
        }
        merge_tally(local);
      });
    }
    for (std::thread& t : threads) t.join();
    load_s = load_watch.ElapsedMs() / 1e3;
  }

  // Load-phase outcomes, before the burst adds its own: throughput counts
  // answered requests only, and typed rejections are reported apart.
  const int64_t answered = tally.ok;
  const int64_t rejected = tally.overloaded;

  // Phase 2: simultaneous burst to provoke admission control.
  if (burst > 0) {
    std::vector<std::thread> burst_threads;
    burst_threads.reserve(static_cast<size_t>(burst));
    for (int b = 0; b < burst; ++b) {
      burst_threads.emplace_back([&, b] {
        Tally local;
        Conn conn;
        conn.set_binary(binary);
        if (!conn.Connect(host, port).ok()) {
          ++local.protocol_errors;
        } else {
          const auto& spec = specs[static_cast<size_t>(b) % specs.size()];
          // Nudge each deadline so no two burst requests are identical:
          // the point of the burst is to overflow the admission queue,
          // and identical in-flight requests would coalesce into one
          // solve instead of sixteen.
          auto reply = conn.RoundTripRequest(
              MakeQuery(spec.name, qnums[0], deadline_ms + b + 1));
          Classify(reply, nullptr, &local);
        }
        merge_tally(local);
      });
    }
    for (std::thread& t : burst_threads) t.join();
  }

  // Final control connection: server-side counters, optional shutdown.
  int64_t server_rejected = -1;
  {
    Conn conn;
    if (conn.Connect(host, port).ok()) {
      auto stats = conn.RoundTrip("{\"op\":\"stats\",\"id\":0}");
      if (stats.ok()) {
        auto rejected = stats->GetInt("rejected_overload", -1);
        if (rejected.ok()) server_rejected = *rejected;
      }
      if (send_shutdown) {
        (void)conn.RoundTrip("{\"op\":\"shutdown\",\"id\":0}");
      }
    }
  }

  // Quantiles from the shared log-bucketed histogram (common/metrics.h)
  // — one implementation for client- and server-side latency summaries.
  const licm::metrics::HistogramSnapshot lat = latency_hist.Snapshot();
  const int64_t responses = lat.count;
  const double p50 = lat.Quantile(0.50);
  const double p95 = lat.Quantile(0.95);
  const double p99 = lat.Quantile(0.99);
  auto per_s = [load_s](int64_t n) {
    return load_s > 0 ? static_cast<double>(n) / load_s : 0.0;
  };
  const double rps = per_s(answered);

  std::printf(
      "requests=%lld ok=%lld degraded=%lld overloaded=%lld errors=%lld "
      "verify_failures=%lld shed=%lld\n",
      static_cast<long long>(responses + burst),
      static_cast<long long>(tally.ok),
      static_cast<long long>(tally.degraded),
      static_cast<long long>(tally.overloaded),
      static_cast<long long>(tally.protocol_errors),
      static_cast<long long>(tally.verify_failures),
      static_cast<long long>(shed));
  std::printf(
      "throughput=%.1f answered/s (%lld answered, %lld rejected) "
      "p50=%.2fms p95=%.2fms p99=%.2fms\n",
      rps, static_cast<long long>(answered), static_cast<long long>(rejected),
      p50, p95, p99);
  if (server_rejected >= 0) {
    std::printf("server rejected_overload=%lld\n",
                static_cast<long long>(server_rejected));
  }

  bench::JsonRecord rec;
  rec.AddString("bench", "service")
      .AddString("codec", binary ? "binary" : "json")
      .AddString("mode", rate > 0 ? "open" : "closed")
      .AddInt("connections", connections)
      .AddInt("requests_per_connection", rate > 0 ? 0 : requests)
      .AddInt("burst", burst)
      .AddInt("max_outstanding", rate > 0 ? max_outstanding : 0)
      .AddNumber("offered_rps", rate)
      .AddNumber("duration_s", rate > 0 ? duration_s : 0.0)
      .AddInt("ok", tally.ok)
      .AddInt("degraded", tally.degraded)
      .AddInt("overloaded", tally.overloaded)
      .AddInt("shed", shed)
      .AddInt("protocol_errors", tally.protocol_errors)
      .AddInt("verify_failures", tally.verify_failures)
      .AddInt("server_rejected_overload", server_rejected)
      .AddBool("verified", verify)
      .AddInt("answered", answered)
      .AddInt("rejected", rejected)
      .AddNumber("throughput_rps", rps)
      .AddNumber("achieved_rps", per_s(responses))
      .AddNumber("p50_ms", p50)
      .AddNumber("p95_ms", p95)
      .AddNumber("p99_ms", p99)
      .AddNumber("load_seconds", load_s);
  Status wrote = json_append ? bench::AppendBenchJson(json_path, {rec})
                             : bench::WriteBenchJson(json_path, {rec});
  if (!wrote.ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", json_path.c_str(),
                 wrote.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  return (tally.protocol_errors > 0 || tally.verify_failures > 0) ? 1 : 0;
}
