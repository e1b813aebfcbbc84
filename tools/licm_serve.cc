// Query service front-end (DESIGN.md §10, §14).
//
//   licm_serve [--port P] [--host H] [--stdin]
//              [--loops N] [--no-coalesce]
//              [--instance name=scheme:k[:txns[:items[:seed]]]]...
//              [--workers N] [--queue N] [--deadline-ms D]
//              [--mc-worlds W] [--solver-threads T] [--slo-ms D]
//              [--metrics-port P] [--metrics-file PATH] [--version]
//
// Registers the given instances (default: one small k-anonymity
// instance named `demo`), then serves the wire protocol over TCP
// (--port, 0 = ephemeral; the chosen port is printed as `LISTENING
// <port>` before the accept loop starts) or over stdin/stdout
// (--stdin). A client `shutdown` request stops either mode.
//
// The TCP data plane is the epoll front end (DESIGN.md §14): --loops
// event loops in this process, speaking both the binary framing and
// line-JSON — the codec is auto-detected per connection from the first
// byte. Identical concurrent queries are coalesced into one solve
// unless --no-coalesce.
//
// Observability: --metrics-port serves the Prometheus text exposition of
// the process metrics registry over HTTP (0 = ephemeral; printed as
// `METRICS <port>`); --metrics-file writes the same exposition to a file
// at shutdown for scraping-free environments; --slo-ms sets the slow-
// query capture threshold served by the `slowlog` verb.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/version.h"
#include "net/coalescer.h"
#include "net/front_end.h"
#include "service/server.h"
#include "service_workload.h"

namespace {

using namespace licm;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--host H] [--stdin]\n"
               "          [--loops N] [--no-coalesce]\n"
               "          [--instance name=scheme:k[:txns[:items[:seed]]]]...\n"
               "          [--workers N] [--queue N] [--deadline-ms D]\n"
               "          [--mc-worlds W] [--solver-threads T] [--slo-ms D]\n"
               "          [--metrics-port P] [--metrics-file PATH]\n"
               "          [--version]\n",
               argv0);
  return 2;
}

/// The service state: the QueryService, the spec map backing the query
/// factory and the `load` verb, and the router wiring them together.
struct ServerState {
  explicit ServerState(const service::ServiceConfig& config)
      : svc(config),
        router(&svc, [this](const service::WireRequest& req)
                         -> Result<rel::QueryNodePtr> {
          tools::InstanceSpec spec;
          {
            std::lock_guard<std::mutex> lock(specs_mu);
            auto it = specs.find(req.instance);
            if (it == specs.end()) {
              return Status::NotFound("unknown instance '" + req.instance +
                                      "'");
            }
            spec = it->second;
          }
          return tools::BuildServiceQuery(spec, req.qnum);
        }) {
    router.set_loader([this](const std::string& name, const std::string& text,
                             bool replace) -> Result<uint64_t> {
      if (name.empty()) {
        return Status::InvalidArgument("load needs an 'instance' name");
      }
      // The wire spec omits the name= prefix of the CLI grammar.
      LICM_ASSIGN_OR_RETURN(tools::InstanceSpec spec,
                            tools::ParseInstanceSpec(name + "=" + text));
      LICM_ASSIGN_OR_RETURN(auto enc, tools::BuildInstance(spec));
      LICM_RETURN_NOT_OK(svc.LoadInstance(name, std::move(enc.db),
                                          std::move(enc.structure), replace));
      {
        std::lock_guard<std::mutex> lock(specs_mu);
        specs.insert_or_assign(name, spec);
      }
      return svc.VersionOf(name);
    });
  }

  Status AddInstances(const std::vector<std::string>& instance_args) {
    for (const std::string& text : instance_args) {
      LICM_ASSIGN_OR_RETURN(tools::InstanceSpec spec,
                            tools::ParseInstanceSpec(text));
      LICM_ASSIGN_OR_RETURN(auto enc, tools::BuildInstance(spec));
      LICM_RETURN_NOT_OK(svc.AddInstance(spec.name, std::move(enc.db),
                                         std::move(enc.structure)));
      specs.emplace(spec.name, spec);
      std::fprintf(stderr, "instance %s ready (%s)\n", spec.name.c_str(),
                   text.c_str());
    }
    return Status::OK();
  }

  service::QueryService svc;
  std::mutex specs_mu;
  std::map<std::string, tools::InstanceSpec> specs;
  service::RequestRouter router;
};

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int metrics_port = -1;  // -1 = no HTTP exposition endpoint
  std::string metrics_file;
  bool use_stdin = false;
  bool coalesce = true;
  int num_loops = 2;
  std::vector<std::string> instance_args;
  service::ServiceConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--version") {
      std::printf("%s\n", VersionString("licm_serve").c_str());
      return 0;
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--no-coalesce") {
      coalesce = false;
    } else if (arg == "--loops") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      num_loops = std::atoi(v);
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--instance") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      instance_args.push_back(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.num_workers = std::atoi(v);
    } else if (arg == "--queue") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.max_queue = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.default_deadline_s = std::atof(v) / 1e3;
    } else if (arg == "--mc-worlds") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.degraded_worlds = std::atoi(v);
    } else if (arg == "--solver-threads") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.solver_threads = std::atoi(v);
    } else if (arg == "--slo-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config.slo_ms = std::atof(v);
    } else if (arg == "--metrics-port") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      metrics_port = std::atoi(v);
    } else if (arg == "--metrics-file") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      metrics_file = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (instance_args.empty()) instance_args.push_back("demo=kanon:4");
  if (num_loops < 1) num_loops = 1;

  auto render_metrics = [] {
    return metrics::MetricsRegistry::Default().RenderPrometheus();
  };
  std::optional<service::MetricsHttpServer> metrics_http;
  if (metrics_port >= 0) {
    metrics_http.emplace(render_metrics);
    Status mhttp = metrics_http->Listen(host, metrics_port);
    if (!mhttp.ok()) {
      std::fprintf(stderr, "metrics listen failed: %s\n",
                   mhttp.ToString().c_str());
      return 1;
    }
    metrics_http->Start();
    std::printf("METRICS %d\n", metrics_http->port());
    std::fflush(stdout);
  }
  // Final-exposition writer for scraping-free environments: dumped once
  // at shutdown, after the last request has been counted.
  auto dump_metrics_file = [&] {
    if (metrics_file.empty()) return;
    std::FILE* f = std::fopen(metrics_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --metrics-file %s\n",
                   metrics_file.c_str());
      return;
    }
    const std::string text = render_metrics();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  };

  ServerState state(config);
  Status built = state.AddInstances(instance_args);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.ToString().c_str());
    return 1;
  }
  std::optional<net::RequestCoalescer> coalescer;
  if (coalesce) {
    coalescer.emplace(&state.svc);
    state.router.set_async_executor(
        [&c = *coalescer](service::QueryRequest request,
                          service::QueryService::ResponseCallback done) {
          c.Execute(std::move(request), std::move(done));
        });
  }

  if (use_stdin) {
    const int64_t handled =
        service::RunBatch(&state.router, std::cin, std::cout);
    std::fprintf(stderr, "handled %lld requests\n",
                 static_cast<long long>(handled));
    if (metrics_http.has_value()) metrics_http->Stop();
    dump_metrics_file();
    return 0;
  }

  net::NetFrontEnd::Options opts;
  opts.num_loops = num_loops;
  net::NetFrontEnd front(&state.router, opts);
  Status listening = front.Listen(host, port);
  if (!listening.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %d\n", front.port());
  std::fflush(stdout);
  Status served = front.Serve();
  if (metrics_http.has_value()) metrics_http->Stop();
  dump_metrics_file();
  if (!served.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
