// Request routing for the wire protocol (service/protocol.h), the
// stdin/stdout batch mode, and the Prometheus scrape endpoint. The socket
// data plane is net::NetFrontEnd (net/front_end.h); it and the batch mode
// feed identical requests through one RequestRouter, so every protocol
// behaviour is testable without a socket.
#ifndef LICM_SERVICE_SERVER_H_
#define LICM_SERVICE_SERVER_H_

#include <atomic>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>

#include "service/protocol.h"
#include "service/query_service.h"

namespace licm::service {

/// Maps one request line to one response line against a QueryService.
/// The router does not know how queries are built from a qnum — the
/// transport layer injects that (the paper's query catalogue lives above
/// the service library).
class RequestRouter {
 public:
  using QueryFactory =
      std::function<Result<rel::QueryNodePtr>(const WireRequest&)>;
  /// Builds and registers an instance for the `load` op from a spec
  /// string (the transport layer owns the spec grammar, exactly as it
  /// owns the query catalogue). Returns the published version.
  using InstanceLoader = std::function<Result<uint64_t>(
      const std::string& name, const std::string& spec, bool replace)>;

  RequestRouter(QueryService* service, QueryFactory factory)
      : service_(service), factory_(std::move(factory)) {}

  /// Replaces the query execution path. The default executor calls
  /// QueryService::ExecuteAsync directly; licm_serve injects a coalescing
  /// wrapper without the router knowing.
  using AsyncExecutor =
      std::function<void(QueryRequest, QueryService::ResponseCallback)>;

  /// Enables the `load` op; without a loader it reports kInvalidArgument.
  void set_loader(InstanceLoader loader) { loader_ = std::move(loader); }

  void set_async_executor(AsyncExecutor executor) {
    executor_ = std::move(executor);
  }

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws and never returns an empty string: malformed
  /// input yields a rendered error. Sets *shutdown on a shutdown request
  /// (after rendering its ack).
  std::string Handle(const std::string& line, bool* shutdown);

  /// Asynchronous twin of Handle() for already-parsed requests (the
  /// binary codec decodes straight into a WireRequest; the line codec
  /// parses first). Control ops complete inline — `done` may run before
  /// HandleAsync returns; query ops complete from a worker thread via
  /// the async executor. Exactly one `done(response, shutdown)` call per
  /// request, response without trailing newline.
  void HandleAsync(const WireRequest& req,
                   std::function<void(std::string, bool)> done);

  /// Builds the service-layer request for a `query` op (factory +
  /// deadline/mc fields). Shared by the sync and async paths so the batch
  /// mode and the socket front end produce byte-identical responses.
  Result<QueryRequest> BuildQuery(const WireRequest& req) const;

  /// Renders a query outcome exactly as the sync path does.
  static std::string RenderQueryOutcome(int64_t id,
                                        const Result<QueryResponse>& outcome);

  QueryService* service() const { return service_; }

 private:
  std::string HandleMutate(const WireRequest& req);
  /// Handles every op except `query`; returns false for `query` (the
  /// caller owns execution so it can choose sync vs async).
  bool DispatchControl(const WireRequest& req, bool* shutdown,
                       std::string* response);

  QueryService* service_;
  QueryFactory factory_;
  InstanceLoader loader_;
  AsyncExecutor executor_;
};

/// Reads request lines from `in` until EOF or a shutdown request,
/// writing one response line each. Returns the number of requests
/// handled.
int64_t RunBatch(RequestRouter* router, std::istream& in, std::ostream& out);

/// Minimal HTTP/1.0 exposition endpoint for Prometheus scrapes: every
/// request (any path) gets a 200 text/plain body from `render` and the
/// connection is closed. One accept thread, one connection at a time —
/// scrape traffic, not the data plane. Lifecycle:
///   MetricsHttpServer http([] { return registry.RenderPrometheus(); });
///   LICM_RETURN_NOT_OK(http.Listen("127.0.0.1", 0));
///   http.Start();   // background accept loop
///   ...
///   http.Stop();    // joins
class MetricsHttpServer {
 public:
  explicit MetricsHttpServer(std::function<std::string()> render)
      : render_(std::move(render)) {}
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  Status Listen(const std::string& host, int port);
  int port() const { return port_; }
  void Start();
  void Stop();

 private:
  void AcceptLoop();

  std::function<std::string()> render_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace licm::service

#endif  // LICM_SERVICE_SERVER_H_
