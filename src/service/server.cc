#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>

namespace licm::service {

bool RequestRouter::DispatchControl(const WireRequest& req, bool* shutdown,
                                    std::string* response) {
  if (req.op == "query") return false;
  if (req.op == "ping") {
    *response = RenderPong(req.id);
  } else if (req.op == "stats") {
    *response = RenderStats(req.id, service_->Stats());
  } else if (req.op == "metrics") {
    *response = RenderMetrics(req.id);
  } else if (req.op == "slowlog") {
    *response = RenderSlowLog(req.id, service_->SlowLog());
  } else if (req.op == "instances") {
    *response = RenderInstances(req.id, service_->InstanceNames());
  } else if (req.op == "mutate") {
    *response = HandleMutate(req);
  } else if (req.op == "version") {
    auto version = service_->VersionOf(req.instance);
    *response = version.ok()
                    ? RenderVersion(req.id, req.instance, *version)
                    : RenderError(req.id, version.status());
  } else if (req.op == "load") {
    if (!loader_) {
      *response = RenderError(req.id, Status::InvalidArgument(
                                          "this server has no instance loader"));
    } else {
      auto version = loader_(req.instance, req.spec, req.replace);
      // A fresh registration publishes version 1; anything later means an
      // existing instance was swapped in place.
      *response = version.ok()
                      ? RenderLoadAck(req.id, req.instance, *version,
                                      *version > 1)
                      : RenderError(req.id, version.status());
    }
  } else if (req.op == "shutdown") {
    if (shutdown != nullptr) *shutdown = true;
    *response = RenderShutdownAck(req.id);
  } else {
    *response = RenderError(
        req.id, Status::InvalidArgument("unknown op '" + req.op + "'"));
  }
  return true;
}

Result<QueryRequest> RequestRouter::BuildQuery(const WireRequest& req) const {
  auto query = factory_(req);
  if (!query.ok()) return query.status();
  QueryRequest request;
  request.instance = req.instance;
  request.query = std::move(*query);
  request.deadline_s = req.deadline_ms < 0.0 ? -1.0 : req.deadline_ms / 1e3;
  request.mc_worlds = req.mc_worlds;
  request.mc_seed = req.seed;
  return request;
}

std::string RequestRouter::RenderQueryOutcome(
    int64_t id, const Result<QueryResponse>& outcome) {
  if (!outcome.ok()) return RenderError(id, outcome.status());
  return RenderQueryResponse(id, *outcome);
}

std::string RequestRouter::Handle(const std::string& line, bool* shutdown) {
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) return RenderError(-1, parsed.status());
  const WireRequest& req = *parsed;

  std::string response;
  if (DispatchControl(req, shutdown, &response)) return response;

  auto request = BuildQuery(req);
  if (!request.ok()) return RenderError(req.id, request.status());
  return RenderQueryOutcome(req.id, service_->Execute(std::move(*request)));
}

void RequestRouter::HandleAsync(const WireRequest& req,
                                std::function<void(std::string, bool)> done) {
  bool shutdown = false;
  std::string response;
  if (DispatchControl(req, &shutdown, &response)) {
    done(std::move(response), shutdown);
    return;
  }
  auto request = BuildQuery(req);
  if (!request.ok()) {
    done(RenderError(req.id, request.status()), false);
    return;
  }
  const int64_t id = req.id;
  auto finish = [id, done = std::move(done)](
                    const Result<QueryResponse>& outcome) {
    done(RenderQueryOutcome(id, outcome), false);
  };
  if (executor_) {
    executor_(std::move(*request), std::move(finish));
  } else {
    service_->ExecuteAsync(std::move(*request), std::move(finish));
  }
}

std::string RequestRouter::HandleMutate(const WireRequest& req) {
  Result<MutationResult> outcome =
      Status::InvalidArgument("mutate needs an 'action' field");
  if (req.action == "append" || req.action == "retract") {
    if (req.relation.empty()) {
      return RenderError(req.id,
                         Status::InvalidArgument("mutate " + req.action +
                                                 " needs a 'relation'"));
    }
    // Parse the row against the schema of the *current* snapshot; the
    // typed verb re-validates against the commit-time snapshot.
    auto inst = service_->GetInstance(req.instance);
    if (!inst.ok()) return RenderError(req.id, inst.status());
    auto relation = (*inst)->snapshot()->db.GetRelation(req.relation);
    if (!relation.ok()) return RenderError(req.id, relation.status());
    auto tuple = rel::TupleFromText((*relation)->schema(), req.row);
    if (!tuple.ok()) return RenderError(req.id, tuple.status());
    if (req.action == "append") {
      RowSpec spec;
      spec.tuple = std::move(*tuple);
      spec.maybe = req.maybe;
      outcome = service_->AppendTuples(req.instance, req.relation, {spec});
    } else {
      outcome = service_->RetractTuples(req.instance, req.relation,
                                        {std::move(*tuple)});
    }
  } else if (req.action == "edit") {
    if (req.cindex < 0) {
      return RenderError(
          req.id, Status::InvalidArgument("mutate edit needs a 'cindex'"));
    }
    ConstraintOp op;
    if (req.cop == "le") {
      op = ConstraintOp::kLe;
    } else if (req.cop == "ge") {
      op = ConstraintOp::kGe;
    } else if (req.cop == "eq") {
      op = ConstraintOp::kEq;
    } else {
      return RenderError(req.id, Status::InvalidArgument(
                                     "mutate edit needs 'cop' le|ge|eq"));
    }
    outcome = service_->EditConstraintRhs(
        req.instance, static_cast<size_t>(req.cindex), op, req.rhs);
  } else if (req.action == "fix") {
    if (req.var < 0 || (req.value != 0 && req.value != 1)) {
      return RenderError(req.id,
                         Status::InvalidArgument(
                             "mutate fix needs 'var' >= 0 and 'value' 0|1"));
    }
    LinearConstraint c;
    c.terms.push_back({static_cast<BVar>(req.var), 1});
    c.op = ConstraintOp::kEq;
    c.rhs = req.value;
    outcome = service_->AddConstraint(req.instance, std::move(c));
  } else if (!req.action.empty()) {
    return RenderError(req.id, Status::InvalidArgument(
                                   "unknown mutate action '" + req.action +
                                   "' (append|retract|edit|fix)"));
  }
  if (!outcome.ok()) return RenderError(req.id, outcome.status());
  return RenderMutateResponse(req.id, *outcome);
}

int64_t RunBatch(RequestRouter* router, std::istream& in, std::ostream& out) {
  int64_t handled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    bool shutdown = false;
    out << router->Handle(line, &shutdown) << "\n" << std::flush;
    ++handled;
    if (shutdown) break;
  }
  return handled;
}

MetricsHttpServer::~MetricsHttpServer() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status MetricsHttpServer::Listen(const std::string& host, int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") +
                               std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void MetricsHttpServer::Start() {
  if (listen_fd_ < 0 || accept_thread_.joinable()) return;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void MetricsHttpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
}

void MetricsHttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    // Drain one request chunk (the path is irrelevant — every GET serves
    // the same exposition), answer, close. Scrapers reconnect per scrape.
    char req[2048];
    (void)::recv(fd, req, sizeof(req), 0);
    const std::string body = render_();
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t w = ::send(fd, response.data() + sent,
                               response.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<size_t>(w);
    }
    ::close(fd);
  }
}

}  // namespace licm::service
